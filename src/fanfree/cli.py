"""Command-line front end: generation, checking, audits, star search,
bound reports, SVG rendering, and the reproduction battery.

Exit codes: 0 success / all pass, 1 violation or witness found, 2 usage
error or rejected input, 3 ``star-search --budget`` exhausted before the
search ended (inconclusive), 4 internal error (an exception the program
did not expect).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from fractions import Fraction

from . import bounds as _bounds
from . import constructions as _con
from . import decompose as _dec
from . import repro as _repro
from . import star as _star
from .crossings import find_k_fans
from .model import (
    SCHEMA_VERSION,
    AbstractDrawing,
    Graph,
    StraightLineDrawing,
    dumps,
    load,
    save,
)

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "quad-extremal":
        obj = _con.gen_quad_extremal(args.n)
    elif fam == "straight-extremal":
        obj = _con.gen_straight_extremal(args.n)
    elif fam == "grid":
        obj = _con.gen_grid(args.side, args.k)
    elif fam == "kq-subdivision":
        obj = _con.gen_kq_subdivision(args.q)
    else:  # tri-plus-dual: argparse's choices admit no other family
        obj = _con.gen_tri_plus_dual(args.rows, args.cols)
    if args.out:
        save(obj, args.out)
        print(f"wrote {args.out}: n={obj.graph.n}, edges={len(obj.graph.edges)}")
    else:
        print(dumps(obj))
    return EXIT_OK


def cmd_check(args) -> int:
    obj = load(args.input)
    if isinstance(obj, Graph):
        print("input has no drawing data (coords or crossings)", file=sys.stderr)
        return EXIT_USAGE
    g, rel = obj.graph, obj.crossings
    fans = find_k_fans(g, rel, args.k)
    payload = {
        "schema": SCHEMA_VERSION,
        "k": args.k,
        "fan_free": not fans,
        "witnesses": [
            {"crosser": w.crosser, "apex": w.apex, "fan": list(w.fan)} for w in fans
        ],
    }
    if args.json:
        _write_json(args.json, payload)
    if fans:
        for w in fans:
            print(f"{args.k}-fan: edge {w.crosser} crosses {list(w.fan)} at vertex {w.apex}")
        return EXIT_WITNESS
    print(f"{args.k}-fan-crossing free ({len(g.edges)} edges, {len(rel.pairs)} crossings)")
    return EXIT_OK


def cmd_audit(args) -> int:
    obj = load(args.input)
    if isinstance(obj, StraightLineDrawing):
        rep = _dec.audit(obj, args.k)
        payload = _dec.report_to_json(rep)
        ok = rep.ok
        passed = "all face bounds and counting identities hold"
    elif isinstance(obj, AbstractDrawing):
        payload = _dec.audit_abstract(obj, args.k)
        payload["schema"] = SCHEMA_VERSION
        ok = payload["edge_bound_ok"]
        passed = f"{len(obj.graph.edges)} edges, within the edge limit {payload['edge_bound']}"
    else:
        print("input has no drawing data", file=sys.stderr)
        return EXIT_USAGE
    if args.report:
        _write_json(args.report, payload)
    if not ok:
        _archive_falsification(payload, args.input)
        print("FALSIFICATION: a proven bound failed on a verified input", file=sys.stderr)
        return EXIT_WITNESS
    print(f"audit passed: {passed}")
    return EXIT_OK


def _archive_falsification(payload: dict, source) -> str:
    path = "falsification.json"
    i = 0
    while os.path.exists(path):
        i += 1
        path = f"falsification-{i}.json"
    _write_json(path, {"source": str(source), "report": payload})
    print(f"counterexample archived to {path}", file=sys.stderr)
    return path


def cmd_star_search(args) -> int:
    klass = None
    if args.vertex_class:
        # max_arrows rejects a class that is not three counts partitioning m
        klass = tuple(int(x) for x in args.vertex_class.split(","))
    t0 = time.perf_counter()
    try:
        res = _star.max_arrows(
            args.m,
            args.k,
            long_only=args.long_only,
            vertex_class=klass,
            budget=args.budget,
        )
    except _star.InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    seconds = time.perf_counter() - t0
    print(res.maximum if res.maximum is not None else "infeasible")
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "m": args.m,
            "k": args.k,
            "maximum": res.maximum,
            "nodes": res.nodes,
            "seconds": round(seconds, 3),
            "configs": [
                {"m": c.m, "arrows": [list(a) for a in c.arrows]} for c in res.configs
            ],
        }
        _write_json(args.json, payload)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.input:
        obj = load(args.input)
        # without --straight the input's type decides (coordinates: straight)
        rep = _bounds.check_graph_against_bounds(obj, args.k, args.straight or None)
        payload = _bounds.report_to_json(rep)
        print(f"{rep.verdict}: {rep.reason}")
        if rep.falsification:
            _archive_falsification(payload, args.input)
    elif args.n is None:
        print("bounds needs --n or --input", file=sys.stderr)
        return EXIT_USAGE
    else:
        value = _bounds.upper_bound(args.n, args.k, args.straight)
        payload = {
            "schema": SCHEMA_VERSION,
            "n": args.n,
            "k": args.k,
            "straight": args.straight,
            "bound": value,
        }
        if args.k == 2:
            exact, reason = _bounds.exact_extremal_k2(args.n)
            payload["exact_extremal"] = exact
            payload["reason"] = reason
            print(f"bound {value}, exact extremal {exact}")
        else:
            print(f"bound {value}")
    if args.json:
        _write_json(args.json, payload)
    return EXIT_WITNESS if args.input and rep.falsification else EXIT_OK


def cmd_render(args) -> int:
    obj = load(args.input)
    if not isinstance(obj, StraightLineDrawing):
        print("render needs a drawing with coordinates", file=sys.stderr)
        return EXIT_USAGE
    svg = render_svg(obj)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


# side of the square SVG canvas and the blank border inside it, in pixels
SVG_SIZE = 800
SVG_MARGIN = 20


def render_svg(d: StraightLineDrawing) -> str:
    """SVG 1.1 rendering: one circle per vertex, one line per edge, one
    marker per crossing of the exact relation.  Floats appear only here,
    after every decision has been made exactly."""
    xs = [x for x, _y in d.coords]
    ys = [y for _x, y in d.coords]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    scale = Fraction(SVG_SIZE - 2 * SVG_MARGIN) / span

    def px(p):
        x = float((p[0] - lo_x) * scale) + SVG_MARGIN
        y = SVG_SIZE - (float((p[1] - lo_y) * scale) + SVG_MARGIN)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    for u, v in d.graph.edges:
        x1, y1 = px(d.coords[u])
        x2, y2 = px(d.coords[v])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#365f91" stroke-width="1.2"/>'
        )
    for i, j in sorted(d.crossings.pairs):
        x, y = px(_segment_intersection(d, i, j))
        parts.append(
            f'<rect x="{x - 2.5:.2f}" y="{y - 2.5:.2f}" width="5" height="5" '
            f'fill="none" stroke="#c0504d"/>'
        )
    for v, p in enumerate(d.coords):
        x, y = px(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#222222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segment_intersection(d: StraightLineDrawing, i: int, j: int):
    """Crossing point of edges i and j."""
    pts = d.points
    (u1, v1), (u2, v2) = d.graph.edges[i], d.graph.edges[j]
    t = _dec.intersection_param(pts[u1], pts[v1], pts[u2], pts[v2])
    (x1, y1), (x2, y2) = d.coords[u1], d.coords[v1]
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def cmd_repro(args) -> int:
    claims = _repro.run_battery(deep=args.deep)
    width = max(len(c.name) for c in claims)
    for c in claims:
        print(f"{c.status.upper():<13} {c.name:<{width}}  {c.detail}")
    n_pass = sum(1 for c in claims if c.status == "pass")
    print(f"-- {n_pass}/{len(claims)} claims pass")
    if args.out:
        payload = {
            "schema": SCHEMA_VERSION,
            "claims": [
                {"name": c.name, "status": c.status, "detail": c.detail,
                 "seconds": round(c.seconds, 3)}
                for c in claims
            ],
        }
        _write_json(args.out, payload)
    return EXIT_OK if n_pass == len(claims) else EXIT_WITNESS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fanfree",
        description="Construct, verify, and explore k-fan-crossing free graph drawings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a drawing from a named family")
    g.add_argument("--family", required=True,
                   choices=["quad-extremal", "straight-extremal", "grid",
                            "kq-subdivision", "tri-plus-dual"])
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--k", type=int, default=3)
    g.add_argument("--q", type=int, default=5)
    g.add_argument("--side", type=int, default=10)
    g.add_argument("--rows", type=int, default=4)
    g.add_argument("--cols", type=int, default=4)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen)

    c = sub.add_parser("check", help="detect k-fan crossings in a drawing")
    c.add_argument("--input", required=True)
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--json", default=None)
    c.set_defaults(fn=cmd_check)

    a = sub.add_parser("audit", help="decomposition audit against the face bounds")
    a.add_argument("--input", required=True)
    a.add_argument("--k", type=int, default=2)
    a.add_argument("--report", default=None)
    a.set_defaults(fn=cmd_audit)

    s = sub.add_parser("star-search", help="exact maximum arrows of an m-star")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--long-only", action="store_true")
    s.add_argument("--class", dest="vertex_class", default=None,
                   help="heavy,light,void counts, e.g. 3,0,0")
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--json", default=None)
    s.set_defaults(fn=cmd_star_search)

    b = sub.add_parser("bounds", help="edge-count bounds and verdicts")
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--straight", action="store_true")
    b.add_argument("--input", default=None)
    b.add_argument("--json", default=None)
    b.set_defaults(fn=cmd_bounds)

    r = sub.add_parser("render", help="render a coordinate drawing to SVG")
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_render)

    rp = sub.add_parser("repro", help="re-derive the headline results")
    rp.add_argument("--deep", action="store_true",
                    help="include the slow star searches (8- and 9-gon at k=2, "
                         "6-gon at k=3, 5-gon at k=4) and larger samples")
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=cmd_repro)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "gen" and args.family in ("quad-extremal", "straight-extremal"):
        if args.n is None:
            print("--n is required for this family", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except _con.ConstructionError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return EXIT_WITNESS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not a verdict: report it without the witness exit code
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
