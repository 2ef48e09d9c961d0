"""Command-line front end: generation, checking, audits, star search,
bound reports, SVG rendering, and the reproduction battery.

Exit codes: 0 success / all pass, 1 violation or witness found, 2 usage
error, 3 search budget exhausted (inconclusive).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as _bounds
from . import constructions as _con
from . import decompose as _dec
from . import repro as _repro
from . import star as _star
from .crossings import compute_crossings, crossings_of, find_k_fans, integer_points
from .model import (
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


def _env_budget() -> int | None:
    raw = os.environ.get("FANFREE_BUDGET")
    return int(raw) if raw else None


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
    elif fam == "tri-plus-dual":
        obj = _con.gen_tri_plus_dual(args.rows, args.cols)
    else:
        print(f"unknown family: {fam}", file=sys.stderr)
        return EXIT_USAGE
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
    g, rel = crossings_of(obj)
    fans = find_k_fans(g, rel, args.k)
    payload = {
        "schema": 1,
        "k": args.k,
        "fan_free": not fans,
        "witnesses": [
            {"crosser": w.crosser, "apex": w.apex, "fan": list(w.fan)} for w in fans
        ],
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
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
    elif isinstance(obj, AbstractDrawing):
        payload = _dec.audit_abstract(obj, args.k)
        payload["schema"] = 1
        ok = payload["edge_bound_ok"]
    else:
        print("input has no drawing data", file=sys.stderr)
        return EXIT_USAGE
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if not ok:
        _archive_falsification(payload, args.input)
        print("FALSIFICATION: a proven bound failed on a verified input", file=sys.stderr)
        return EXIT_WITNESS
    print("audit passed: all face bounds and counting identities hold")
    return EXIT_OK


def _archive_falsification(payload: dict, source) -> str:
    path = "falsification.json"
    i = 0
    while os.path.exists(path):
        i += 1
        path = f"falsification-{i}.json"
    with open(path, "w") as fh:
        json.dump({"source": str(source), "report": payload}, fh, indent=2, sort_keys=True)
    print(f"counterexample archived to {path}", file=sys.stderr)
    return path


def cmd_star_search(args) -> int:
    budget = args.budget if args.budget is not None else _env_budget()
    klass = None
    if args.vertex_class:
        klass = tuple(int(x) for x in args.vertex_class.split(","))
        if len(klass) != 3:
            print("--class expects H,L,V", file=sys.stderr)
            return EXIT_USAGE
    try:
        res = _star.max_arrows(
            args.m,
            args.k,
            long_only=args.long_only,
            vertex_class=klass,
            budget=budget,
        )
    except _star.InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(res.maximum if res.maximum is not None else "infeasible")
    if args.json:
        payload = {
            "schema": 1,
            "m": args.m,
            "k": args.k,
            "maximum": res.maximum,
            "nodes": res.nodes,
            "configs": [
                {"m": c.m, "arrows": [list(a) for a in c.arrows]} for c in res.configs
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.input:
        obj = load(args.input)
        rep = _bounds.check_graph_against_bounds(obj, args.k, args.straight)
        payload = _bounds.report_to_json(rep)
        print(f"{rep.verdict}: {rep.reason}")
        if rep.falsification:
            _archive_falsification(payload, args.input)
            return EXIT_WITNESS
    else:
        value = _bounds.upper_bound(args.n, args.k, args.straight)
        payload = {
            "schema": 1,
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
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


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


def render_svg(d: StraightLineDrawing, size: int = 800, margin: int = 20) -> str:
    """SVG 1.1 rendering: one circle per vertex, one line per edge, one
    marker per crossing of the exact relation.  Floats appear only here,
    after every decision has been made exactly."""
    rel = compute_crossings(d)
    pts = integer_points(d)
    xs = [x for x, _y in d.coords]
    ys = [y for _x, y in d.coords]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    scale = Fraction(size - 2 * margin) / span

    def px(p):
        x = float((p[0] - lo_x) * scale) + margin
        y = size - (float((p[1] - lo_y) * scale) + margin)
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for u, v in d.graph.edges:
        x1, y1 = px(d.coords[u])
        x2, y2 = px(d.coords[v])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#365f91" stroke-width="1.2"/>'
        )
    for i, j in sorted(rel.pairs):
        x, y = px(_segment_intersection(d, pts, i, j))
        parts.append(
            f'<rect x="{x - 2.5:.2f}" y="{y - 2.5:.2f}" width="5" height="5" '
            f'fill="none" stroke="#c0504d"/>'
        )
    for v, p in enumerate(d.coords):
        x, y = px(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#222222"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segment_intersection(d: StraightLineDrawing, pts, i: int, j: int):
    """Crossing point of edges i and j; ``pts`` are the drawing's integer points."""
    (u1, v1), (u2, v2) = d.graph.edges[i], d.graph.edges[j]
    t = _dec.intersection_param(pts[u1], pts[v1], pts[u2], pts[v2])
    (x1, y1), (x2, y2) = d.coords[u1], d.coords[v1]
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def cmd_repro(args) -> int:
    budget = args.budget if args.budget is not None else _env_budget()
    claims = _repro.run_battery(deep=args.deep, seed=args.seed, budget=budget)
    width = max(len(c.name) for c in claims)
    worst = EXIT_OK
    for c in claims:
        print(f"{c.status.upper():<13} {c.name:<{width}}  {c.detail}")
        if c.status == "fail":
            worst = EXIT_WITNESS
        elif c.status == "inconclusive" and worst == EXIT_OK:
            worst = EXIT_INCONCLUSIVE
    n_pass = sum(1 for c in claims if c.status == "pass")
    print(f"-- {n_pass}/{len(claims)} claims pass")
    if args.out:
        payload = {
            "schema": 1,
            "claims": [
                {"name": c.name, "status": c.status, "detail": c.detail,
                 "seconds": round(c.seconds, 3)}
                for c in claims
            ],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return worst


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
                    help="include the slow 8-gon star search and larger samples")
    rp.add_argument("--seed", type=int, default=20240808)
    rp.add_argument("--budget", type=int, default=None)
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


def run() -> None:
    sys.exit(main())
