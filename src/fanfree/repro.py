"""Reproduction battery: seeded random drawings, the independent
brute-force fan oracle, and the claim-by-claim checks behind the
``fanfree repro`` command.

The oracle here deliberately re-derives fan crossings by enumerating
(k+1)-tuples with itertools instead of bucket counting, so that agreement
with the fast detector is meaningful.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .model import CrossingRelation, Graph, StraightLineDrawing
from . import bounds as _bounds
from . import constructions as _con
from . import decompose as _dec
from . import star as _star
from .crossings import compute_crossings, find_k_fans, validate_simplicity


def naive_fan_oracle(g: Graph, c: CrossingRelation, k: int) -> set[tuple[int, int]]:
    """(crosser, apex) pairs found by checking every k-subset of edges at
    every vertex against every candidate crosser."""
    incident = g.incident_edges()
    found = set()
    for apex in range(g.n):
        edges_at = incident[apex]
        if len(edges_at) < k:
            continue
        for crosser in range(len(g.edges)):
            if apex in g.edges[crosser]:
                continue
            for combo in itertools.combinations(edges_at, k):
                if all(c.crosses(crosser, e) for e in combo):
                    found.add((crosser, apex))
                    break
    return found


def random_drawing(rng: random.Random, max_n: int = 12, max_edges: int = 20):
    """A simple random straight-line drawing on distinct rational points
    (small denominators, so the denominator-clearing path is exercised)."""
    while True:
        n = rng.randint(4, max_n)
        den = rng.choice((1, 1, 2, 3))
        pts: set[tuple[Fraction, Fraction]] = set()
        while len(pts) < n:
            pts.add(
                (
                    Fraction(rng.randint(-40, 40), den),
                    Fraction(rng.randint(-40, 40), den),
                )
            )
        coords = tuple(sorted(pts))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(all_pairs)
        m = rng.randint(3, min(max_edges, len(all_pairs)))
        d = StraightLineDrawing(Graph(n, tuple(sorted(all_pairs[:m]))), coords)
        if validate_simplicity(d).ok:
            return d


def random_fan_free_drawing(rng: random.Random, k: int = 2, max_n: int = 12):
    """Random drawing thinned until it is k-fan-crossing free."""
    d = random_drawing(rng, max_n=max_n)
    while True:
        c = compute_crossings(d)
        fans = find_k_fans(d.graph, c, k)
        if not fans:
            return d
        drop = fans[0].crosser
        edges = tuple(e for i, e in enumerate(d.graph.edges) if i != drop)
        d = StraightLineDrawing(Graph(d.graph.n, edges), d.coords)


@dataclass
class Claim:
    name: str
    status: str  # pass | fail | inconclusive
    detail: str
    seconds: float


def _claim(name, fn) -> Claim:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
        status = "pass" if ok else "fail"
    except _star.InconclusiveError as exc:
        status, detail = "inconclusive", str(exc)
    return Claim(name, status, detail, time.perf_counter() - t0)


def claim_star_small(budget=None) -> list[Claim]:
    out = []
    for m, expect in ((3, 1), (4, 2)):
        def check(m=m, expect=expect):
            res = _star.max_arrows(m, 2, budget=budget)
            return res.maximum == expect, f"max arrows = {res.maximum}, expected {expect}"
        out.append(_claim(f"star: {m}-gon maximum at k=2 is {expect}", check))
    return out


def claim_star_range(ms, budget=None) -> list[Claim]:
    out = []
    for m in ms:
        def check(m=m):
            res = _star.max_arrows(m, 2, budget=budget)
            lo, hi = 2 * m - 6, 3 * m - 9
            ok = res.maximum is not None and lo <= res.maximum <= hi
            tight = "meets 2m-6" if res.maximum == lo else "exceeds 2m-6"
            long_res = _star.max_arrows(m, 2, long_only=True, budget=budget)
            ok = ok and long_res.maximum is not None and long_res.maximum <= 2 * m - 8
            return ok, (
                f"max={res.maximum} in [{lo}, {hi}], {tight}; "
                f"long arrows max={long_res.maximum} <= {2 * m - 8}"
            )
        out.append(_claim(f"star: {m}-gon maximum within proven range", check))
    return out


def claim_base_cases(k=3, budget=None) -> list[Claim]:
    out = []
    for h, lam, nu in _star.BASE_CASE_ROWS:
        formula = _star.base_case_formula(h, lam, nu, k)

        def check(h=h, lam=lam, nu=nu):
            r = _star.base_case_row(h, lam, nu, k, budget)
            return r.match, f"searched={r.searched}, published={r.formula}"

        out.append(
            _claim(f"star classes: A({h},{lam},{nu}) at k={k} equals {formula}", check)
        )
    return out


def claim_quad_family(ns) -> list[Claim]:
    def check():
        for n in ns:
            d = _con.gen_quad_extremal(n)
            if len(d.graph.edges) != 4 * n - 8:
                return False, f"n={n}: wrong edge count {len(d.graph.edges)}"
        return True, f"{len(list(ns))} sizes generated and verified at 4n-8 edges"
    return [_claim("constructions: quadrangulation family attains 4n-8", check)]


def claim_straight_family(ns) -> list[Claim]:
    def check():
        for n in ns:
            d = _con.gen_straight_extremal(n)
            if len(d.graph.edges) != 4 * n - 9:
                return False, f"n={n}: wrong edge count {len(d.graph.edges)}"
        return True, f"{len(list(ns))} sizes generated and verified at 4n-9 edges"
    return [_claim("constructions: straight-line family attains 4n-9", check)]


def claim_k_families(sides=(10,), ks=(3, 4, 5), qs=(4, 5, 6, 7, 8)) -> list[Claim]:
    def check_grid():
        for s in sides:
            for k in ks:
                d = _con.gen_grid(s, k)
                n, e = d.graph.n, len(d.graph.edges)
                hi = 3 * (k - 1) * (n - 2)
                lo_ok = grid_floor_ok(e, n, k)
                if not (lo_ok and e <= hi):
                    return False, f"side={s} k={k}: edges {e} outside [floor, {hi}]"
        return True, "all grid drawings verified k-fan-free with edges in range"

    def check_kq():
        for q in qs:
            d = _con.gen_kq_subdivision(q)
            n_exp = q + q * (q - 1)
            e_exp = 3 * q * (q - 1) // 2
            if d.graph.n != n_exp or len(d.graph.edges) != e_exp:
                return False, f"q={q}: got n={d.graph.n}, edges={len(d.graph.edges)}"
        return True, f"subdivided complete graphs verified for q in {tuple(qs)}"

    return [
        _claim("constructions: stencil grids are k-fan-free with ~ (k-1)n edges", check_grid),
        _claim("constructions: subdivided K_q is fan-crossing free", check_kq),
    ]


def grid_floor_ok(edges: int, n: int, k: int) -> bool:
    # edges >= (k-1)(n - 8 sqrt(nk)), compared without floats
    rhs = (k - 1) * n - edges
    if rhs <= 0:
        return True
    return 64 * (k - 1) * (k - 1) * n * k >= rhs * rhs


def claim_audit(ns=(6, 12, 20), samples=50, seed=20240807) -> list[Claim]:
    def check():
        rng = random.Random(seed)
        audited = 0
        for n in ns:
            rep = _dec.audit(_con.gen_straight_extremal(n), 2)
            if not rep.ok:
                return False, f"straight n={n}: {rep.falsifications[:1]}"
            audited += 1
        for _ in range(samples):
            d = random_fan_free_drawing(rng)
            rep = _dec.audit(d, 2)
            if not rep.ok:
                return False, f"random drawing: {rep.falsifications[:1]}"
            audited += 1
        return True, f"{audited} decompositions audited, all identities and face bounds hold"
    return [_claim("decomposition: face bounds and counting identities", check)]


def claim_bounds_table() -> list[Claim]:
    def check():
        for n in range(3, 101):
            ub = _bounds.upper_bound(n, 2)
            if _bounds.upper_bound(n, 2, straight=True) != ub - 1:
                return False, f"straight bound mismatch at n={n}"
            exact, _ = _bounds.exact_extremal_k2(n)
            if exact > ub:
                return False, f"exact value above bound at n={n}"
            if (exact == ub) != (n == 8 or n >= 10):
                return False, f"tightness wrong at n={n}"
        if _bounds.exact_extremal_k2(7)[0] != 19 or _bounds.exact_extremal_k2(9)[0] != 27:
            return False, "n=7 or n=9 exact value wrong"
        a7 = _bounds.nonexistence_argument(7)
        a9 = _bounds.nonexistence_argument(9)
        ok = a7["avg_below_3"] and a9["contradiction"]
        return ok, "bounds table 3..100 and the n=7/n=9 arithmetic verified"
    return [_claim("bounds: closed forms and nonexistence arithmetic", check)]


def claim_oracle(samples=500, seed=20240808) -> list[Claim]:
    def check():
        rng = random.Random(seed)
        for i in range(samples):
            d = random_drawing(rng)
            c = compute_crossings(d)
            for k in (2, 3, 4):
                fast = {(w.crosser, w.apex) for w in find_k_fans(d.graph, c, k)}
                slow = naive_fan_oracle(d.graph, c, k)
                if fast != slow:
                    return False, f"mismatch on sample {i} at k={k}"
        return True, f"{samples} random drawings, detector equals brute force for k in (2,3,4)"
    return [_claim("crossing detector equals brute-force oracle", check)]


def claim_falsification_guard(ns=(8, 12, 20, 30)) -> list[Claim]:
    def check():
        for n in ns:
            rep = _bounds.check_graph_against_bounds(_con.gen_quad_extremal(n), 2)
            if rep.falsification:
                return False, f"quad n={n} flagged as falsification"
            if rep.verdict != "extremal":
                return False, f"quad n={n} verdict {rep.verdict}"
        return True, "no verified fan-free input exceeds a proven bound"
    return [_claim("falsification guard: extremal inputs sit exactly at the bound", check)]


def run_battery(deep: bool = False, seed: int = 20240808, budget=None) -> list[Claim]:
    """The full reproduction battery; deep mode includes the 8-gon search."""
    claims: list[Claim] = []
    claims += claim_star_small(budget)
    claims += claim_star_range((5, 6, 7) + ((8,) if deep else ()), budget)
    claims += claim_base_cases(3, budget)
    claims += claim_quad_family((8,) + tuple(range(10, 31)))
    claims += claim_straight_family(range(6, 31))
    claims += claim_k_families()
    claims += claim_audit(samples=50 if not deep else 200, seed=seed)
    claims += claim_bounds_table()
    claims += claim_oracle(samples=100 if not deep else 500, seed=seed)
    claims += claim_falsification_guard()
    return claims
