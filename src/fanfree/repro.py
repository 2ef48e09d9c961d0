"""Reproduction battery: seeded random drawings, the independent
brute-force oracles, and the claim-by-claim checks behind the
``fanfree repro`` command and the acceptance suite.

The fan oracle deliberately re-derives fan crossings by enumerating
(k+1)-tuples with itertools instead of bucket counting, and the star class
enumerator tries every multiset of arrows in every slot order instead of
searching, so that agreement with the fast code is meaningful.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .model import AbstractDrawing, CrossingRelation, Graph, StraightLineDrawing
from . import bounds as _bounds
from . import constructions as _con
from . import decompose as _dec
from . import star as _star
from .crossings import SimplicityError, find_k_fans, is_k_fan_free


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


@functools.cache
def brute_class_table(m: int, k: int) -> dict[tuple[int, int, int], int]:
    """Exact per-class maxima of fan-free m-stars, by enumerating every
    multiset of legal arrow pairs and every order of the arrows on each
    exit edge; it shares no code with the search beyond the converter
    ``StarConfig.from_orders``.

    The arrow count grows until no star of that count is fan-free.  Removing
    an arrow keeps a star fan-free, so no larger count can have one either.
    Cached, since the 4-gon at k = 3 takes about a second; callers must not
    mutate the returned dict.
    """
    best: dict[tuple[int, int, int], int] = {}
    for total in itertools.count():
        found = False
        for multiset in itertools.combinations_with_replacement(_star.legal_pairs(m), total):
            if any(multiset.count(p) >= k for p in multiset):
                continue
            per_edge: dict[int, list[int]] = {}
            for s, e in multiset:
                per_edge.setdefault(e, []).append(s)
            for orders in itertools.product(
                *(set(itertools.permutations(starts)) for starts in per_edge.values())
            ):
                cfg = _star.StarConfig.from_orders(m, dict(zip(per_edge, orders)))
                if is_k_fan_free(_star.star_drawing(cfg), k):
                    found = True
                    cls = _star.classify_vertices(cfg).counts
                    best[cls] = max(best.get(cls, 0), total)
        if not found:
            return best


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
        d = StraightLineDrawing.from_coords(Graph(n, tuple(sorted(all_pairs[:m]))), coords)
        with contextlib.suppress(SimplicityError):
            d.crossings  # computed and kept for a simple drawing, else raises
            return d


def random_fan_free_drawing(rng: random.Random, max_n: int = 12):
    """Random drawing thinned until it is fan-crossing free (k = 2)."""
    d = random_drawing(rng, max_n=max_n)
    while True:
        fans = find_k_fans(d.graph, d.crossings, 2)
        if not fans:
            return d
        drop = fans[0].crosser
        edges = tuple(e for i, e in enumerate(d.graph.edges) if i != drop)
        d = StraightLineDrawing(Graph(d.graph.n, edges), d.points, d.den)


class Claim(NamedTuple):
    name: str
    status: str  # pass | fail
    detail: str
    seconds: float


def _claim(name, fn) -> Claim:
    """Run one check.  A generator whose self-check fails inside it fails
    the claim with the error's message, and the battery goes on."""
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
        status = "pass" if ok else "fail"
    except _con.ConstructionError as exc:
        status, detail = "fail", str(exc)
    return Claim(name, status, detail, time.perf_counter() - t0)


# (m, k, exact maximum) of the star searches: the fast battery runs
# STAR_SMALL, the deep battery STAR_SMALL and STAR_DEEP
STAR_SMALL = ((3, 2, 1), (4, 2, 2))
STAR_DEEP = ((6, 3, 14), (5, 4, 17))


def claim_star_maxima(cases) -> list[Claim]:
    """One claim per (m, k, expected maximum): the search's maximum equals
    it and every witness it returns is k-fan free."""
    out = []
    for m, k, expect in cases:
        def check(m=m, k=k, expect=expect):
            res = _star.max_arrows(m, k)
            fanned = sum(
                not is_k_fan_free(_star.star_drawing(cfg), k) for cfg in res.configs
            )
            return res.maximum == expect and not fanned, (
                f"max arrows = {res.maximum}, expected {expect}; "
                f"{len(res.configs)} witnesses, {fanned} with a {k}-fan; "
                f"{res.nodes:,} nodes"
            )
        out.append(_claim(f"star: {m}-gon maximum at k={k} is {expect}", check))
    return out


def claim_star_range(ms) -> list[Claim]:
    out = []
    for m in ms:
        def check(m=m):
            res = _star.max_arrows(m, 2)
            lo, hi = 2 * m - 6, 3 * m - 9
            ok = res.maximum is not None and lo <= res.maximum <= hi
            tight = "meets 2m-6" if res.maximum == lo else "exceeds 2m-6"
            long_res = _star.max_arrows(m, 2, long_only=True)
            ok = ok and long_res.maximum is not None and long_res.maximum <= 2 * m - 8
            return ok, (
                f"max={res.maximum} in [{lo}, {hi}], {tight}; "
                f"long arrows max={long_res.maximum} <= {2 * m - 8}"
            )
        out.append(_claim(f"star: {m}-gon maximum within proven range", check))
    return out


# the fan order of the base-case table that claim_base_cases checks
BASE_CASE_K = 3


def claim_base_cases() -> list[Claim]:
    """One claim per base-case class at k = BASE_CASE_K.  A row passes when
    the searched maximum equals the enumerator's, is at most ``bound_b``,
    and either equals the reference value or is certified: the class is
    empty, or every searched witness has more arrows than the reference,
    has that class, and realizes as a straight-line drawing with no k-fan.
    A row below the reference fails."""
    k = BASE_CASE_K
    out = []
    for klass in _star.BASE_CASE_ROWS:
        ref = _star.base_case_formula(*klass, k)

        def check(klass=klass, ref=ref):
            m = sum(klass)
            res = _star.max_arrows(m, k, vertex_class=klass)
            found, enumerated = res.maximum, brute_class_table(m, k).get(klass)
            detail = f"searched={found}, enumerated={enumerated}, reference={ref}"
            if found != enumerated:
                return False, f"{detail}; search and enumerator disagree"
            if found is not None and found > _star.bound_b(*klass, k):
                return False, f"{detail}; above bound_b"
            if found == ref:
                return True, detail
            if found is None:
                return True, f"{detail}; off the reference, certified: class empty"
            if found < ref or not res.configs:
                return False, f"{detail}; below the reference or no witness"
            for cfg in res.configs:
                d = _star.realize_star(cfg)
                if (
                    len(cfg.arrows) <= ref
                    or _star.classify_vertices(cfg).counts != klass
                    or find_k_fans(d.graph, d.crossings, k)
                ):
                    return False, f"{detail}; witness {cfg.arrows} uncertified"
            return True, (
                f"{detail}; off the reference, certified: {len(res.configs)} "
                f"witnesses of that class realize with no {k}-fan"
            )

        name = "star classes: A({},{},{}) at k={} against reference {}".format(*klass, k, ref)
        out.append(_claim(name, check))
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
    k6 = {(u, v) for u in range(6) for v in range(u + 1, 6)}

    def check():
        for n in ns:
            d = _con.gen_straight_extremal(n)
            if len(d.graph.edges) != 4 * n - 9:
                return False, f"n={n}: wrong edge count {len(d.graph.edges)}"
            if n == 6 and set(d.graph.edges) != k6:
                return False, "n=6: the drawing is not K_6"
        return True, f"{len(list(ns))} sizes generated and verified at 4n-9 edges; n=6 is K_6"
    return [_claim("constructions: straight-line family attains 4n-9", check)]


# the stencil grids of claim_k_families (one side, each k) and the q of its
# subdivided complete graphs
GRID_SIDE = 10
GRID_KS = (3, 4, 5)
KQ_QS = (4, 5, 6, 7, 8)


def claim_k_families() -> list[Claim]:
    def check_grid():
        for k in GRID_KS:
            d = _con.gen_grid(GRID_SIDE, k)
            n, e = d.graph.n, len(d.graph.edges)
            hi = 3 * (k - 1) * (n - 2)
            lo_ok = grid_floor_ok(e, n, k)
            if not (lo_ok and e <= hi):
                return False, f"side={GRID_SIDE} k={k}: edges {e} outside [floor, {hi}]"
        return True, "all grid drawings verified k-fan-free with edges in range"

    def check_kq():
        for q in KQ_QS:
            d = _con.gen_kq_subdivision(q)
            n_exp = q + q * (q - 1)
            e_exp = 3 * q * (q - 1) // 2
            if d.graph.n != n_exp or len(d.graph.edges) != e_exp:
                return False, f"q={q}: got n={d.graph.n}, edges={len(d.graph.edges)}"
        return True, f"subdivided complete graphs verified for q in {KQ_QS}"

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


def _quad_skeleton_problem(n: int) -> str | None:
    """Greedy H of the quad family is its skeleton plus each face's first
    diagonal, a triangulation whose triangles each take one arrow from the
    face's excluded diagonal; what breaks that, or None."""
    d = _con.gen_quad_extremal(n)
    h, excluded = _dec.maximal_plane_subgraph(d.graph, d.crossings)
    if len(h) != 3 * n - 6:
        return f"quad n={n}: greedy H has {len(h)} edges, not 3n-6"
    h, excluded = set(h), set(excluded)
    triangles = set()
    # sorted, the designed pairs are each face's two diagonals in face order
    diagonals = zip(_con.quad_extremal_parts(n)[1], sorted(d.crossings.pairs), strict=True)
    for i, ((p, q, r, s), (first, second)) in enumerate(diagonals):
        if first not in h or second not in excluded:
            return f"quad n={n}: face {i} diagonals not split between H and arrows"
        triangles |= {tuple(sorted(t)) for t in ((p, q, r), (p, r, s))}
    if len(triangles) != 2 * n - 4:
        return f"quad n={n}: {len(triangles)} distinct triangles, not 2n-4"
    return None


def claim_audit(ns=(6, 12, 20), samples=50, seed=20240808) -> list[Claim]:
    """Audits of the straight-line family at each n of ``ns`` (two faces
    without arrows, one arrow in every other face) and of ``samples``
    random fan-free drawings, plus the quad family's greedy H at each n of
    ``ns`` where that family exists."""
    def check():
        rng = random.Random(seed)
        audited = 0
        for n in ns:
            rep = _dec.audit(_con.gen_straight_extremal(n), 2)
            if not rep.ok:
                return False, f"straight n={n}: {rep.falsifications[:1]}"
            arrows = sorted(fa.arrows for fa in rep.face_audits)
            if arrows != [0, 0] + [1] * (rep.faces - 2):
                return False, f"straight n={n}: arrows per face {arrows}"
            audited += 1
        for _ in range(samples):
            d = random_fan_free_drawing(rng)
            rep = _dec.audit(d, 2)
            if not rep.ok:
                return False, f"random drawing: {rep.falsifications[:1]}"
            audited += 1
        quad_ns = [n for n in ns if n == 8 or n >= 10]
        for n in quad_ns:
            problem = _quad_skeleton_problem(n)
            if problem:
                return False, problem
        return True, (
            f"{audited} decompositions audited, all identities and face bounds hold; "
            f"{len(quad_ns)} quad skeletons are triangulated with one arrow per triangle"
        )
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
            c = d.crossings
            for k in (2, 3, 4):
                fast = {(w.crosser, w.apex) for w in find_k_fans(d.graph, c, k)}
                slow = naive_fan_oracle(d.graph, c, k)
                if fast != slow:
                    return False, f"mismatch on sample {i} at k={k}"
        return True, f"{samples} random drawings, detector equals brute force for k in (2,3,4)"
    return [_claim("crossing detector equals brute-force oracle", check)]


def claim_falsification_guard(ns=(8, 12, 20, 30)) -> list[Claim]:
    """The quad family (where it exists) and the straight-line family,
    checked against the straight-line bound, sit exactly at their bounds at
    each n of ``ns``; a fabricated K_7 without crossings is flagged."""
    def check():
        for n in ns:
            drawings = [("straight", _con.gen_straight_extremal(n), True)]
            if n == 8 or n >= 10:
                drawings.append(("quad", _con.gen_quad_extremal(n), False))
            for family, d, straight in drawings:
                rep = _bounds.check_graph_against_bounds(d, 2, straight=straight)
                if rep.falsification:
                    return False, f"{family} n={n} flagged as falsification"
                if rep.verdict != "extremal":
                    return False, f"{family} n={n} verdict {rep.verdict}"
        k7 = Graph(7, tuple((u, v) for u in range(7) for v in range(u + 1, 7)))
        lying = AbstractDrawing(k7, CrossingRelation(), "external")
        if not _bounds.check_graph_against_bounds(lying, 2).falsification:
            return False, "a fabricated fan-free K_7 is not flagged"
        return True, (
            "no verified fan-free input exceeds a proven bound; "
            "a fabricated counterexample is flagged"
        )
    return [_claim("falsification guard: extremal inputs sit exactly at the bound", check)]


def run_battery(deep: bool = False) -> list[Claim]:
    """The full reproduction battery.  Deep mode adds the 8-gon and 9-gon
    searches at k = 2 (the 9-gon takes about 2.5 million search nodes), the
    exact maxima 14 of the 6-gon at k = 3 and 17 of the 5-gon at k = 4
    (about two million nodes each), and larger audit and oracle samples."""
    claims: list[Claim] = []
    claims += claim_star_maxima(STAR_SMALL + (STAR_DEEP if deep else ()))
    claims += claim_star_range((5, 6, 7) + ((8, 9) if deep else ()))
    claims += claim_base_cases()
    claims += claim_quad_family((8,) + tuple(range(10, 31)))
    claims += claim_straight_family(range(6, 31))
    claims += claim_k_families()
    claims += claim_audit(samples=50 if not deep else 200)
    claims += claim_bounds_table()
    claims += claim_oracle(samples=100 if not deep else 500)
    claims += claim_falsification_guard()
    return claims
