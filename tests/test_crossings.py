import random
from collections import Counter
from fractions import Fraction

import pytest

from fanfree.crossings import (
    SWEEP_MIN_EDGES,
    SimplicityError,
    compute_crossings,
    find_k_fans,
    is_k_fan_free,
    plane_sweep,
    validate_simplicity,
)
from fanfree.model import FanWitness, Graph, StraightLineDrawing, crossing_lists
from fanfree.repro import naive_fan_oracle, random_drawing

from conftest import F, big_affine, random_star


def test_disjoint_segments_do_not_cross():
    d = StraightLineDrawing.from_coords(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(1, 0), F(0, 2), F(1, 2))
    )
    assert compute_crossings(d).pairs == frozenset()


def test_x_configuration_crosses():
    d = StraightLineDrawing.from_coords(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(2, 2), F(0, 2), F(2, 0))
    )
    assert compute_crossings(d).pairs == frozenset({(0, 1)})


def test_fan_fixture_crossings(fan_fixture):
    # va and vb each cross cd; va and vb share v and never cross
    assert compute_crossings(fan_fixture).pairs == frozenset({(0, 2), (1, 2)})


def test_fan_fixture_witness(fan_fixture):
    c = compute_crossings(fan_fixture)
    fans = find_k_fans(fan_fixture.graph, c, 2)
    assert len(fans) == 1
    w = fans[0]
    assert (w.crosser, w.apex, w.fan) == (2, 0, (0, 1))
    assert find_k_fans(fan_fixture.graph, c, 3) == []
    assert not is_k_fan_free(fan_fixture, 2)
    assert is_k_fan_free(fan_fixture, 3)


def test_crossing_free_drawing_is_fan_free_for_all_k(triangle):
    for k in (2, 3, 4):
        assert is_k_fan_free(triangle, k)


def test_k6_extremal_layout_is_fan_crossing_free():
    from fanfree.constructions import gen_straight_extremal

    assert is_k_fan_free(gen_straight_extremal(6), 2)


def test_k_below_two_rejected(fan_fixture):
    with pytest.raises(ValueError):
        find_k_fans(fan_fixture.graph, compute_crossings(fan_fixture), 1)


def test_vertex_on_edge_violation():
    d = StraightLineDrawing.from_coords(
        Graph(3, ((0, 1),)), (F(0, 0), F(4, 0), F(2, 0))
    )
    rep = validate_simplicity(d)
    assert not rep.ok
    assert ("vertex-on-edge", (2, 0)) in rep.violations


def test_adjacent_overlap_violation():
    d = StraightLineDrawing.from_coords(
        Graph(3, ((0, 1), (0, 2))), (F(0, 0), F(2, 0), F(4, 0))
    )
    rep = validate_simplicity(d)
    assert not rep.ok
    assert any(kind == "adjacent-overlap" for kind, _ in rep.violations)


def test_adjacent_collinear_opposite_directions_ok():
    d = StraightLineDrawing.from_coords(
        Graph(3, ((0, 1), (1, 2))), (F(0, 0), F(2, 0), F(4, 0))
    )
    assert validate_simplicity(d).ok


def test_coincident_vertices_violation():
    d = StraightLineDrawing.from_coords(Graph(2, ()), (F(1, 1), F(1, 1)))
    rep = validate_simplicity(d)
    assert ("coincident-vertices", (0, 1)) in rep.violations


def test_endpoint_touching_interior_is_an_error():
    # endpoint of edge 1 sits in the middle of edge 0
    d = StraightLineDrawing.from_coords(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(4, 0), F(2, 0), F(2, 3))
    )
    with pytest.raises(SimplicityError):
        compute_crossings(d)
    assert not validate_simplicity(d).ok


def test_collinear_overlap_is_an_error():
    d = StraightLineDrawing.from_coords(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(4, 0), F(1, 0), F(5, 0))
    )
    with pytest.raises(SimplicityError):
        compute_crossings(d)


def test_generated_extremal_drawings_are_simple():
    from fanfree.constructions import gen_straight_extremal

    for n in (6, 7, 8, 11):
        assert validate_simplicity(gen_straight_extremal(n)).ok


def test_oracle_equivalence_random_drawings():
    rng = random.Random(424241)
    for _ in range(60):
        d = random_drawing(rng)
        c = compute_crossings(d)
        for k in (2, 3, 4):
            fast = {(w.crosser, w.apex) for w in find_k_fans(d.graph, c, k)}
            assert fast == naive_fan_oracle(d.graph, c, k)


def _bucket_fans(g, c, k):
    """The fan detector as it once was: per crosser, in crosser order, a
    bucket per apex of the crossed edges there, in edge order."""
    witnesses = []
    for crosser, crossed in sorted(crossing_lists(c.pairs).items()):
        buckets = {}
        for e in crossed:
            for v in g.edges[e]:
                buckets.setdefault(v, []).append(e)
        for apex in sorted(buckets):
            fan = buckets[apex]
            if len(fan) >= k:
                witnesses.append(FanWitness(crosser, apex, tuple(sorted(fan)[:k])))
    return witnesses


def test_find_k_fans_lists_the_bucket_witnesses_in_order():
    """The whole witness list, in order and with each fan, equals the bucket
    detector's on seeded random drawings, on seeded stars, on the generated
    families, on dense small drawings and on one edge crossing five edges
    at one apex, for k = 2..4."""
    from fanfree.constructions import (
        gen_grid,
        gen_kq_subdivision,
        gen_straight_extremal,
        gen_tri_plus_dual,
    )
    from fanfree.star import star_drawing

    rng = random.Random(424242)
    drawings = [random_drawing(rng, max_edges=rng.choice((20, 40))) for _ in range(80)]
    drawings += [star_drawing(random_star(rng, m, rng.randint(2, 4), attempts=40))
                 for m in range(3, 10) for _ in range(6)]
    drawings += [gen_straight_extremal(20), gen_kq_subdivision(6), gen_tri_plus_dual(4, 5)]
    drawings += [gen_grid(5, k) for k in range(3, 8)]
    # dense drawings like the benchmark's small checks: 20 edges among at
    # most 12 points of the grid [-4, 4]^2
    grid = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    dense = []
    while len(dense) < 6:
        n = rng.randint(8, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        d = StraightLineDrawing(Graph(n, tuple(rng.sample(pairs, 20))), tuple(rng.sample(grid, n)))
        if validate_simplicity(d).ok:
            dense.append(d)
    # edge (6, 7) crosses the five spokes at apex 0, placed at each position
    # of the edge order: the bucket of (crosser, 0) grows past k for
    # k = 2..4 and holds exactly k at k = 5
    spokes = [(0, v) for v in range(1, 6)]
    pts = ((0, 10), (-4, 0), (-2, 0), (0, 0), (2, 0), (4, 0), (-10, 5), (10, 5))
    spread = []
    for pos in range(6):
        rng.shuffle(spokes)
        edges = (*spokes[:pos], (6, 7), *spokes[pos:])
        spread.append(StraightLineDrawing(Graph(8, edges), pts))
    for d in spread:
        crosser = d.graph.edges.index((6, 7))
        lowest = tuple(e for e in range(6) if e != crosser)
        for k in (2, 3, 4, 5):
            assert find_k_fans(d.graph, d.crossings, k) == [FanWitness(crosser, 0, lowest[:k])]
        assert find_k_fans(d.graph, d.crossings, 6) == []
    drawings += dense + spread
    found = Counter()
    for d in drawings:
        for k in (2, 3, 4):
            fans = find_k_fans(d.graph, d.crossings, k)
            assert fans == _bucket_fans(d.graph, d.crossings, k)
            found[k] += len(fans)
    assert min(found.values()) > 0


def test_adjacent_edges_never_in_relation():
    rng = random.Random(99)
    for _ in range(40):
        d = random_drawing(rng)
        c = compute_crossings(d)
        for i, j in c.pairs:
            assert not set(d.graph.edges[i]) & set(d.graph.edges[j])


def test_affine_invariance():
    rng = random.Random(5150)
    for _ in range(25):
        d = random_drawing(rng)
        base = compute_crossings(d).pairs
        while True:
            a, b, c_, e = (rng.randint(-3, 3) for _ in range(4))
            if a * e - b * c_ > 0:
                break
        f, g_ = rng.randint(-20, 20), rng.randint(-20, 20)
        coords = tuple(
            (a * x + b * y + f, c_ * x + e * y + g_) for x, y in d.coords
        )
        mapped = StraightLineDrawing.from_coords(d.graph, coords)
        assert compute_crossings(mapped).pairs == base


def test_three_edges_through_one_point_allowed():
    # concurrent interior crossings are fine: pairwise crossings stay
    # well-defined, only endpoint contacts are simplicity errors
    d = StraightLineDrawing.from_coords(
        Graph(6, ((0, 1), (2, 3), (4, 5))),
        (F(-2, 0), F(2, 0), F(0, -2), F(0, 2), F(-2, -2), F(2, 2)),
    )
    assert compute_crossings(d).pairs == frozenset({(0, 1), (0, 2), (1, 2)})


def test_each_pair_crosses_at_most_once():
    # segments can only meet once; the relation is a set, so re-deriving it
    # must be stable
    rng = random.Random(31337)
    d = random_drawing(rng)
    assert compute_crossings(d).pairs == compute_crossings(d).pairs


# Equivalence with the all-pairs algorithm the sweep replaced, kept here as a
# reference and run directly on the Fraction coordinates.


def _ref_sign(x) -> int:
    return (x > 0) - (x < 0)


def _ref_orient(a, b, c) -> int:
    return _ref_sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _ref_dot(p, a, b) -> int:
    return _ref_sign((a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1]))


def _ref_between(p, a, b) -> bool:
    return _ref_orient(a, b, p) == 0 and _ref_dot(p, a, b) < 0


def reference_violations(d):
    pts, edges = d.coords, d.graph.edges
    out = []
    seen = {}
    for v, p in enumerate(pts):
        if p in seen:
            out.append(("coincident-vertices", (seen[p], v)))
        else:
            seen[p] = v
    for i, (u, v) in enumerate(edges):
        for w in range(len(pts)):
            if w not in (u, v) and _ref_between(pts[w], pts[u], pts[v]):
                out.append(("vertex-on-edge", (w, i)))
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            shared = set(edges[i]) & set(edges[j])
            if len(shared) != 1:
                continue
            (s,) = shared
            o1 = pts[sum(edges[i]) - s]
            o2 = pts[sum(edges[j]) - s]
            if _ref_orient(pts[s], o1, o2) == 0 and _ref_dot(pts[s], o1, o2) > 0:
                out.append(("adjacent-overlap", (i, j)))
    return tuple(sorted(out))


def reference_crossings(d):
    """Crossing pairs, or the first degenerate pair in (i, j) order."""
    pts, edges = d.coords, d.graph.edges
    pairs = set()
    for i, (u1, v1) in enumerate(edges):
        a, b = pts[u1], pts[v1]
        for j in range(i + 1, len(edges)):
            u2, v2 = edges[j]
            if {u1, v1} & {u2, v2}:
                continue
            c, e = pts[u2], pts[v2]
            if (max(c[0], e[0]) < min(a[0], b[0]) or min(c[0], e[0]) > max(a[0], b[0])
                    or max(c[1], e[1]) < min(a[1], b[1])
                    or min(c[1], e[1]) > max(a[1], b[1])):
                continue
            o1, o2 = _ref_orient(a, b, c), _ref_orient(a, b, e)
            o3, o4 = _ref_orient(c, e, a), _ref_orient(c, e, b)
            if o1 * o2 < 0 and o3 * o4 < 0:
                pairs.add((i, j))
                continue
            if (
                (o1 == 0 and _ref_between(c, a, b))
                or (o2 == 0 and _ref_between(e, a, b))
                or (o3 == 0 and _ref_between(a, c, e))
                or (o4 == 0 and _ref_between(b, c, e))
                or (o1 == 0 and o2 == 0 and (a, b) in ((c, e), (e, c)))
            ):
                return None, (i, j)
    return frozenset(pairs), None


def coarse_drawing(rng: random.Random) -> StraightLineDrawing:
    """Few grid points with denominators 1-3, so collinear and coincident
    vertices are common, plus a duplicate edge or a self-loop now and then."""
    n = rng.randint(3, 10)
    reach = rng.randint(2, 5)
    coords = tuple(
        (Fraction(rng.randint(-reach, reach), rng.randint(1, 3)),
         Fraction(rng.randint(-reach, reach), rng.randint(1, 3)))
        for _ in range(n)
    )
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(all_pairs, rng.randint(1, min(14, len(all_pairs))))
    if rng.random() < 0.3:
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
    if rng.random() < 0.2:
        v = rng.randrange(n)
        edges.insert(rng.randrange(len(edges) + 1), (v, v))
    return StraightLineDrawing.from_coords(Graph(n, tuple(edges)), coords)


def test_sweep_matches_all_pairs_reference():
    rng = random.Random(20131107)
    outcomes = {"pairs": 0, "error": 0}
    for _ in range(400):
        d = coarse_drawing(rng)
        if assert_matches_reference(d) is None:
            outcomes["error"] += 1
        else:
            outcomes["pairs"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def raised(read):
    """Kind, indices and message of the SimplicityError that ``read()`` raises."""
    with pytest.raises(SimplicityError) as exc:
        read()
    return exc.value.kind, exc.value.indices, str(exc.value)


def test_non_simple_drawing_raises_its_first_violation():
    # vertex 4 lies inside edge 1, at the far left, where the sweep starts;
    # vertex 6 lies inside edge 0, at the far right; the report lists both
    # and compute_crossings raises the first
    coords = (F(10, 0), F(14, 0), F(0, 0), F(4, 0), F(2, 0), F(2, 3), F(12, 0), F(12, 3))
    d = StraightLineDrawing.from_coords(Graph(8, ((0, 1), (2, 3), (4, 5), (6, 7))), coords)
    assert validate_simplicity(d).violations == (
        ("vertex-on-edge", (4, 1)), ("vertex-on-edge", (6, 0)))
    assert raised(lambda: compute_crossings(d))[:2] == ("vertex-on-edge", (4, 1))


def test_compute_crossings_raises_what_d_crossings_raises():
    # faults only at vertices: an isolated vertex inside edge 0 (edges 1 and
    # 2 cross), and two vertices on one point whose edges meet only there
    drawings = {
        ("vertex-on-edge", (2, 0)): (
            Graph(7, ((0, 1), (3, 4), (5, 6))),
            (F(0, 0), F(4, 0), F(2, 0), F(0, 2), F(4, 6), F(0, 6), F(4, 2)),
        ),
        ("coincident-vertices", (0, 2)): (
            Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(2, 0), F(0, 0), F(0, 2))
        ),
    }
    for first, (g, coords) in drawings.items():
        want = raised(lambda: StraightLineDrawing.from_coords(g, coords).crossings)
        assert want == first + (f"drawing is not simple: {first}",)
        d = StraightLineDrawing.from_coords(g, coords)
        assert raised(lambda: compute_crossings(d)) == want
        assert raised(lambda: d.crossings) == want


def test_simplicity_report_is_kept_on_the_drawing():
    d = StraightLineDrawing.from_coords(
        Graph(3, ((0, 1),)), (F(0, 0), F(4, 0), F(2, 0))
    )
    assert validate_simplicity(d) is validate_simplicity(d) is d._decision[0]
    assert d._decision[1] is None


def test_check_then_audit_validates_a_drawing_once(monkeypatch):
    # the path of ``fanfree check`` then ``fanfree audit`` on a fan-free
    # drawing below the sweep threshold decides it once, and every step
    # reads the one relation the drawing keeps
    import fanfree.crossings as cr
    from fanfree.constructions import gen_straight_extremal
    from fanfree.decompose import audit

    g = gen_straight_extremal(8)
    d = StraightLineDrawing.from_coords(g.graph, g.coords)
    assert len(d.graph.edges) < SWEEP_MIN_EDGES
    calls = []
    real = cr._decide
    monkeypatch.setattr(cr, "_decide", lambda d: calls.append(d) or real(d))
    assert validate_simplicity(d).ok
    rel = compute_crossings(d)
    assert not find_k_fans(d.graph, rel, 2)
    assert audit(d, 2).ok
    assert compute_crossings(d) is rel is d.crossings
    assert len(calls) == 1 and calls[0] is d


def test_duplicate_edges_are_not_adjacent_overlap():
    d = StraightLineDrawing.from_coords(
        Graph(3, ((0, 1), (1, 2), (0, 1))), (F(0, 0), F(2, 0), F(1, 3))
    )
    assert validate_simplicity(d).ok
    assert compute_crossings(d).pairs == frozenset()


def assert_matches_reference(d):
    """validate_simplicity, compute_crossings and d.crossings against the
    all-pairs references above.  A drawing with a reference violation makes
    compute_crossings and d.crossings raise the first one; any other drawing
    gets the reference pairs from both, and the reference finds no
    degenerate contact in it.  Returns the pairs, or None for a drawing that
    is not simple."""
    violations = reference_violations(d)
    assert validate_simplicity(d).violations == violations
    if violations:
        want = raised(lambda: compute_crossings(d))
        assert want[:2] == violations[0]
        assert raised(lambda: d.crossings) == want
        return None
    want_pairs, want_bad = reference_crossings(d)
    assert want_bad is None
    assert compute_crossings(d).pairs == d.crossings.pairs == want_pairs
    return want_pairs


def test_straight_family_with_multi_limb_coordinates_matches_reference():
    from fanfree.constructions import gen_straight_extremal

    mapped = big_affine(gen_straight_extremal(30))
    assert min(abs(c).bit_length() for p in mapped.points for c in p) > 90
    pairs = assert_sweep_matches_reference(mapped)
    assert len(pairs) == 4 * 30 - 9 - (3 * 30 - 6)  # one per quadrilateral face


def test_grid_with_collinear_non_contacts_matches_reference():
    from fanfree.constructions import gen_grid

    d = gen_grid(8, 5)
    # many edges on one grid line that only touch end to end, and many
    # collinear edges whose boxes meet without a contact
    assert assert_matches_reference(d)


def many_denominators_drawing(rng: random.Random) -> StraightLineDrawing:
    """Vertices with distinct denominators (so the common one is large), and
    some placed exactly on a segment between two others, on its line beyond
    them, or on another vertex, so that every kind of violation and contact
    still occurs."""
    n = rng.randint(5, 12)
    coords = []
    for v in range(n):
        if v >= 2 and rng.random() < 0.4:
            (ax, ay), (bx, by) = rng.sample(coords, 2)
            t = rng.choice((Fraction(rng.randint(1, 6), 7), Fraction(rng.randint(8, 20), 7), 0))
            coords.append((ax + t * (bx - ax), ay + t * (by - ay)))
        else:
            coords.append(tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 97))
                                for _ in range(2)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(all_pairs, rng.randint(1, min(18, len(all_pairs))))
    return StraightLineDrawing.from_coords(Graph(n, tuple(edges)), tuple(coords))


def test_many_denominators_match_reference():
    from math import lcm

    rng = random.Random(1311)
    outcomes = {"pairs": 0, "crossing": 0, "non-simple": 0}
    big_lcm = 0
    for _ in range(300):
        d = many_denominators_drawing(rng)
        big_lcm = max(big_lcm, lcm(*(c.denominator for p in d.coords for c in p)))
        pairs = assert_matches_reference(d)
        if pairs is None:
            outcomes["non-simple"] += 1
        else:
            outcomes["pairs"] += 1
            outcomes["crossing"] += bool(pairs)
    assert min(outcomes.values()) >= 30, outcomes
    assert big_lcm.bit_length() > 60


# Drawings with SWEEP_MIN_EDGES edges or more: the plane sweep decides them,
# and must give the relation of the all-pairs reference, or stop so that the
# box sweeps give the report, whose first violation compute_crossings raises.


def assert_sweep_matches_reference(d):
    """assert_matches_reference for a drawing the plane sweep runs on, plus
    the sweep's own answer: the reference relation, or None exactly when the
    drawing is not simple or has a self-loop or a duplicate edge."""
    edges = d.graph.edges
    assert len(edges) >= SWEEP_MIN_EDGES
    pairs = assert_matches_reference(d)
    clean = len(set(edges)) == len(edges) and all(u != v for u, v in edges)
    if pairs is None or not validate_simplicity(d).ok or not clean:
        assert plane_sweep(d) is None
    else:
        assert plane_sweep(d).pairs == pairs
    return pairs


def test_families_above_the_sweep_threshold_match_reference():
    from fanfree.constructions import (
        gen_grid,
        gen_kq_subdivision,
        gen_straight_extremal,
        gen_tri_plus_dual,
    )

    drawings = [gen_straight_extremal(n) for n in (19, 20, 21, 60)]
    drawings += [gen_grid({3: 7, 4: 6}.get(k, 5), k) for k in range(3, 10)]
    drawings += [gen_tri_plus_dual(5, 6), gen_kq_subdivision(8)]
    for d in drawings:
        assert assert_sweep_matches_reference(d) is not None


PENCIL_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2), (3, -1))


def pencil_drawing(rng: random.Random):
    """At least SWEEP_MIN_EDGES segments: pencils of three to six segments
    through one centre (so three or more cross at one point), with vertical
    and horizontal ones among them and a vertex straight above or below each
    centre, then edges between random vertices, old and new.
    Returns the drawing and the edge indices of each pencil."""
    coords, edges, pencils = [], [], []

    def segment(p, q):
        coords.extend((p, q))
        edges.append((len(coords) - 2, len(coords) - 1))
        return len(edges) - 1

    def point(reach):
        return (rng.randint(-reach, reach), rng.randint(-reach, reach))

    for _ in range(rng.randint(1, 6)):
        cx, cy = point(500)
        pencil = []
        for dx, dy in rng.sample(PENCIL_DIRECTIONS, rng.randint(3, 6)):
            s, t = rng.randint(1, 90), rng.randint(1, 90)
            pencil.append(segment((cx - s * dx, cy - s * dy), (cx + t * dx, cy + t * dy)))
        pencils.append(pencil)
        dx, dy = point(400)
        segment((cx, cy + rng.choice((-1, 1)) * rng.randint(1, 400)), (cx + dx, cy + dy))
    coords += [point(900) for _ in range(30)]
    while len(edges) < SWEEP_MIN_EDGES:
        u, v = sorted(rng.sample(range(len(coords)), 2))
        if (u, v) not in edges:
            edges.append((u, v))
    d = StraightLineDrawing.from_coords(Graph(len(coords), tuple(edges)), tuple(map(tuple, coords)))
    return d, pencils


def test_pencils_of_concurrent_crossings_match_reference():
    rng = random.Random(19790901)
    outcomes = {"simple": 0, "not simple": 0, "multi-limb": 0}
    for trial in range(16):
        d, pencils = pencil_drawing(rng)
        if trial % 4 == 0:
            d = big_affine(d)
            outcomes["multi-limb"] += 1
        pairs = assert_sweep_matches_reference(d)
        if plane_sweep(d) is None:
            outcomes["not simple"] += 1
            continue
        outcomes["simple"] += 1
        for pencil in pencils:  # every pencil is one concurrent crossing
            assert {(i, j) for i in pencil for j in pencil if i < j} <= pairs
    assert min(outcomes.values()) >= 4, outcomes


def test_non_simple_drawings_above_the_threshold_keep_report_and_pair():
    from fanfree.constructions import gen_straight_extremal

    d = gen_straight_extremal(30)
    n, edges, coords = d.graph.n, d.graph.edges, list(d.coords)
    (ax, ay), (bx, by) = coords[edges[0][0]], coords[edges[0][1]]
    far = (Fraction(10**6), Fraction(-(10**6)))
    variants = [
        # a new vertex on the first edge's interior, joined far away
        (n + 2, edges + ((n, n + 1),), coords + [((ax + bx) / 2, (ay + by) / 2), far]),
        # two vertices on one point
        (n, edges, coords[:-1] + [coords[0]]),
        # an edge along the first one, from its end beyond its midpoint
        (n + 1, edges + ((edges[0][0], n),), coords + [((ax + 3 * bx) / 4, (ay + 3 * by) / 4)]),
    ]
    # three more that the sweep gives up on before it starts: a copy of the
    # first edge and a self-loop, both simple to the box path, and an edge
    # that leaves the first edge's smaller (x, y) end the same way it does,
    # to a new vertex 3/4 of the way along it
    s, t = sorted(edges[0], key=coords.__getitem__)
    (sx, sy), (tx, ty) = coords[s], coords[t]
    variants += [
        (n, edges + (edges[0],), coords),
        (n, edges + ((0, 0),), coords),
        (n + 1, edges + ((s, n),), coords + [((sx + 3 * tx) / 4, (sy + 3 * ty) / 4)]),
    ]
    for n2, edges2, coords2 in variants:
        bad = StraightLineDrawing.from_coords(Graph(n2, tuple(edges2)), tuple(coords2))
        assert_sweep_matches_reference(bad)
        # the box path calls a drawing simple exactly when a copy or a loop
        # is all that is wrong with it
        copy_or_loop = len(set(edges2)) < len(edges2) or (0, 0) in edges2
        assert validate_simplicity(bad).ok == copy_or_loop and plane_sweep(bad) is None


def test_one_plane_sweep_per_drawing_and_none_below_the_threshold(monkeypatch):
    import fanfree.crossings as cr
    from fanfree.constructions import gen_straight_extremal

    d = gen_straight_extremal(30)
    calls = []
    real = cr.plane_sweep
    monkeypatch.setattr(cr, "plane_sweep", lambda d: calls.append(d) or real(d))
    large = StraightLineDrawing.from_coords(d.graph, d.coords)
    assert len(large.graph.edges) >= SWEEP_MIN_EDGES
    assert validate_simplicity(large).ok
    assert compute_crossings(large) == large.crossings == d.crossings
    assert len(calls) == 1 and calls[0] is large
    calls.clear()
    small = gen_straight_extremal(18)
    assert len(small.graph.edges) < SWEEP_MIN_EDGES
    assert validate_simplicity(small).ok and compute_crossings(small) == small.crossings
    assert calls == []
