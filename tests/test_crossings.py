import random
from fractions import Fraction

import pytest

from fanfree.crossings import (
    SimplicityError,
    compute_crossings,
    find_k_fans,
    is_k_fan_free,
    validate_simplicity,
)
from fanfree.model import Graph, StraightLineDrawing
from fanfree.repro import naive_fan_oracle, random_drawing

from conftest import F


def test_disjoint_segments_do_not_cross():
    d = StraightLineDrawing(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(1, 0), F(0, 2), F(1, 2))
    )
    assert compute_crossings(d).pairs == frozenset()


def test_x_configuration_crosses():
    d = StraightLineDrawing(
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
    d = StraightLineDrawing(
        Graph(3, ((0, 1),)), (F(0, 0), F(4, 0), F(2, 0))
    )
    rep = validate_simplicity(d)
    assert not rep.ok
    assert ("vertex-on-edge", (2, 0)) in rep.violations


def test_adjacent_overlap_violation():
    d = StraightLineDrawing(
        Graph(3, ((0, 1), (0, 2))), (F(0, 0), F(2, 0), F(4, 0))
    )
    rep = validate_simplicity(d)
    assert not rep.ok
    assert any(kind == "adjacent-overlap" for kind, _ in rep.violations)


def test_adjacent_collinear_opposite_directions_ok():
    d = StraightLineDrawing(
        Graph(3, ((0, 1), (1, 2))), (F(0, 0), F(2, 0), F(4, 0))
    )
    assert validate_simplicity(d).ok


def test_coincident_vertices_violation():
    d = StraightLineDrawing(Graph(2, ()), (F(1, 1), F(1, 1)))
    rep = validate_simplicity(d)
    assert ("coincident-vertices", (0, 1)) in rep.violations


def test_endpoint_touching_interior_is_an_error():
    # endpoint of edge 1 sits in the middle of edge 0
    d = StraightLineDrawing(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(4, 0), F(2, 0), F(2, 3))
    )
    with pytest.raises(SimplicityError):
        compute_crossings(d)
    assert not validate_simplicity(d).ok


def test_collinear_overlap_is_an_error():
    d = StraightLineDrawing(
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
        mapped = StraightLineDrawing(d.graph, coords)
        assert compute_crossings(mapped).pairs == base


def test_three_edges_through_one_point_allowed():
    # concurrent interior crossings are fine: pairwise crossings stay
    # well-defined, only endpoint contacts are simplicity errors
    d = StraightLineDrawing(
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
    return StraightLineDrawing(Graph(n, tuple(edges)), coords)


def test_sweep_matches_all_pairs_reference():
    rng = random.Random(20131107)
    outcomes = {"pairs": 0, "error": 0}
    for _ in range(400):
        d = coarse_drawing(rng)
        assert validate_simplicity(d).violations == reference_violations(d)
        want_pairs, want_bad = reference_crossings(d)
        if want_bad is None:
            assert compute_crossings(d).pairs == want_pairs
            outcomes["pairs"] += 1
        else:
            with pytest.raises(SimplicityError) as exc:
                compute_crossings(d)
            assert (exc.value.kind, exc.value.indices) == ("degenerate-contact", want_bad)
            outcomes["error"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_degenerate_contact_names_the_smallest_pair():
    # edges 1 and 2 touch at the far left, where the sweep starts; edges 0
    # and 3 touch at the far right; (0, 3) is the smaller pair
    coords = (F(10, 0), F(14, 0), F(0, 0), F(4, 0), F(2, 0), F(2, 3), F(12, 0), F(12, 3))
    d = StraightLineDrawing(Graph(8, ((0, 1), (2, 3), (4, 5), (6, 7))), coords)
    with pytest.raises(SimplicityError) as exc:
        compute_crossings(d)
    assert exc.value.indices == (0, 3)


def test_duplicate_edges_are_not_adjacent_overlap():
    d = StraightLineDrawing(
        Graph(3, ((0, 1), (1, 2), (0, 1))), (F(0, 0), F(2, 0), F(1, 3))
    )
    assert validate_simplicity(d).ok
    assert compute_crossings(d).pairs == frozenset()
