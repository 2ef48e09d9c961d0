import functools
import hashlib
import re
from math import gcd

import pytest

from fanfree import constructions
from fanfree.cli import main
from fanfree.constructions import (
    ConstructionError,
    gen_grid,
    gen_kq_subdivision,
    gen_quad_extremal,
    gen_straight_extremal,
    gen_tri_plus_dual,
    grid_stencil,
    is_bipartite,
    quad_extremal_parts,
)
from fanfree.crossings import (
    SimplicityError,
    compute_crossings,
    find_k_fans,
    is_k_fan_free,
)
from fanfree.model import FanWitness, dumps, validate_crossings, validate_graph


def test_quad_extremal_n8():
    d = gen_quad_extremal(8)
    assert len(d.graph.edges) == 24
    assert len(d.crossings.pairs) == 6


def test_quad_extremal_n12_edges():
    assert len(gen_quad_extremal(12).graph.edges) == 40


def test_quad_extremal_n11_verifies():
    d = gen_quad_extremal(11)
    assert len(d.graph.edges) == 36
    assert validate_graph(d.graph) is None
    assert validate_crossings(d.graph, d.crossings) is None
    assert is_k_fan_free(d, 2)


def test_quad_extremal_rejects_impossible_sizes():
    for n in (3, 4, 5, 6, 7, 9):
        with pytest.raises(ValueError):
            gen_quad_extremal(n)


def test_quad_extremal_skeleton_is_bipartite_quadrangulation():
    for n in (8, 10, 15, 24):
        q_edges, faces = quad_extremal_parts(n)
        assert len(q_edges) == 2 * n - 4
        assert len(faces) == n - 2
        assert all(len(set(f)) == 4 for f in faces)
        assert is_bipartite(n, q_edges)
    assert not is_bipartite(3, ((0, 1), (1, 2), (0, 2)))


def test_quad_extremal_crossings_are_exactly_one_per_face():
    d = gen_quad_extremal(14)
    assert len(d.crossings.pairs) == 12
    crossed = [e for pair in d.crossings.pairs for e in pair]
    assert len(crossed) == len(set(crossed))  # every edge crossed at most once


def test_straight_extremal_n6_is_complete():
    d = gen_straight_extremal(6)
    assert len(d.graph.edges) == 15
    assert {frozenset(e) for e in d.graph.edges} == {
        frozenset((u, v)) for u in range(6) for v in range(u + 1, 6)
    }


def test_straight_extremal_counts():
    assert len(gen_straight_extremal(9).graph.edges) == 27
    assert len(gen_straight_extremal(10).graph.edges) == 31


def test_straight_extremal_rejects_small_n():
    with pytest.raises(ValueError):
        gen_straight_extremal(5)


def test_straight_extremal_verified_range():
    for n in range(6, 19):
        d = gen_straight_extremal(n)
        assert len(d.graph.edges) == 4 * n - 9
        assert is_k_fan_free(d, 2)


def test_generators_are_deterministic():
    assert dumps(gen_quad_extremal(13)) == dumps(gen_quad_extremal(13))
    assert dumps(gen_straight_extremal(11)) == dumps(gen_straight_extremal(11))
    assert dumps(gen_kq_subdivision(6)) == dumps(gen_kq_subdivision(6))
    assert dumps(gen_grid(5, 4)) == dumps(gen_grid(5, 4))


# sha256 of dumps() per family, first 16 hex digits: the generators'
# points, edge order and crossing pairs, byte for byte
GENERATOR_DIGESTS = [
    (gen_quad_extremal, (8,), "a658ed1e30a8c9d9"),
    (gen_quad_extremal, (11,), "7e083f1b2d392644"),
    (gen_quad_extremal, (30,), "4e806cdf9b35e99b"),
    (gen_straight_extremal, (6,), "c480e59b632e9daf"),
    (gen_straight_extremal, (13,), "f867c8b6a4fead86"),
    (gen_straight_extremal, (41,), "97031006ee5159ba"),
    (gen_grid, (8, 5), "896b66d37d810cbe"),
    (gen_grid, (12, 5), "5ef0518c8d883406"),
    (gen_grid, (5, 7), "ea70c392c0ff5686"),
    (gen_tri_plus_dual, (3, 3), "62491f81e4164dad"),
    (gen_tri_plus_dual, (5, 6), "8ba07373ac4aa983"),
    (gen_tri_plus_dual, (7, 4), "7d3c08b1365f6d36"),
    (gen_kq_subdivision, (3,), "9766df838d0bd121"),
    (gen_kq_subdivision, (6,), "7922604b2a90eb84"),
    (gen_kq_subdivision, (12,), "e125020f11e8b9e1"),
]


def test_generator_outputs_are_pinned():
    got = [
        (gen.__name__, args, hashlib.sha256(dumps(gen(*args)).encode()).hexdigest()[:16])
        for gen, args, _ in GENERATOR_DIGESTS
    ]
    assert got == [(gen.__name__, args, want) for gen, args, want in GENERATOR_DIGESTS]


def test_grid_stencil_shortest_vectors():
    assert grid_stencil(2) == [(1, 0)]
    assert grid_stencil(3) == [(1, 0), (0, 1)]
    assert grid_stencil(4) == [(1, 0), (0, 1), (1, 1)]
    assert grid_stencil(5) == [(1, 0), (0, 1), (1, 1), (-1, 1)]
    assert grid_stencil(6) == [(1, 0), (0, 1), (1, 1), (-1, 1), (2, 1)]

    # every primitive vector of the upper half-plane with |dx|, dy <= 12,
    # by squared length and then ccw angle (cross product sign); the box
    # holds all vectors of length up to 12, and the 119th is shorter
    def by_length_then_angle(a, b):
        la, lb = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2
        if la != lb:
            return la - lb
        return b[0] * a[1] - a[0] * b[1]

    box = [
        (dx, dy)
        for dx in range(-12, 13)
        for dy in range(13)
        if (dy > 0 or dx > 0) and gcd(abs(dx), dy) == 1
    ]
    box.sort(key=functools.cmp_to_key(by_length_then_angle))
    assert box[118][0] ** 2 + box[118][1] ** 2 < 12 ** 2
    for k in range(2, 121):
        assert grid_stencil(k) == box[: k - 1], k


def test_grid_families_reject_small_sizes():
    for make, message in (
        (lambda: grid_stencil(1), "k must be >= 2, got 1"),
        (lambda: gen_grid(3, 3), "side must be >= 4, got 3"),
        (lambda: gen_tri_plus_dual(2, 5), "rows and cols must be >= 3"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_grid_k2_is_a_union_of_paths():
    d = gen_grid(6, 2)
    assert is_k_fan_free(d, 2)
    degree = [0] * d.graph.n
    for u, v in d.graph.edges:
        degree[u] += 1
        degree[v] += 1
    assert max(degree) <= 2


def test_grid_k_fan_free_at_its_k():
    for k in (3, 5):
        d = gen_grid(6, k)
        assert not find_k_fans(d.graph, compute_crossings(d), k)


def test_grid_k5_is_not_4_fan_free_everywhere_trivial():
    # k=5 grid has crossings, so the verification is not vacuous
    d = gen_grid(5, 5)
    assert compute_crossings(d).pairs


def test_kq_subdivision_counts():
    d = gen_kq_subdivision(5)
    assert d.graph.n == 25
    assert len(d.graph.edges) == 30
    assert is_k_fan_free(d, 2)


def test_kq_subdivision_k3_crossing_free():
    d = gen_kq_subdivision(3)
    assert d.graph.n == 9
    assert len(d.graph.edges) == 9
    assert compute_crossings(d).pairs == frozenset()


def test_kq_subdivision_q8_verified():
    d = gen_kq_subdivision(8)
    assert d.graph.n == 64
    assert len(d.graph.edges) == 84
    assert is_k_fan_free(d, 2)


def test_kq_subdivision_crossing_count_matches_convex_position():
    # hubs in convex position: middles cross once per interleaved chord pair
    from math import comb

    d = gen_kq_subdivision(5)
    assert len(compute_crossings(d).pairs) == comb(5, 4)


def test_kq_rejects_out_of_range():
    for q in (2, 13):
        with pytest.raises(ValueError):
            gen_kq_subdivision(q)


def test_tri_plus_dual_small():
    d = gen_tri_plus_dual(3, 3)
    assert is_k_fan_free(d, 4)
    assert not is_k_fan_free(d, 3)  # the dual edges really form 3-fans


def test_tri_plus_dual_edge_budget():
    d = gen_tri_plus_dual(6, 6)
    n = d.graph.n
    assert len(d.graph.edges) <= 6 * n - 12


SMALL_FAMILIES = (
    lambda: gen_quad_extremal(8),
    lambda: gen_straight_extremal(6),
    lambda: gen_grid(4, 3),
    lambda: gen_kq_subdivision(3),
    lambda: gen_tri_plus_dual(3, 3),
)


def test_a_fan_in_a_generated_drawing_is_a_construction_error(monkeypatch, capsys):
    """Every generator fan-checks its own output: a witness from the fan
    detector makes each of them raise, and makes ``gen`` exit 1."""
    monkeypatch.setattr(
        constructions, "find_k_fans", lambda g, c, k: [FanWitness(0, 0, (1, 2))]
    )
    for make in SMALL_FAMILIES:
        with pytest.raises(ConstructionError):
            make()
    assert main(["gen", "--family", "quad-extremal", "--n", "8"]) == 1
    assert "FALSIFICATION" in capsys.readouterr().err


def test_a_non_simple_generated_drawing_is_a_construction_error(monkeypatch):
    """Two vertices of the straight-line family put on one point: the
    drawing's SimplicityError surfaces as a ConstructionError."""
    parts = constructions._straight_parts

    def collapsed(n):
        coords, edges, quads = parts(n)
        coords[3] = coords[0]
        return coords, edges, quads

    monkeypatch.setattr(constructions, "_straight_parts", collapsed)
    with pytest.raises(ConstructionError) as exc:
        gen_straight_extremal(6)
    assert isinstance(exc.value.__cause__, SimplicityError)
