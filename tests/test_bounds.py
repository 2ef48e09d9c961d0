from fractions import Fraction

import pytest

from fanfree.bounds import (
    check_graph_against_bounds,
    exact_extremal_k2,
    nonexistence_argument,
    upper_bound,
)
from fanfree.constructions import gen_quad_extremal
from fanfree.model import AbstractDrawing, CrossingRelation, Graph


def complete_graph(n):
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def test_upper_bound_examples():
    assert upper_bound(10, 2) == 32
    assert upper_bound(6, 2, straight=True) == 15
    assert upper_bound(10, 3) == 48


def test_upper_bound_domain():
    with pytest.raises(ValueError):
        upper_bound(2, 2)
    with pytest.raises(ValueError):
        upper_bound(5, 1)


def test_straight_bound_is_one_less():
    for n in range(3, 101):
        assert upper_bound(n, 2, straight=True) == upper_bound(n, 2) - 1


def test_exact_extremal_values():
    assert exact_extremal_k2(7)[0] == 19
    assert exact_extremal_k2(9)[0] == 27
    assert exact_extremal_k2(5)[0] == 10
    assert exact_extremal_k2(6)[0] == 15
    assert exact_extremal_k2(8)[0] == 24
    assert exact_extremal_k2(12)[0] == 40
    with pytest.raises(ValueError, match="defined for n >= 3, got 2"):
        exact_extremal_k2(2)


def test_exact_extremal_reasons():
    assert "degree-2" in exact_extremal_k2(7)[1]
    assert "6k = 20" in exact_extremal_k2(9)[1]


def test_exact_vs_bound_enumeration():
    for n in range(3, 101):
        exact, _ = exact_extremal_k2(n)
        bound = upper_bound(n, 2)
        assert exact <= bound
        assert (exact == bound) == (n == 8 or n >= 10)


def test_nonexistence_n7():
    facts = nonexistence_argument(7)
    assert facts["quad_edges"] == 10
    assert facts["avg_degree"] == Fraction(20, 7)
    assert facts["avg_below_3"] and facts["degree2_forced"]


def test_nonexistence_n9():
    facts = nonexistence_argument(9)
    assert facts["total_degree"] == 28
    assert facts["degree_sequence_forced"]
    assert facts["integer_solutions"] == []
    assert facts["contradiction"]


def test_nonexistence_rejects_other_n():
    with pytest.raises(ValueError):
        nonexistence_argument(8)


def test_check_quad_extremal_is_extremal():
    rep = check_graph_against_bounds(gen_quad_extremal(12), 2)
    assert rep.verdict == "extremal"
    assert not rep.falsification


def test_check_k7_cannot_be_fan_free():
    rep = check_graph_against_bounds(complete_graph(7), 2)
    assert rep.edges == 21
    assert rep.verdict == "cannot-be-fan-crossing-free"


def test_check_empty_graph_below_bound():
    rep = check_graph_against_bounds(Graph(5), 2)
    assert rep.verdict == "below-bound"


def test_falsification_flag_on_lying_input():
    # a drawing that claims K7 has no crossings at all would pass the fan
    # check and exceed the proven limit: exactly what the guard must flag
    lying = AbstractDrawing(complete_graph(7), CrossingRelation(), "external")
    rep = check_graph_against_bounds(lying, 2)
    assert rep.falsification
    assert rep.verdict == "falsification"


def test_generator_outputs_within_bounds():
    from fanfree.constructions import gen_grid, gen_kq_subdivision

    for k in (3, 4):
        d = gen_grid(6, k)
        assert len(d.graph.edges) <= upper_bound(d.graph.n, k)
    d = gen_kq_subdivision(6)
    assert len(d.graph.edges) <= upper_bound(d.graph.n, 2)
