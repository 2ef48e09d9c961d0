import json
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from fanfree.model import (
    AbstractDrawing,
    CrossingRelation,
    Graph,
    InputError,
    StraightLineDrawing,
    dumps,
    from_json_dict,
    to_json_dict,
    validate_crossings,
    validate_graph,
)
from fanfree.star import StarConfig


def test_triangle_is_valid():
    assert validate_graph(Graph(3, ((0, 1), (1, 2), (0, 2)))) is None


def test_duplicate_edge_rejected():
    msg = validate_graph(Graph(2, ((0, 1), (0, 1))))
    assert msg is not None and "duplicate" in msg


def test_duplicate_detected_after_canonicalization():
    msg = validate_graph(Graph(2, ((0, 1), (1, 0))))
    assert msg is not None and "duplicate" in msg


def test_self_loop_rejected():
    msg = validate_graph(Graph(4, ((3, 3),)))
    assert msg is not None and "self-loop" in msg


def test_out_of_range_rejected():
    # rejected on construction: -1 would otherwise index vertex 2
    for edges in (((0, 5),), ((-1, 2),)):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, edges)
    # a point table of the wrong length or width, and a den below 1
    for make, message in (
        (lambda: StraightLineDrawing(Graph(2), ((0, 0),)), "1 coordinate pairs for 2 vertices"),
        (lambda: StraightLineDrawing(Graph(1), ((0, 0, 0),)), "every point must be a pair (X, Y)"),
        (lambda: StraightLineDrawing(Graph(1), ((0, 0),), 0), "den must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make()


def test_entries_that_are_not_ints_raise_type_error():
    # no value is converted with int(): a float, a bool or a string is named
    # in the error, not rounded, truncated or parsed into a vertex or a count
    from fanfree.star import StarConfig

    for make, message in (
        (lambda: Graph(3, ((0, 1.7),)), "edge 0 = (0, 1.7)"),
        (lambda: Graph(3, ((0, 1), (True, 2))), "edge 1 = (True, 2)"),
        (lambda: Graph(3, ((0, "1"),)), "edge 0 = (0, '1')"),
        (lambda: CrossingRelation(frozenset({(0.9, 2.2)})), "crossing pair (0.9, 2.2)"),
        (lambda: CrossingRelation([[0, 1], [1, False]]), "crossing pair (1, False)"),
        (lambda: StarConfig(4, ((0, 2.9, 0),)), "arrow 0 = (0, 2.9, 0)"),
        (lambda: Graph(3.5, ((0, 3),)), "n = 3.5"),
        (lambda: Graph(True, ()), "n = True"),
        (lambda: StarConfig(4.0, ((0, 2, 0),)), "m = 4.0"),
        # a row of the wrong width, or no row at all, is named too
        (lambda: Graph(3, ((0, 1, 2),)), "edge 0 = (0, 1, 2)"),
        (lambda: CrossingRelation([[0, 1, 2]]), "crossing pair (0, 1, 2)"),
        (lambda: StarConfig(4, ((0, 2),)), "arrow 0 = (0, 2)"),
        (lambda: Graph(3, (5,)), "edge 0 = 5"),
        # an iterator is read once, so its bad row is still named
        (lambda: Graph(3, iter([(0, 1.5)])), "edge 0 = (0, 1.5)"),
        (lambda: StarConfig(4, iter([(0, 2, 0), (0, 2.5, 0)])), "arrow 1 = (0, 2.5, 0)"),
        # and so is each row: a bad iterator row is named with its entries
        (lambda: Graph(3, [iter((0, 1.5)), 5]), "edge 0 = (0, 1.5)"),
    ):
        with pytest.raises(TypeError, match=re.escape(message)):
            make()
    # lists still become canonical tuples
    assert Graph(3, [[1, 0]]).edges == ((0, 1),)
    assert CrossingRelation([[2, 1]]).pairs == {(1, 2)}
    assert StarConfig(4, [[0, 2, 0]]).arrows == ((0, 2, 0),)
    # and a generator loses no row
    assert Graph(3, (e for e in [(0, 1), (1, 2)])).edges == ((0, 1), (1, 2))
    assert CrossingRelation(p for p in [(0, 1)]).pairs == {(0, 1)}
    assert StarConfig(4, (a for a in [(0, 2, 0)])).arrows == ((0, 2, 0),)
    # and an iterator row loses no entry
    assert Graph(3, [iter((0, 1))]).edges == ((0, 1),)
    assert CrossingRelation([iter((0, 1))]).pairs == {(0, 1)}


def test_scalar_arguments_that_are_not_ints_raise_type_error():
    # a float k or m is not rounded into an answer: find_k_fans at k = 2.5
    # found no fan on a drawing with a 2-fan, max_arrows(5, 2.5) returned 62
    # and upper_bound(10.5, 2) and exact_extremal_k2(10.5) returned 34.0
    from fanfree.bounds import exact_extremal_k2, upper_bound
    from fanfree.crossings import find_k_fans
    from fanfree.star import max_arrows

    g = Graph(5, ((0, 1), (2, 3), (2, 4)))
    c = CrossingRelation([(0, 1), (0, 2)])
    assert find_k_fans(g, c, 2)  # edge 0 crosses two edges at vertex 2
    for make, message in (
        (lambda: find_k_fans(g, c, 2.5), "k = 2.5 must be an int"),
        (lambda: find_k_fans(g, c, True), "k = True must be an int"),
        (lambda: max_arrows(5, 2.5), "k = 2.5 must be an int"),
        (lambda: max_arrows(5.0, 2), "m = 5.0 must be an int"),
        (lambda: max_arrows(5, 2, budget=10.5), "budget = 10.5 must be an int"),
        (lambda: max_arrows(5, 2, budget=True), "budget = True must be an int"),
        (lambda: upper_bound(10.5, 2), "n = 10.5 must be an int"),
        (lambda: upper_bound(10, 2.0), "k = 2.0 must be an int"),
        (lambda: upper_bound(False, 2), "n = False must be an int"),
        (lambda: exact_extremal_k2(10.5), "n = 10.5 must be an int"),
        (lambda: StraightLineDrawing(g, ((0, 0),) * 5, 2.0), "points and den must be ints"),
    ):
        with pytest.raises(TypeError, match=re.escape(message)):
            make()


def test_edge_count_k6():
    k6 = Graph(6, tuple((u, v) for u in range(6) for v in range(u + 1, 6)))
    assert len(k6.edges) == 15


def test_edge_count_empty():
    assert len(Graph(5).edges) == 0


def test_edge_count_quad_extremal_n12():
    from fanfree.constructions import gen_quad_extremal

    assert len(gen_quad_extremal(12).graph.edges) == 40


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 9)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))
        )
        g = Graph(n, edges)
        assert Graph(g.n, g.edges).edges == g.edges
        assert all(u <= v for u, v in g.edges)


def test_crossing_relation_canonical_and_validated():
    g = Graph(4, ((0, 1), (2, 3), (0, 2)))
    c = CrossingRelation(frozenset({(1, 0)}))
    assert c.crosses(0, 1) and c.crosses(1, 0)
    assert validate_crossings(g, c) is None
    adjacent = CrossingRelation(frozenset({(0, 2)}))  # edges share vertex 0
    assert "adjacent" in validate_crossings(g, adjacent)


def _value_examples():
    """One instance of each of the five value types, fresh on every call."""
    g = Graph(3, ((1, 0), (1, 2)))
    return [
        g,
        CrossingRelation([(1, 0)]),
        StraightLineDrawing(g, ((0, 0), (2, 4), (4, 0)), 2),
        AbstractDrawing(g, CrossingRelation(), "star"),
        StarConfig(4, ((0, 2, 0),)),
    ]


VALUE_FIELDS = {
    Graph: ("n", "edges"),
    CrossingRelation: ("pairs",),
    StraightLineDrawing: ("graph", "points", "den"),
    AbstractDrawing: ("graph", "crossings", "provenance"),
    StarConfig: ("m", "arrows"),
}


def test_value_types_build_with_their_defaults():
    g = Graph(3)
    assert (g.n, g.edges) == (3, ()) and Graph(n=3, edges=()) == g
    rel = CrossingRelation()
    assert rel.pairs == frozenset() and CrossingRelation(pairs=()) == rel
    pts = ((0, 0), (1, 2), (3, 1))
    d = StraightLineDrawing(g, pts)
    assert (d.graph, d.points, d.den) == (g, pts, 1)
    assert StraightLineDrawing(graph=g, points=pts, den=1) == d
    a = AbstractDrawing(g, rel)
    assert (a.graph, a.crossings, a.provenance) == (g, rel, "external")
    assert AbstractDrawing(graph=g, crossings=rel, provenance="external") == a
    s = StarConfig(4)
    assert (s.m, s.arrows) == (4, ()) and StarConfig(m=4, arrows=()) == s


def test_value_types_compare_and_hash_by_their_fields_within_one_class():
    for a, b in zip(_value_examples(), _value_examples()):
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        fields = tuple(getattr(a, f) for f in VALUE_FIELDS[type(a)])
        assert a != fields and fields != a
        twin = type("Twin", (type(a),), {})(*fields)
        assert a != twin and twin != a
    assert len({*_value_examples(), *_value_examples()}) == 5
    # the same field values in another value type
    assert Graph(4) != StarConfig(4) and StarConfig(4) != Graph(4)


def test_value_types_are_immutable():
    for v in _value_examples():
        for f in (*VALUE_FIELDS[type(v)], "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                setattr(v, f, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
                delattr(v, f)


def test_cached_properties_are_computed_once():
    d = StraightLineDrawing(Graph(4, ((0, 2), (1, 3))), ((0, 0), (2, 0), (2, 2), (0, 2)))
    before = repr(d)
    assert d.crossings is d.crossings and d.crossings.pairs == {(0, 1)}
    assert d.coords is d.coords
    rel = d.crossings
    assert rel.adjacency is rel.adjacency and rel.adjacency == {0: (1,), 1: (0,)}
    assert repr(d) == before  # a kept property is not a field


def test_value_reprs_name_every_field():
    assert repr(Graph(2, ((1, 0),))) == "Graph(n=2, edges=((0, 1),))"
    assert repr(CrossingRelation([(1, 0)])) == "CrossingRelation(pairs=frozenset({(0, 1)}))"
    assert repr(StraightLineDrawing(Graph(2, ((0, 1),)), ((0, 0), (2, 4)), 2)) == (
        "StraightLineDrawing(graph=Graph(n=2, edges=((0, 1),)), "
        "points=((0, 0), (1, 2)), den=1)")
    assert repr(AbstractDrawing(Graph(1), CrossingRelation())) == (
        "AbstractDrawing(graph=Graph(n=1, edges=()), "
        "crossings=CrossingRelation(pairs=frozenset()), provenance='external')")
    assert repr(StarConfig(4, ((0, 2, 0),))) == "StarConfig(m=4, arrows=((0, 2, 0),))"


def test_abstract_drawing_rejects_parts_of_the_wrong_type():
    g, rel = Graph(2, ((0, 1),)), CrossingRelation()
    with pytest.raises(TypeError, match="graph must be a Graph, got tuple"):
        AbstractDrawing((2, ((0, 1),)), rel)
    with pytest.raises(TypeError, match="crossings must be a CrossingRelation, got list"):
        AbstractDrawing(Graph(2), [(0, 1)])
    with pytest.raises(TypeError, match="provenance must be a str, got 5"):
        AbstractDrawing(g, rel, 5)
    # the loader names a bad provenance itself, before it builds the drawing
    with pytest.raises(InputError, match="provenance must be a string, got 5"):
        from_json_dict({"n": 2, "edges": [[0, 1]], "crossings": [], "provenance": 5})


def test_json_round_trip_graph():
    g = Graph(4, ((0, 1), (2, 3)))
    assert from_json_dict(to_json_dict(g)) == g
    with pytest.raises(TypeError, match="cannot serialize int"):
        to_json_dict(5)


def test_json_round_trip_straight():
    d = StraightLineDrawing.from_coords(
        Graph(2, ((0, 1),)), ((Fraction(1, 3), Fraction(0)), (Fraction(2), Fraction(-5, 7)))
    )
    back = from_json_dict(json.loads(dumps(d)))
    assert back == d


def test_json_round_trip_abstract():
    d = AbstractDrawing(
        Graph(4, ((0, 1), (2, 3))), CrossingRelation(frozenset({(0, 1)})), "external"
    )
    assert from_json_dict(to_json_dict(d)) == d


def test_float_coordinates_rejected():
    # a bool is no coordinate either: Fraction(True) would place the point at 1
    for coords in (((0.5, 1),), ((True, 0),)):
        with pytest.raises(TypeError, match="coordinates must be exact"):
            StraightLineDrawing.from_coords(Graph(1, ()), coords)
    # ints, Fractions and strings that Fraction reads are exact
    d = StraightLineDrawing.from_coords(Graph(1, ()), ((1, Fraction(1, 2)),))
    assert d.points == StraightLineDrawing.from_coords(Graph(1, ()), (("1", "1/2"),)).points


def test_fraction_coordinates_are_kept_as_given():
    x = Fraction(1, 3)
    d = StraightLineDrawing.from_coords(Graph(1, ()), ((x, 2),))
    assert d.coords[0][0] is x
    assert type(d.coords[0][1]) is Fraction and d.coords[0][1] == 2


def test_points_clear_the_common_denominator_once():
    d = StraightLineDrawing.from_coords(
        Graph(3, ()), ((Fraction(1, 2), 0), (Fraction(-2, 3), Fraction(5, 4)), (1, 1))
    )
    assert d.points == ((6, 0), (-8, 15), (12, 12))
    assert d.points is d.points


def test_coords_and_crossings_together_are_rejected():
    # a document is a straight-line drawing or an abstract one, never both:
    # the crossings are not dropped in silence
    data = {"n": 4, "edges": [[0, 1], [2, 3]],
            "coords": [[0, 1, 0, 1], [2, 1, 2, 1], [0, 1, 2, 1], [2, 1, 0, 1]],
            "crossings": [[0, 1]]}
    with pytest.raises(InputError, match="both 'coords' and 'crossings'"):
        from_json_dict(data)
    assert from_json_dict({**data, "crossings": None}).crossings.pairs == {(0, 1)}


def test_loaded_drawing_equals_the_one_built_from_fractions():
    # the loader builds integer points with no Fraction; on seeded tables
    # with unreduced rows, negative numbers, zero numerators and mixed
    # denominators it must give the drawing that the same values as
    # Fractions give, with the points of the lcm of the reduced denominators
    rng = random.Random(2121)
    seen = dict.fromkeys(("unreduced", "negative", "zero", "mixed"), 0)
    for _ in range(600):
        n = rng.randint(1, 7)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(2):
                den = rng.choice((1, 2, 3, 4, 6, 9, 35, -1, -2, -6))
                row += [rng.choice((0, rng.randint(-40, 40), den * rng.randint(-3, 3))), den]
            rows.append(row)
        edges = [[v, v + 1] for v in range(n - 1)]
        loaded = from_json_dict({"n": n, "edges": edges, "coords": rows})
        fr = tuple((Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in rows)
        built = StraightLineDrawing.from_coords(Graph(n, tuple(map(tuple, edges))), fr)
        den = lcm(*(c.denominator for xy in fr for c in xy))
        assert loaded.points == built.points == tuple((int(x * den), int(y * den)) for x, y in fr)
        assert loaded.den == built.den == den
        assert loaded.coords == built.coords == fr
        assert to_json_dict(loaded) == to_json_dict(built)
        assert loaded == built and hash(loaded) == hash(built)
        flat = [(num, d) for row in rows for num, d in (row[:2], row[2:])]
        seen["unreduced"] += any(gcd(num, d) > 1 for num, d in flat)
        seen["negative"] += any(num < 0 or d < 0 for num, d in flat)
        seen["zero"] += any(num == 0 for num, _ in flat)
        seen["mixed"] += len({c.denominator for xy in fr for c in xy}) > 1
    assert min(seen.values()) >= 100, seen


# values that sit on a boundary of the loader's rules: a zero denominator,
# a vertex outside [0, n) for every n drawn below, a float, a bool, a string
# and the wrong containers
BOUNDARY_VALUES = (0, -1, 7, 0.5, True, None, "1", [], {})


def single_spot_variants(data: dict):
    """``data``, then every document that differs from it in one place: a key
    removed, a key's value or one entry of one row replaced by a boundary
    value, or the whole document replaced by one."""
    yield data
    yield from BOUNDARY_VALUES
    for key, rows in data.items():
        yield {k: v for k, v in data.items() if k != key}
        for new in BOUNDARY_VALUES:
            yield {**data, key: new}
        for i, row in enumerate(rows if isinstance(rows, list) else ()):
            for j in range(len(row)):
                for new in BOUNDARY_VALUES:
                    changed = row[:j] + [new] + row[j + 1:]
                    yield {**data, key: rows[:i] + [changed] + rows[i + 1:]}


def test_loader_fuzz_returns_a_model_object_or_raises_input_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def documents(draw):
        # documents that load: a simple graph on 2 to 6 vertices, alone, with
        # coordinates or with an empty crossing relation
        n = draw(st.integers(2, 6))
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        edges = st.lists(pair, max_size=6, unique_by=lambda e: tuple(sorted(e)))
        data = {"n": n, "edges": draw(edges)}
        kind = draw(st.sampled_from(("graph", "coords", "crossings")))
        if kind == "coords":
            number, den = st.integers(-3, 3), st.integers(1, 3)
            coord = st.lists(st.tuples(number, den, number, den), min_size=n, max_size=n)
            data["coords"] = list(map(list, draw(coord)))
        elif kind == "crossings":
            data["crossings"], data["provenance"] = [], draw(st.text(max_size=3))
        return data

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @hypothesis.given(documents())
    def check(valid):
        for data in single_spot_variants(valid):
            try:
                obj = from_json_dict(data)
            except InputError:
                continue
            assert isinstance(obj, (Graph, StraightLineDrawing, AbstractDrawing))
            hash(obj)  # an immutable value object
            g = obj if isinstance(obj, Graph) else obj.graph
            assert validate_graph(g) is None
            assert all(0 <= u <= v < g.n for u, v in g.edges)
            assert from_json_dict(to_json_dict(obj)) == obj

    check()
