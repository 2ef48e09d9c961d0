"""Core data model: abstract graphs, straight-line drawings, crossing
relations, and the JSON interchange format shared by every module.

All types are immutable value objects.  A straight-line drawing stores its
vertices as integer points over one common denominator, and every decision
is the sign of an integer expression on those points; ``coords`` is their
``fractions.Fraction`` view.  Nothing downstream ever decides anything with
a float.
"""

from __future__ import annotations

import json
from functools import cached_property
from fractions import Fraction
from itertools import chain, repeat, starmap
from math import gcd, lcm
from operator import eq, floordiv, itemgetter, mul
from typing import NamedTuple

SCHEMA_VERSION = 1

Coord = tuple[Fraction, Fraction]


def check_ints(**values) -> None:
    """TypeError naming the first of ``values`` that is not an int (a bool
    is not one): no count, size or index is rounded or truncated."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} = {value!r} must be an int")


def int_rows(rows, width: int, message: str) -> list[tuple[int, ...]]:
    """The rows of ``rows`` as tuples, the table and each row read once, if
    every row is ``width`` ints (a bool is not one); else TypeError with
    ``message`` formatted with the index and the value (a tuple if it is
    iterable) of the first row that is not.  The value types read their
    rows through it, so that a generator or an iterator loses none."""
    table, bare = [], False
    for row in rows:
        try:
            table.append(tuple(row))
        except TypeError:  # not iterable: named as it is
            table.append(row)
            bare = True
    if bare or not (set(map(len, table)) <= {width}
                    and set(map(type, chain.from_iterable(table))) <= {int}):
        for i, row in enumerate(table):
            if type(row) is not tuple or len(row) != width or set(map(type, row)) != {int}:
                raise TypeError(message.format(i, row))
    return table


class _Value:
    """Base of the value types.  The fields of a value type are the names
    its class body annotates, in order (``_fields``); a default there is a
    class attribute too, and its ``__init__`` signature repeats it.  Two
    values are equal, and hash equally, when they are of one class and their
    fields are equal; the repr names every field.  No attribute is assigned
    or deleted once ``__init__`` has written each field with ``_set``.  A
    ``cached_property`` keeps its value in the instance ``__dict__``, which
    it writes directly."""

    _fields = ()

    def __init_subclass__(cls):
        # a class body without annotations has an empty dict here (3.10+)
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # writes a field of a value in its __init__


class Graph(_Value):
    """Abstract graph on vertices 0..n-1 with indexed edges.

    Edges are stored canonically as (min, max) pairs in input order; the
    position of a pair is its stable edge index.  Isolated vertices are
    allowed.  On construction, an ``n`` that is not an int (a bool
    included) raises TypeError, as does the first edge that is not a pair
    of ints; with none, the first edge with an endpoint outside [0, n)
    raises ValueError; self-loops and duplicate edges are representable, and
    ``validate_graph`` reports them.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...] = ()):
        check_ints(n=n)
        rows = int_rows(edges, 2, "edge {} = {!r} must be a pair of ints")
        # a row that is already (min, max) is kept as int_rows read it
        canon = tuple([e if u <= v else (v, u) for e in rows for u, v in (e,)])
        # every pair is (min, max), so the least pair holds the least vertex
        if canon and (min(canon)[0] < 0 or max(map(itemgetter(1), canon)) >= n):
            i, (u, v) = next((i, e) for i, e in enumerate(canon) if e[0] < 0 or e[1] >= n)
            raise ValueError(f"edge {i} = ({u}, {v}) has a vertex outside [0, {n})")
        _set(self, "n", n)
        _set(self, "edges", canon)

    def incident_edges(self) -> list[list[int]]:
        """Edge indices incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            if v != u:
                inc[v].append(i)
        return inc


def validate_graph(g: Graph) -> str | None:
    """Return a description of the first violated invariant, or None if ok."""
    if g.n < 1:
        return f"vertex count must be >= 1, got {g.n}"
    if len(set(g.edges)) == len(g.edges) and not any(starmap(eq, g.edges)):
        return None
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            return f"edge {i} is a self-loop at vertex {u}"
        if (u, v) in seen:
            return f"edge {i} = ({u}, {v}) duplicates an earlier edge"
        seen.add((u, v))
    return None


class CrossingRelation(_Value):
    """Symmetric set of crossing edge-index pairs, stored as (min, max).
    A pair that is not two ints (a bool is not one) raises TypeError on
    construction."""

    pairs: frozenset[tuple[int, int]] = frozenset()

    def __init__(self, pairs: frozenset[tuple[int, int]] = frozenset()):
        rows = int_rows(pairs, 2, "crossing pair {1!r} must be a pair of ints")
        _set(self, "pairs", frozenset([p if i <= j else (j, i) for p in rows for i, j in (p,)]))

    def crosses(self, i: int, j: int) -> bool:
        return ((i, j) if i <= j else (j, i)) in self.pairs

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """``crossing_lists`` of the pairs, built on first use and kept."""
        return crossing_lists(self.pairs)


def crossing_lists(pairs) -> dict[int, tuple[int, ...]]:
    """Edge index -> ascending indices of the edges crossing it, for every
    edge in some pair."""
    adj: dict[int, list[int]] = {}
    for i, j in pairs:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    return {e: tuple(sorted(crossed)) for e, crossed in adj.items()}


def validate_crossings(g: Graph, c: CrossingRelation) -> str | None:
    m = len(g.edges)
    for i, j in sorted(c.pairs):
        if i == j:
            return f"crossing pair ({i}, {j}) names one edge twice"
        if not (0 <= i < m and 0 <= j < m):
            return f"crossing pair ({i}, {j}) is outside the edge range [0, {m})"
        if set(g.edges[i]) & set(g.edges[j]):
            return f"crossing pair ({i}, {j}) shares a vertex (adjacent edges never cross)"
    return None


class StraightLineDrawing(_Value):
    """A graph plus one exact point per vertex: vertex v is at
    (X / den, Y / den) for (X, Y) = ``points[v]``, plain ints.  The
    constructor divides out any factor ``den`` shares with every coordinate,
    so ``den`` is the lcm of the reduced denominators and equal coordinates
    give equal drawings.  One positive scale keeps every orientation, order
    and incidence, so a predicate decides on ``points`` what it would on the
    coordinates; the integers grow with the bit length of ``den``.
    ``from_coords`` builds a drawing from rationals, and ``coords`` is the
    Fraction view."""

    graph: Graph
    points: tuple[tuple[int, int], ...] = ()
    den: int = 1

    def __init__(self, graph: Graph, points: tuple[tuple[int, int], ...] = (), den: int = 1):
        pts = tuple(map(tuple, points))
        if len(pts) != graph.n:
            raise ValueError(f"{len(pts)} coordinate pairs for {graph.n} vertices")
        if not set(map(len, pts)) <= {2}:
            raise ValueError("every point must be a pair (X, Y)")
        flat = list(chain.from_iterable(pts))
        if not set(map(type, flat)) <= {int} or type(den) is not int:
            raise TypeError("points and den must be ints")
        if den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        common = gcd(den, *flat)
        if common != 1:
            pts = tuple((x // common, y // common) for x, y in pts)
            den //= common
        _set(self, "graph", graph)
        _set(self, "points", pts)
        _set(self, "den", den)

    @classmethod
    def from_coords(cls, graph: Graph, coords) -> StraightLineDrawing:
        """The drawing of ``graph`` with vertex v at ``coords[v]``, each
        coordinate an int, a Fraction or a string that Fraction reads (a
        float or a bool raises TypeError).  Its ``coords`` view holds the
        given values as Fractions."""
        view = []
        for xy in coords:
            if any(isinstance(c, (float, bool)) for c in xy):
                raise TypeError(
                    "coordinates must be exact (int / Fraction / str), not float or bool")
            x, y = (c if type(c) is Fraction else Fraction(c) for c in xy)
            view.append((x, y))
        den = lcm(*(c.denominator for xy in view for c in xy))
        d = cls(graph, tuple(
            (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in view
        ), den)
        d.__dict__["coords"] = tuple(view)  # the view ``coords`` would build
        return d

    @cached_property
    def coords(self) -> tuple[Coord, ...]:
        """Every vertex as exact rationals (x, y), built on first use and
        kept: the form ``to_json_dict`` writes and ``render_svg`` draws."""
        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.points)

    @cached_property
    def _decision(self):
        """The simplicity report and, for a simple drawing, the crossing
        relation (None otherwise), decided together on first use and kept,
        so that a drawing is validated and intersected once."""
        return _cr._decide(self)

    @cached_property
    def crossings(self) -> CrossingRelation:
        """``crossings.compute_crossings`` of this drawing, computed on first
        use and kept: the relation decided with the report.  Only a simple
        drawing has one: otherwise this raises SimplicityError (a
        ValueError) naming the first violation of ``validate_simplicity``."""
        return _cr.compute_crossings(self)


class AbstractDrawing(_Value):
    """A graph with a combinatorial crossing relation but no geometry.

    Realizability of an arbitrary relation is deliberately not checked;
    generator-produced drawings are realizable by construction and external
    inputs are trusted modulo the stated invariants.  A part of the wrong
    type raises TypeError naming it.
    """

    graph: Graph
    crossings: CrossingRelation
    provenance: str = "external"

    def __init__(self, graph: Graph, crossings: CrossingRelation, provenance: str = "external"):
        if not isinstance(graph, Graph):
            raise TypeError(f"graph must be a Graph, got {type(graph).__name__}")
        if not isinstance(crossings, CrossingRelation):
            raise TypeError(
                f"crossings must be a CrossingRelation, got {type(crossings).__name__}")
        if not isinstance(provenance, str):
            raise TypeError(f"provenance must be a str, got {provenance!r}")
        _set(self, "graph", graph)
        _set(self, "crossings", crossings)
        _set(self, "provenance", provenance)


class FanWitness(NamedTuple):
    """Edge ``crosser`` crossing ``fan`` edges that all meet at ``apex``."""

    crosser: int
    apex: int
    fan: tuple[int, ...]


Drawing = StraightLineDrawing | AbstractDrawing


def to_json_dict(obj: Graph | Drawing) -> dict:
    """Serialize a graph or drawing into the shared interchange dict."""
    if isinstance(obj, Graph):
        g, coords, crossings, prov = obj, None, None, None
    elif isinstance(obj, StraightLineDrawing):
        g, coords, crossings, prov = obj.graph, obj.coords, None, None
    elif isinstance(obj, AbstractDrawing):
        g, coords, crossings, prov = obj.graph, None, obj.crossings, obj.provenance
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    out: dict = {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
    }
    if coords is not None:
        out["coords"] = [
            [x.numerator, x.denominator, y.numerator, y.denominator]
            for x, y in coords
        ]
    if crossings is not None:
        out["crossings"] = sorted([i, j] for i, j in crossings.pairs)
    if prov is not None:
        out["provenance"] = prov
    return out


class InputError(ValueError):
    """A malformed interchange document."""


def _table(data: dict, key: str, width: int, build):
    """``build(data[key])`` for a table of rows of ``width`` integers, its
    JSON shape (a list of lists) tested here and its entries by ``build``
    alone.  On a failure the first row that is not a list of ``width``
    integers is named, else ``build``'s error is the InputError."""
    rows = data[key]
    try:
        if not (isinstance(rows, list) and set(map(type, rows)) <= {list}):
            raise TypeError(f"{key} must be a list of lists")
        return build(rows)
    except (TypeError, ValueError) as exc:
        if not isinstance(rows, list):
            raise InputError(f"{key} must be a list, got {type(rows).__name__}") from None
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != width or set(map(type, row)) != {int}:
                raise InputError(
                    f"{key}[{i}] must be a list of {width} integers, got {row!r}") from None
        raise InputError(str(exc)) from None


def from_json_dict(data) -> Graph | Drawing:
    """Inverse of ``to_json_dict``.  Raises InputError for a malformed
    document: not an object, no integer ``n`` or no ``edges``, a row that is
    not a list of integers of the right length (a float included), a zero
    denominator, a vertex outside [0, n), a graph that fails
    ``validate_graph``, both ``coords`` and ``crossings``, crossings that
    fail ``validate_crossings``, or a provenance that is not a string.

    Coordinates are read as integers: the points over the lcm of the
    denominators, which the drawing reduces, with no Fraction built."""
    if not isinstance(data, dict):
        raise InputError(f"the document must be a JSON object, got {type(data).__name__}")
    for key in ("n", "edges"):
        if key not in data:
            raise InputError(f"the document has no {key!r}")
    if type(data["n"]) is not int:
        raise InputError(f"n must be an integer, got {data['n']!r}")
    g = _table(data, "edges", 2, lambda edges: Graph(data["n"], edges))
    if problem := validate_graph(g):
        raise InputError(problem)
    if data.get("coords") is not None:
        rows = _table(data, "coords", 4,
                      lambda rows: int_rows(rows, 4, "coordinate row {} = {!r} must be four ints"))
        cols = tuple(zip(*rows))  # xn, xd, yn, yd
        if cols and (0 in cols[1] or 0 in cols[3]):
            i = next(i for i, row in enumerate(rows) if row[1] == 0 or row[3] == 0)
            raise InputError(f"coords[{i}] has a zero denominator")
        if len(rows) != g.n:
            raise InputError(f"{len(rows)} coordinate rows for {g.n} vertices")
        if data.get("crossings") is not None:
            raise InputError("the document has both 'coords' and 'crossings'; "
                             "a drawing has coordinates or a crossing relation, not both")
        xn, xd, yn, yd = cols
        den = lcm(*xd, *yd)
        xs = map(mul, xn, map(floordiv, repeat(den), xd))
        ys = map(mul, yn, map(floordiv, repeat(den), yd))
        return StraightLineDrawing(g, tuple(zip(xs, ys)), den)
    if data.get("crossings") is not None:
        rel = _table(data, "crossings", 2, CrossingRelation)
        if problem := validate_crossings(g, rel):
            raise InputError(problem)
        provenance = data.get("provenance", "external")
        if not isinstance(provenance, str):
            raise InputError(f"provenance must be a string, got {provenance!r}")
        return AbstractDrawing(g, rel, provenance)
    return g


def dumps(obj: Graph | Drawing) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, separators=(",", ":"))


def save(obj: Graph | Drawing, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path) -> Graph | Drawing:
    with open(path) as fh:
        return from_json_dict(json.load(fh))


# Bound once, after every class ``crossings`` imports from this module: the
# two modules import each other, and ``_decision`` and ``crossings`` use it.
from . import crossings as _cr  # noqa: E402
