"""Core data model: abstract graphs, straight-line drawings, crossing
relations, and the JSON interchange format shared by every module.

All types are immutable value objects.  Coordinates are exact rationals
(``fractions.Fraction``); nothing downstream ever decides anything with a
float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

SCHEMA_VERSION = 1

Coord = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Graph:
    """Simple abstract graph on vertices 0..n-1 with indexed edges.

    Edges are stored canonically as (min, max) pairs in input order; the
    position of a pair is its stable edge index.  Isolated vertices are
    allowed.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        canon = tuple(
            (int(u), int(v)) if u <= v else (int(v), int(u)) for u, v in self.edges
        )
        object.__setattr__(self, "edges", canon)

    def edge_count(self) -> int:
        return len(self.edges)

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
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(g.edges):
        if u == v:
            return f"edge {i} is a self-loop at vertex {u}"
        if not (0 <= u < g.n and 0 <= v < g.n):
            return f"edge {i} = ({u}, {v}) has a vertex outside [0, {g.n})"
        if (u, v) in seen:
            return f"edge {i} = ({u}, {v}) duplicates an earlier edge"
        seen.add((u, v))
    return None


@dataclass(frozen=True)
class CrossingRelation:
    """Symmetric set of crossing edge-index pairs, stored as (min, max)."""

    pairs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        canon = frozenset(
            (int(i), int(j)) if i <= j else (int(j), int(i)) for i, j in self.pairs
        )
        object.__setattr__(self, "pairs", canon)

    def crosses(self, i: int, j: int) -> bool:
        return ((i, j) if i <= j else (j, i)) in self.pairs

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """``crossing_lists`` of the pairs, built on first use and kept."""
        return crossing_lists(self.pairs)

    def crossed_by(self, i: int) -> list[int]:
        """Sorted edge indices crossing edge i."""
        return list(self.adjacency.get(i, ()))


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


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("coordinates must be exact (int / Fraction / str), not float")
    return Fraction(x)


@dataclass(frozen=True)
class StraightLineDrawing:
    """A graph plus exact rational coordinates per vertex."""

    graph: Graph
    coords: tuple[Coord, ...] = ()

    def __post_init__(self):
        pts = tuple((_as_fraction(x), _as_fraction(y)) for x, y in self.coords)
        object.__setattr__(self, "coords", pts)
        if len(pts) != self.graph.n:
            raise ValueError(
                f"{len(pts)} coordinate pairs for {self.graph.n} vertices"
            )


@dataclass(frozen=True)
class AbstractDrawing:
    """A graph with a combinatorial crossing relation but no geometry.

    Realizability of an arbitrary relation is deliberately not checked;
    generator-produced drawings are realizable by construction and external
    inputs are trusted modulo the stated invariants.
    """

    graph: Graph
    crossings: CrossingRelation
    provenance: str = "external"


@dataclass(frozen=True)
class FanWitness:
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


def from_json_dict(data: dict) -> Graph | Drawing:
    """Inverse of ``to_json_dict``.  Raises ValueError for a graph that
    fails ``validate_graph`` or crossings that fail ``validate_crossings``."""
    g = Graph(data["n"], tuple((u, v) for u, v in data["edges"]))
    if problem := validate_graph(g):
        raise ValueError(problem)
    if "coords" in data and data["coords"] is not None:
        coords = tuple(
            (Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in data["coords"]
        )
        return StraightLineDrawing(g, coords)
    if "crossings" in data and data["crossings"] is not None:
        rel = CrossingRelation(frozenset((i, j) for i, j in data["crossings"]))
        if problem := validate_crossings(g, rel):
            raise ValueError(problem)
        return AbstractDrawing(g, rel, data.get("provenance", "external"))
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
