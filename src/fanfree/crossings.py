"""Exact crossing computation, drawing simplicity validation, and k-fan
detection.

Each entry point clears denominators once per drawing: ``integer_points``
multiplies every coordinate by the drawing's common denominator, and every
predicate after that is the sign of a 2-D integer expression.  Candidate
pairs come from a sort-by-x sweep over closed bounding boxes, so two edges
(or a vertex and an edge) whose boxes are apart are never tested.  A
configuration where an endpoint touches another segment's interior, or
where collinear segments overlap, is a simplicity error, never a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .model import (
    CrossingRelation,
    FanWitness,
    Graph,
    StraightLineDrawing,
    crossing_lists,
)


class SimplicityError(ValueError):
    """Raised when a drawing violates the simple-drawing model."""

    def __init__(self, kind: str, indices: tuple, message: str):
        super().__init__(message)
        self.kind = kind
        self.indices = indices


@dataclass(frozen=True)
class SimplicityReport:
    """Exhaustive list of simplicity violations; ok iff none."""

    ok: bool
    violations: tuple[tuple[str, tuple], ...]


def integer_points(d: StraightLineDrawing) -> list[tuple[int, int]]:
    """Every vertex as plain ints (X, Y): its coordinates times the
    drawing's common denominator.  One positive scale for the whole drawing
    keeps every orientation, order and incidence, so a predicate decides the
    same on these points as on the rational coordinates.

    The integers grow with the bit length of the lcm of all denominators,
    so a drawing with many distinct denominators makes every predicate
    slower; the benchmarked inputs use one small denominator per drawing."""
    den = lcm(*(c.denominator for xy in d.coords for c in xy))
    return [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in d.coords
    ]


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a)."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _dot_sign(p, a, b) -> int:
    """Sign of (a-p).(b-p); negative iff p lies strictly between collinear a, b."""
    d = (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1])
    return (d > 0) - (d < 0)


def strictly_between(p, a, b) -> bool:
    """True iff p lies on the open segment (a, b)."""
    return orient(a, b, p) == 0 and _dot_sign(p, a, b) < 0


def _box(p, q) -> tuple[int, int, int, int]:
    """Closed bounding box (xlo, xhi, ylo, yhi) of the segment pq."""
    (x1, y1), (x2, y2) = p, q
    return (min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))


def _box_sweep(boxes, split: int = 0):
    """Yield every pair (i, j), i < j, of closed boxes (xlo, xhi, ylo, yhi)
    that meet, in no fixed order.  With ``split`` > 0 the boxes below it and
    the boxes from it on are two sides, and only pairs across them are
    yielded.

    Boxes enter in order of xlo.  A box entering at xlo first drops every
    active box of the other side whose xhi is left of xlo; the rest overlap
    it in x, so only y is left to test.  Pairs are yielded one at a time and
    never gathered into a list.
    """
    sides: tuple[list[int], list[int]] = ([], [])
    for i in sorted(range(len(boxes)), key=lambda i: boxes[i][0]):
        xlo, _xhi, ylo, yhi = boxes[i]
        own = sides[split <= i]
        other = sides[i < split] if split else own
        other[:] = [j for j in other if boxes[j][1] >= xlo]
        for j in other:
            b = boxes[j]
            if b[2] <= yhi and b[3] >= ylo:
                yield (j, i) if j < i else (i, j)
        own.append(i)


def validate_simplicity(d: StraightLineDrawing) -> SimplicityReport:
    """Report every violation of the simple straight-line drawing model.

    Kinds: coincident-vertices, vertex-on-edge, adjacent-overlap.
    """
    pts = integer_points(d)
    g = d.graph
    violations: list[tuple[str, tuple]] = []

    seen: dict[tuple[int, int], int] = {}
    for v, p in enumerate(pts):
        if p in seen:
            violations.append(("coincident-vertices", (seen[p], v)))
        else:
            seen[p] = v

    # vertices as point boxes against edge boxes
    n = len(pts)
    boxes = [(x, x, y, y) for x, y in pts]
    boxes += [_box(pts[u], pts[v]) for u, v in g.edges]
    for w, e in _box_sweep(boxes, split=n):
        u, v = g.edges[e - n]
        if w != u and w != v and strictly_between(pts[w], pts[u], pts[v]):
            violations.append(("vertex-on-edge", (w, e - n)))

    for s, inc in enumerate(g.incident_edges()):
        p = pts[s]
        for pos, i in enumerate(inc):
            for j in inc[pos + 1:]:
                (a1, b1), (a2, b2) = g.edges[i], g.edges[j]
                # duplicate edges share both endpoints and are not overlaps
                if len({a1, b1} & {a2, b2}) != 1:
                    continue
                o1, o2 = pts[a1 + b1 - s], pts[a2 + b2 - s]
                # collinear and pointing the same way from the shared endpoint
                if orient(p, o1, o2) == 0 and _dot_sign(p, o1, o2) > 0:
                    violations.append(("adjacent-overlap", (i, j)))

    violations.sort()
    return SimplicityReport(ok=not violations, violations=tuple(violations))


def _contact(a, b, c, e) -> int:
    """1 if the segments ab and ce cross properly, -1 if they touch
    degenerately (an endpoint on the other's interior, or a collinear
    overlap), 0 if they are apart."""
    (ax, ay), (bx, by), (cx, cy), (ex, ey) = a, b, c, e
    dx, dy = bx - ax, by - ay
    o1 = dx * (cy - ay) - dy * (cx - ax)
    o2 = dx * (ey - ay) - dy * (ex - ax)
    # both ends strictly on one side of the other's line: no contact at all
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return 0
    fx, fy = ex - cx, ey - cy
    o3 = fx * (ay - cy) - fy * (ax - cx)
    o4 = fx * (by - cy) - fy * (bx - cx)
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return 0
    if o1 and o2 and o3 and o4:
        return 1
    degenerate = (
        (o1 == 0 and _dot_sign(c, a, b) < 0)
        or (o2 == 0 and _dot_sign(e, a, b) < 0)
        or (o3 == 0 and _dot_sign(a, c, e) < 0)
        or (o4 == 0 and _dot_sign(b, c, e) < 0)
        or (o1 == 0 and o2 == 0 and (a, b) in ((c, e), (e, c)))
    )
    return -1 if degenerate else 0


def compute_crossings(d: StraightLineDrawing) -> CrossingRelation:
    """Exact pairwise crossing relation of a simple straight-line drawing.

    Edges sharing an endpoint never cross.  Any degenerate contact between
    two edges raises SimplicityError naming the lexicographically smallest
    such pair.
    """
    pts = integer_points(d)
    edges = d.graph.edges
    pairs = set()
    bad = None
    for i, j in _box_sweep([_box(pts[u], pts[v]) for u, v in edges]):
        u1, v1 = edges[i]
        u2, v2 = edges[j]
        if u1 == u2 or u1 == v2 or v1 == u2 or v1 == v2:
            continue
        contact = _contact(pts[u1], pts[v1], pts[u2], pts[v2])
        if contact > 0:
            pairs.add((i, j))
        elif contact < 0 and (bad is None or (i, j) < bad):
            bad = (i, j)
    if bad is not None:
        i, j = bad
        raise SimplicityError(
            "degenerate-contact",
            bad,
            f"edges {i} and {j} touch degenerately "
            "(endpoint on interior or collinear overlap)",
        )
    return CrossingRelation(frozenset(pairs))


def find_k_fans(g: Graph, c: CrossingRelation, k: int) -> list[FanWitness]:
    """All (crosser, apex) pairs where the crosser crosses >= k edges at apex.

    The fan reported for each witness is the k lexicographically smallest
    members of the apex bucket.  Empty result iff the drawing is
    k-fan-crossing free.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    witnesses = []
    # not c.adjacency: callers keep their relations, and a cached copy on
    # each one would outlive this call
    for crosser, crossed in sorted(crossing_lists(c.pairs).items()):
        buckets: dict[int, list[int]] = {}
        for e in crossed:
            for v in g.edges[e]:
                buckets.setdefault(v, []).append(e)
        gu, gv = g.edges[crosser]
        for apex in sorted(buckets):
            fan = buckets[apex]
            if len(fan) >= k:
                assert apex not in (gu, gv), "crosser incident to its own apex"
                witnesses.append(FanWitness(crosser, apex, tuple(sorted(fan)[:k])))
    return witnesses


def crossings_of(d) -> tuple[Graph, CrossingRelation]:
    """Graph and crossing relation of either drawing flavour."""
    return d.graph, d.crossings


def is_k_fan_free(d, k: int) -> bool:
    return not find_k_fans(d.graph, d.crossings, k)
