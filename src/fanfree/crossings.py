"""Exact crossing computation, drawing simplicity validation, and k-fan
detection.

Denominators are cleared once per drawing: ``StraightLineDrawing.points``
multiplies every coordinate by the drawing's common denominator and keeps
the result, and every predicate after that is the sign of a 2-D integer
expression.  Both sweeps run over one record per edge, sorted by the left
end of its closed bounding box, so two edges (or a vertex and an edge)
whose boxes are apart are never tested, and each candidate is decided in
the loop itself.  A configuration where an endpoint touches another
segment's interior, or where collinear segments overlap, is a simplicity
error, never a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a)."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _dot_sign(p, a, b) -> int:
    """Sign of (a-p).(b-p); negative iff p lies strictly between collinear a, b."""
    d = (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1])
    return (d > 0) - (d < 0)


def _edge_records(pts, edges) -> list[tuple]:
    """One record per edge, sorted by xlo: (xlo, xhi, ylo, yhi, index, u, v,
    ax, ay, bx, by, dx, dy, c), where (xlo, xhi, ylo, yhi) is the closed
    bounding box of the segment from a = pts[u] to b = pts[v],
    (dx, dy) = b - a and c = dx*ay - dy*ax.  The sign of dx*y - dy*x - c is
    the orientation of the point (x, y) against the line ab."""
    recs = []
    for i, (u, v) in enumerate(edges):
        ax, ay = pts[u]
        bx, by = pts[v]
        dx, dy = bx - ax, by - ay
        xlo, xhi = (ax, bx) if ax <= bx else (bx, ax)
        ylo, yhi = (ay, by) if ay <= by else (by, ay)
        recs.append((xlo, xhi, ylo, yhi, i, u, v, ax, ay, bx, by, dx, dy, dx * ay - dy * ax))
    recs.sort()
    return recs


def validate_simplicity(d: StraightLineDrawing) -> SimplicityReport:
    """Report every violation of the simple straight-line drawing model.

    Kinds: coincident-vertices, vertex-on-edge, adjacent-overlap.
    """
    pts = d.points
    g = d.graph
    violations: list[tuple[str, tuple]] = []

    seen: dict[tuple[int, int], int] = {}
    for v, p in enumerate(pts):
        if p in seen:
            violations.append(("coincident-vertices", (seen[p], v)))
        else:
            seen[p] = v

    # vertices in x order merged against the edges in xlo order: an edge
    # enters before the first vertex at or right of its xlo and leaves
    # before the first vertex right of its xhi
    recs = _edge_records(pts, g.edges)
    entered = 0
    active: list[tuple] = []
    left = None
    for px, py, w in sorted((x, y, w) for w, (x, y) in enumerate(pts)):
        if px != left:
            while entered < len(recs) and recs[entered][0] <= px:
                active.append(recs[entered])
                entered += 1
            active = [r for r in active if r[1] >= px]
            left = px
        for r in active:
            if r[2] > py or r[3] < py:
                continue
            _, _, _, _, e, u, v, ax, ay, _, _, dx, dy, c = r
            # on the line ab, and strictly between a and b along it (never
            # for a self-loop, where dx = dy = 0)
            if w != u and w != v and dx * py - dy * px == c:
                if 0 < (px - ax) * dx + (py - ay) * dy < dx * dx + dy * dy:
                    violations.append(("vertex-on-edge", (w, e)))

    for s, inc in enumerate(g.incident_edges()):
        px, py = pts[s]
        rays = []
        for i in inc:
            a, b = g.edges[i]
            o = a + b - s
            ox, oy = pts[o]
            rays.append((i, o, ox - px, oy - py))
        for pos, (i, o1, x1, y1) in enumerate(rays):
            for j, o2, x2, y2 in rays[pos + 1:]:
                # collinear and pointing the same way from the shared
                # endpoint; duplicate edges share both endpoints and are not
                # overlaps
                if x1 * y2 == y1 * x2 and x1 * x2 + y1 * y2 > 0 and o1 != o2:
                    violations.append(("adjacent-overlap", (i, j)))

    violations.sort()
    return SimplicityReport(ok=not violations, violations=tuple(violations))


def _degenerate(a, b, c, e, o1, o2, o3, o4) -> bool:
    """Whether the segments ab and ce, which no same-side test separates and
    of which at least one orientation o1..o4 is zero, touch degenerately:
    an endpoint on the other's interior, or a collinear overlap.  o1 and o2
    are the orientations of c and e against ab, o3 and o4 of a and b
    against ce; only whether each is zero matters."""
    return (
        (o1 == 0 and _dot_sign(c, a, b) < 0)
        or (o2 == 0 and _dot_sign(e, a, b) < 0)
        or (o3 == 0 and _dot_sign(a, c, e) < 0)
        or (o4 == 0 and _dot_sign(b, c, e) < 0)
        or (o1 == 0 and o2 == 0 and (a, b) in ((c, e), (e, c)))
    )


def compute_crossings(d: StraightLineDrawing) -> CrossingRelation:
    """Exact pairwise crossing relation of a simple straight-line drawing.

    Edges sharing an endpoint never cross.  Any degenerate contact between
    two edges raises SimplicityError naming the lexicographically smallest
    such pair.
    """
    pairs = set()
    bad = None
    active: list[tuple] = []
    left = None
    for rec in _edge_records(d.points, d.graph.edges):
        xlo, _, ylo, yhi, i, u, v, ax, ay, bx, by, dx, dy, c = rec
        if xlo != left:  # the boxes that end left of xlo leave
            active = [r for r in active if r[1] >= xlo]
            left = xlo
        for r in active:
            if r[2] > yhi or r[3] < ylo:
                continue
            _, _, _, _, j, u2, v2, cx, cy, ex, ey, fx, fy, c2 = r
            if u2 == u or u2 == v or v2 == u or v2 == v:
                continue
            # both ends of one segment strictly on one side of the other's
            # line: no contact at all
            o1 = dx * cy - dy * cx - c
            o2 = dx * ey - dy * ex - c
            if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
                continue
            o3 = fx * ay - fy * ax - c2
            o4 = fx * by - fy * bx - c2
            if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
                continue
            pair = (j, i) if j < i else (i, j)
            if o1 and o2 and o3 and o4:
                pairs.add(pair)
            elif (bad is None or pair < bad) and _degenerate(
                (ax, ay), (bx, by), (cx, cy), (ex, ey), o1, o2, o3, o4
            ):
                bad = pair
        active.append(rec)
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
