"""Exact crossing computation, drawing simplicity validation, and k-fan
detection.

A drawing stores integer points over one common denominator
(``StraightLineDrawing.points``), and every predicate is the sign of a 2-D
integer expression on them.

A drawing has a crossing relation only if it is simple, and one kernel,
``_decide``, answers both questions at once: the report that lists every
violation, and the relation of a clean drawing.  The drawing keeps the
pair, so ``validate_simplicity`` returns the kept report and
``compute_crossings`` the kept relation (``d.crossings`` is that object), or
raises the report's first violation as a SimplicityError.  An endpoint on
another segment's interior, or an overlap of collinear segments, is a
violation, never a crossing.  The kernel runs one of two sweeps:

- ``plane_sweep``, for drawings of at least SWEEP_MIN_EDGES edges: one
  Bentley–Ottmann sweep whose work grows with edges plus crossings.  It
  stops with None at the first degeneracy.
- the box path, for every other drawing and for any the plane sweep stops
  on: one record per edge.  The vertex pass tests each edge against the
  vertices between its ends in (x, y) order and lists the violations, and
  the edge pass, run only on a simple drawing, tests each edge against the
  edges after it in x order that start within its x extent.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import CrossingRelation, FanWitness, Graph, StraightLineDrawing, check_ints
from .model import validate_crossings


# Drawings with this many edges or more take ``plane_sweep`` first.  Below it
# the box path's worst case is at most T(T-1)/2 pair tests, about 2,000, and
# on small dense drawings the plane sweep's events cost more than that.
SWEEP_MIN_EDGES = 64


class SimplicityError(ValueError):
    """Raised when a drawing violates the simple-drawing model."""

    def __init__(self, kind: str, indices: tuple, message: str):
        super().__init__(message)
        self.kind = kind
        self.indices = indices


class SimplicityReport(NamedTuple):
    """Exhaustive list of simplicity violations; ok iff none."""

    ok: bool
    violations: tuple[tuple[str, tuple], ...]


def orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a)."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def validate_simplicity(d: StraightLineDrawing) -> SimplicityReport:
    """Report every violation of the simple straight-line drawing model,
    sorted (kinds: coincident-vertices, vertex-on-edge, adjacent-overlap);
    the report the drawing keeps.  It is decided with the crossing relation,
    so that of a simple drawing is computed here too."""
    return d._decision[0]


def compute_crossings(d: StraightLineDrawing) -> CrossingRelation:
    """Exact pairwise crossing relation of a simple straight-line drawing,
    the one ``d.crossings`` keeps.  A drawing that is not simple raises
    SimplicityError naming the first violation of ``validate_simplicity``.
    Edges sharing an endpoint never cross.
    """
    rep = validate_simplicity(d)
    if not rep.ok:
        first = rep.violations[0]
        raise SimplicityError(*first, f"drawing is not simple: {first}")
    return d._decision[1]


# the report of every simple drawing
CLEAN = SimplicityReport(ok=True, violations=())


def _decide(d: StraightLineDrawing) -> tuple[SimplicityReport, CrossingRelation | None]:
    """The simplicity report of ``d`` and, if it is clean, its crossing
    relation (else None), the pair ``StraightLineDrawing`` keeps."""
    edges = d.graph.edges
    if len(edges) >= SWEEP_MIN_EDGES and (rel := plane_sweep(d)) is not None:
        return CLEAN, rel
    pts = d.points
    n = len(pts)
    violations: list[tuple[str, tuple]] = []

    shared: dict[tuple[int, int], list[int]] = {}  # the vertices on each shared point
    if len(set(pts)) != n:
        for v, p in enumerate(pts):
            shared.setdefault(p, []).append(v)
        shared = {p: group for p, group in shared.items() if len(group) > 1}
        for first, *others in shared.values():
            violations.extend(("coincident-vertices", (first, v)) for v in others)

    # records (ax, ay, bx, by, dx, dy, c, index): a is the end first in
    # (x, y) order, (dx, dy) = b - a and c = dx*ay - dy*ax, so dx*y - dy*x - c
    # is the orientation of (x, y) against the line ab.  A point inside the
    # segment comes strictly between a and b in that order: the candidates
    # are a slice of it, and one on the line ab and on neither end is inside.
    order = sorted(range(n), key=pts.__getitem__)
    rank = sorted(range(n), key=order.__getitem__)
    recs = []
    for i, (u, v) in enumerate(edges):
        ru, rv = rank[u], rank[v]
        if rv < ru:
            u, v, ru, rv = v, u, rv, ru
        a, b = pts[u], pts[v]
        (ax, ay), (bx, by) = a, b
        dx, dy = bx - ax, by - ay
        c = dx * ay - dy * ax
        recs.append((ax, ay, bx, by, dx, dy, c, i))
        for w in order[ru + 1:rv]:
            p = pts[w]
            if dx * p[1] - dy * p[0] == c and p != a and p != b:
                violations.append(("vertex-on-edge", (w, i)))

    # two edges that leave a shared end s the same way put the nearer far
    # end inside the other edge, or both far ends on one point, so each
    # overlap comes from a violation found above: an edge from a vertex w
    # inside edge e to an end of e overlaps e, and two edges from one s to
    # two vertices on a point other than s's overlap each other
    if violations:
        index = dict(zip(edges, range(len(edges))))  # a graph has no duplicate edge
        overlaps = set()
        for kind, (w, e) in violations:
            if kind == "vertex-on-edge":
                for s in edges[e]:
                    i = index.get((s, w) if s < w else (w, s))
                    if i is not None:
                        overlaps.add((i, e) if i < e else (e, i))
        inc = d.graph.incident_edges() if shared else ()
        for p, group in shared.items():
            for pos, q in enumerate(group):
                for i in inc[q]:
                    s = sum(edges[i]) - q
                    if pts[s] == p:
                        continue
                    for r in group[pos + 1:]:
                        j = index.get((s, r) if s < r else (r, s))
                        if j is not None:
                            overlaps.add((i, j) if i < j else (j, i))
        violations.extend(("adjacent-overlap", ij) for ij in overlaps)

    if violations:
        violations.sort()
        return SimplicityReport(ok=False, violations=tuple(violations)), None

    # the edge pass: a simple drawing has no other contact than a proper
    # crossing, each segment's ends strictly on both sides of the other's
    # line.  Each edge meets the edges after it in x order whose x extent
    # starts within its own.  Two edges that share an end have it on both
    # lines, so they never pass.
    recs.sort()
    pairs = []
    for at, (ax, ay, bx, by, dx, dy, c, e) in enumerate(recs, 1):
        for cx, cy, ex, ey, fx, fy, c2, f in recs[at:]:
            if cx > bx:
                break
            if (dx * cy - dy * cx - c) * (dx * ey - dy * ex - c) < 0 \
                    and (fx * ay - fy * ax - c2) * (fx * by - fy * bx - c2) < 0:
                pairs.append((e, f))
    return CLEAN, CrossingRelation(pairs)


def _schedule(pending: list, x, y, w) -> None:
    """Insert the crossing point (x/w, y/w), w > 0, into ``pending``, which
    is sorted from the last event to the first; points are compared by
    cross-multiplication."""
    lo, hi = 0, len(pending)
    while lo < hi:
        mid = (lo + hi) // 2
        px, py, pw = pending[mid]
        dx = px * w - x * pw
        if dx > 0 or (dx == 0 and py * w > y * pw):
            lo = mid + 1
        else:
            hi = mid
    pending.insert(lo, (x, y, w))


def plane_sweep(d: StraightLineDrawing) -> CrossingRelation | None:
    """The crossing relation of ``d`` from one Bentley–Ottmann sweep, or None
    at the first degeneracy: coincident vertices, a vertex inside an edge
    (which every touching or overlapping pair of edges has), or collinear
    edges leaving one vertex the same way.

    Events are the drawing's points and the crossing points (homogeneous
    integers (X, Y, W), W > 0), taken in (x, y) order, a vertex before a
    crossing at the same point.  The status lists the edges that meet the
    sweep line from bottom to top, each oriented from its smaller end, and
    an event point is located in it by the signs of dx*Y - dy*X - c*W.  A
    vertical edge comes after every other edge through the point where it
    starts, so the edges through a crossing point form one block that the
    crossing reverses.  A vertex event whose block holds an edge that does
    not end there has found a vertex inside that edge."""
    pts = d.points
    edges = d.graph.edges
    order = sorted(range(len(pts)), key=pts.__getitem__)
    for v, w in zip(order, order[1:]):
        if pts[v] == pts[w]:
            return None
    # per edge: direction (dx, dy) from its smaller end, c = dx*ay - dy*ax,
    # and its larger end; per vertex: the edges it starts, bottom to top
    DX, DY, C, right = [], [], [], []
    starts: list[list[int]] = [[] for _ in pts]
    for i, (u, v) in enumerate(edges):
        if pts[v] < pts[u]:
            u, v = v, u
        (ax, ay), (bx, by) = pts[u], pts[v]
        dx, dy = bx - ax, by - ay
        DX.append(dx)
        DY.append(dy)
        C.append(dx * ay - dy * ax)
        right.append(v)
        out = starts[u]
        j = len(out)
        while j and DX[out[j - 1]] * dy - DY[out[j - 1]] * dx < 0:
            j -= 1
        if j and DX[out[j - 1]] * dy == DY[out[j - 1]] * dx:
            return None  # collinear, same way: an overlap
        out.insert(j, i)

    pairs = set()
    pending: list[tuple] = []  # crossing points, the next one last
    status: list[int] = []

    def test(s, t):
        """Schedule the crossing of s (below) and t if they cross properly
        ahead of the sweep, where s is the steeper: w > 0.  Edges that
        crossed behind it meet again as neighbours in the other order."""
        sx, sy, sc, tx, ty, tc = DX[s], DY[s], C[s], DX[t], DY[t], C[t]
        w = sy * tx - sx * ty
        if w <= 0:
            return
        (cx, cy), (ex, ey) = pts[edges[t][0]], pts[edges[t][1]]
        o1 = sx * cy - sy * cx - sc
        o2 = sx * ey - sy * ex - sc
        if not o1 or not o2 or (o1 > 0) == (o2 > 0):
            return
        (ax, ay), (bx, by) = pts[edges[s][0]], pts[edges[s][1]]
        o3 = tx * ay - ty * ax - tc
        o4 = tx * by - ty * bx - tc
        if o3 and o4 and (o3 > 0) != (o4 > 0):
            # the lines sx*y - sy*x = sc and tx*y - ty*x = tc meet here
            _schedule(pending, sx * tc - tx * sc, sy * tc - ty * sc, w)

    vertices = iter(order)
    vertex = next(vertices, None)
    while vertex is not None:
        x, y = pts[vertex]
        w = 1
        crossing = False
        if pending:
            px, py, pw = pending[-1]
            dx = px - x * pw
            if dx < 0 or (dx == 0 and py < y * pw):
                x, y, w = pending.pop()
                crossing = True
                while pending:  # the same point, scheduled by other pairs
                    px, py, pw = pending[-1]
                    if px * w != x * pw or py * w != y * pw:
                        break
                    pending.pop()
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            e = status[mid]
            if DX[e] * y - DY[e] * x - C[e] * w > 0:
                lo = mid + 1
            else:
                hi = mid
        hi = lo
        while hi < len(status):
            e = status[hi]
            if DX[e] * y - DY[e] * x - C[e] * w:
                break
            hi += 1
        if crossing:
            block = status[lo:hi]
            for pos, e in enumerate(block):
                for f in block[pos + 1:]:
                    pairs.add((e, f) if e < f else (f, e))
            block.reverse()
            status[lo:hi] = block
        else:
            for e in status[lo:hi]:
                if right[e] != vertex:
                    return None
            new = starts[vertex]
            status[lo:hi] = new
            hi = lo + len(new)
            vertex = next(vertices, None)
        # the new neighbours: around the block, or across the gap it left
        if lo > 0 and (lo < hi or hi < len(status)):
            test(status[lo - 1], status[lo])
        if lo < hi < len(status):
            test(status[hi - 1], status[hi])
    return CrossingRelation(frozenset(pairs))


def find_k_fans(g: Graph, c: CrossingRelation, k: int) -> list[FanWitness]:
    """All (crosser, apex) pairs, in that order, where the crosser crosses
    >= k edges at apex, each with the k lowest-indexed of them as its fan.
    Empty iff the drawing is k-fan-crossing free.

    One pass over the pairs files each crossed edge in a bucket under the
    key crosser * n + apex, whose order is (crosser, apex) order, and the
    witnesses are read off the buckets that reach k, in key order.  A key's
    first edge is kept as a bare int, the pair sum i + j (the crossed edge
    plus the crosser, which the key gives back), and a list is made only
    at its second edge: on a fan-free drawing few keys, and at k = 2 none,
    get a second edge, so the pass costs what a count per key would.  A
    ``k`` that is not an int (a bool included) raises TypeError, and the
    pass raises ValueError with ``validate_crossings``' message for a
    relation that is not one of ``g``."""
    if type(k) is not int or k < 2:
        check_ints(k=k)
        raise ValueError(f"k must be >= 2, got {k}")
    n, edges = g.n, g.edges
    buckets: dict[int, int | list[int]] = {}
    get = buckets.get
    hot = []  # the keys whose bucket reached k
    try:
        for i, j in c.pairs:  # i <= j
            s = i + j
            (a, b), (u, v) = edges[i], edges[j]
            if i < 0 or a == u or a == v or b == u or b == v:
                raise ValueError(validate_crossings(g, c))
            for key in (i * n + u, i * n + v, j * n + a, j * n + b):
                crossed = get(key)
                if crossed is None:
                    buckets[key] = s
                    continue
                crosser = key // n
                if crossed.__class__ is int:
                    crossed = buckets[key] = [crossed - crosser]
                crossed.append(s - crosser)
                if len(crossed) == k:
                    hot.append(key)
    except IndexError:  # j is past the last edge
        raise ValueError(validate_crossings(g, c)) from None
    # tuple.__new__ builds each FanWitness without the generated __new__,
    # a Python call that is about a third of the cost of a witness
    new = tuple.__new__
    witnesses = []
    for key in sorted(hot):
        crosser, apex = divmod(key, n)
        crossed = buckets[key]
        crossed.sort()
        witnesses.append(new(FanWitness, (crosser, apex, tuple(crossed[:k]))))
    return witnesses


def crossings_of(d) -> tuple[Graph, CrossingRelation]:
    """Graph and crossing relation of either drawing flavour."""
    return d.graph, d.crossings


def is_k_fan_free(d, k: int) -> bool:
    return not find_k_fans(d.graph, d.crossings, k)
