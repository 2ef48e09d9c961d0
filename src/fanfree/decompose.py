"""Decomposition of a fan-free drawing: greedy maximal plane subgraph H,
face tracing of H from the exact rotation system, replacement of each
excluded edge by two arrows, and the per-face / global bound audits.

``audit`` and ``audit_abstract`` share one front end (n >= 3, no k-fan,
the greedy H) and judge the edge count against ``bounds.edge_limit``, the
limit ``fanfree bounds`` applies, so the two commands agree on every input.

Face complexity counts an edge twice when it bounds the face on both
sides; boundary chains of a face are its closed walks (isolated vertices
degenerate to zero-length chains).

Every kernel reads the integer points ``d.points`` inline.  The rotation
system inserts each dart by the sign of one cross product, the face walks
follow one successor map and sum their areas as they go, an arrow's first
hit is found by cross-multiplication, and H's components are found once.
The records built per walk, face, face set, arrow and audit are immutable
NamedTuples.  ``trace_faces`` is the one face kernel: it rejects an H with a
crossing pair, then traces the faces.  ``audit`` calls it once on the greedy
H, which always passes that check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import (
    SCHEMA_VERSION,
    AbstractDrawing,
    CrossingRelation,
    Graph,
    StraightLineDrawing,
)
from .bounds import edge_limit
from .crossings import find_k_fans, orient


def maximal_plane_subgraph(
    g: Graph, c: CrossingRelation
) -> tuple[list[int], list[int]]:
    """Greedy crossing-free edge set H (ascending edge index) and the
    excluded set K.  H is maximal: every excluded edge crosses some H edge."""
    in_h = [False] * len(g.edges)
    chosen: list[int] = []
    excluded: list[int] = []
    adjacency = c.adjacency
    for i in range(len(g.edges)):
        if i in adjacency and any(in_h[j] for j in adjacency[i]):
            excluded.append(i)
        else:
            chosen.append(i)
            in_h[i] = True
    return chosen, excluded


def _rotation(pts, g: Graph, h_edges: list[int]) -> list[list[tuple]]:
    """For each vertex v, (w, dx, dy, area) for each H neighbour w in ccw
    order, (dx, dy) the direction to w and ``area`` the shoelace term
    xw*yv - xv*yw of the dart (w, v), computed once per H edge: that of
    (v, w) is its negative.  Directions with dy > 0 or (dy = 0, dx > 0)
    come first; within one half-plane d1 precedes d2 iff d1 x d2 > 0 (the
    drawing is simple, so no two H edges at a vertex point the same way)."""
    upper: list[list[tuple]] = [[] for _ in range(g.n)]
    lower: list[list[tuple]] = [[] for _ in range(g.n)]
    edges = g.edges
    for i in h_edges:
        u, v = edges[i]
        (ux, uy), (vx, vy) = pts[u], pts[v]
        area = ux * vy - vx * uy
        for a, b, dx, dy, term in ((u, v, vx - ux, vy - uy, -area),
                                   (v, u, ux - vx, uy - vy, area)):
            half = upper[a] if dy > 0 or (dy == 0 and dx > 0) else lower[a]
            at = len(half)
            while at:
                _w, ex, ey, _term = half[at - 1]
                if ex * dy - ey * dx > 0:
                    break
                at -= 1
            half.insert(at, (b, dx, dy, term))
    return [up + low for up, low in zip(upper, lower)]


class Walk(NamedTuple):
    """One closed boundary walk, as a tuple of darts (u, v).  ``area2`` is
    its doubled signed area on the drawing's integer points: positive
    exactly for the ccw outer walk of a bounded face."""

    darts: tuple[tuple[int, int], ...]
    area2: int


class Face(NamedTuple):
    id: int
    bounded: bool
    outer: Walk | None
    holes: tuple[Walk, ...]
    isolated: tuple[int, ...]
    complexity: int
    chains: int


class FaceSet(NamedTuple):
    """The faces of H, ids in ``faces`` order, and ``dart_face``: the id of
    the face on the left of each dart (u, v) of an H edge.  An isolated
    vertex of H lies in the face whose ``isolated`` lists it, and counts as
    one of H's ``components``."""

    faces: tuple[Face, ...]
    dart_face: dict
    components: int


def trace_faces(d: StraightLineDrawing, h_edges: list[int]) -> FaceSet:
    """Faces of the plane subgraph: rotation-system walks grouped into
    faces by exact containment.  The drawing must be simple (reading
    ``d.crossings`` raises otherwise).  Fails loudly if a crossing pair has
    both edges in H."""
    in_h = set(h_edges)
    if any(i in in_h and j in in_h for i, j in d.crossings.pairs):
        raise ValueError("trace_faces requires a crossing-free edge set")
    g = d.graph
    pts = d.points
    rot = _rotation(pts, g, h_edges)
    # face-on-left traversal: dart (u, v) is followed by (v, w), w the
    # ccw-predecessor of u around v; each dart is kept with its area term
    succ = {}
    for v, ring in enumerate(rot):
        for at, (u, _dx, _dy, area) in enumerate(ring):
            succ[u, v] = ring[at - 1][0], area

    outer_walks: list[tuple[tuple[int, int], Walk]] = []  # (least dart, walk)
    hole_walks: list[tuple[tuple[int, int], Walk]] = []
    for i in h_edges:
        u, v = g.edges[i]
        for start in ((u, v), (v, u)):
            if start not in succ:
                continue
            darts = []
            area2 = 0
            a, b = start
            step = succ.pop(start)
            while step is not None:
                darts.append((a, b))
                w, area = step
                area2 += area
                a, b = b, w
                step = succ.pop((a, b), None)
            darts = tuple(darts)
            (outer_walks if area2 > 0 else hole_walks).append(
                (min(darts), Walk(darts, area2)))

    isolated = [v for v in range(g.n) if not rot[v]]
    comp = _component_ids(g, h_edges)
    # the bounded faces in order of their least dart; each face's holes in
    # order of their least dart, its isolated vertices ascending
    outer_walks.sort()
    hole_walks.sort()

    def contains(walk: Walk, v: int) -> bool:
        # upward-ray crossing parity, half-open in x so vertices never double
        p = pts[v]
        cnt = 0
        for a, b in walk.darts:
            xa, xb = pts[a][0], pts[b][0]
            if xa <= p[0] < xb:
                if orient(pts[a], pts[b], p) < 0:
                    cnt += 1
            elif xb <= p[0] < xa:
                if orient(pts[a], pts[b], p) > 0:
                    cnt += 1
        return cnt % 2 == 1

    def innermost(v: int) -> int | None:
        # chains of one face lie in distinct components, so walks of the
        # point's own component are never candidates (the point would sit on
        # their boundary and parity would be meaningless)
        best = None
        for wi, (least, w) in enumerate(outer_walks):
            if comp[least[0]] == comp[v]:
                continue
            if contains(w, v):
                if best is None or w.area2 < outer_walks[best][1].area2:
                    best = wi
        return best

    hole_of: dict[int | None, list[Walk]] = {}
    for least, w in hole_walks:
        hole_of.setdefault(innermost(least[0]), []).append(w)
    iso_of: dict[int | None, list[int]] = {}
    for v in isolated:
        iso_of.setdefault(innermost(v), []).append(v)

    faces: list[Face] = []
    dart_face: dict = {}
    # the bounded faces, then the unbounded one: every chain of it is a
    # hole, there is no outer walk
    for fid, wi in enumerate(list(range(len(outer_walks))) + [None]):
        outer = None if wi is None else outer_walks[wi][1]
        holes = tuple(hole_of.get(wi, ()))
        iso = tuple(iso_of.get(wi, ()))
        chains = holes if outer is None else (outer,) + holes
        complexity = 0
        for w in chains:
            complexity += len(w.darts)
            dart_face.update(dict.fromkeys(w.darts, fid))
        faces.append(Face(fid, outer is not None, outer, holes, iso, complexity,
                          len(chains) + len(iso)))
    return FaceSet(tuple(faces), dart_face, len(set(comp)))


def _component_ids(g: Graph, h_edges: list[int]) -> list[int]:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in h_edges:
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(v) for v in range(g.n)]


def component_count(g: Graph, h_edges: list[int]) -> int:
    return len(set(_component_ids(g, h_edges)))


class ArrowRecord(NamedTuple):
    """Initial segment of excluded edge ``edge`` from ``start``: it lives in
    face ``face`` of H and first crosses H edge ``first_hit`` at parameter
    ``t`` along the excluded edge."""

    edge: int
    start: int
    face: int
    first_hit: int
    t: Fraction


def intersection_param(u, w, p, q) -> Fraction:
    """Exact parameter t of the crossing point along segment u -> w with the
    line through p, q (integer points)."""
    ex, ey = q[0] - p[0], q[1] - p[1]
    # t = ((p-u) x (q-p)) / ((w-u) x (q-p))
    num = (p[0] - u[0]) * ey - (p[1] - u[1]) * ex
    den = (w[0] - u[0]) * ey - (w[1] - u[1]) * ex
    return Fraction(num, den)


def arrowize(
    d: StraightLineDrawing,
    h_edges: list[int],
    k_edges: list[int],
    faceset: FaceSet,
) -> list[ArrowRecord]:
    """Two arrows per excluded edge, one from each endpoint, each charged to
    the face of H that holds its initial segment.

    The open segment from the start s to the first H edge (a, b) it crosses
    meets no H edge and no vertex (the drawing is simple), so it lies in one
    face: the one left of the dart of (a, b) that has s on its left.  The
    crossing is proper, so s is never on the line through a and b.

    Each hit is at t = num / den as in ``intersection_param``, compared by
    cross-multiplication with den > 0 in ascending edge order (the lowest
    index wins a tie); the sign of the unnormalized num is orient(a, b, s)."""
    edges = d.graph.edges
    adjacency = d.crossings.adjacency
    pts = d.points
    dart_face = faceset.dart_face
    in_h = set(h_edges)
    records = []
    for ke in k_edges:
        u, w = edges[ke]
        hits = [h for h in adjacency.get(ke, ()) if h in in_h]
        if not hits:
            raise ValueError(f"excluded edge {ke} crosses no H edge: H is not maximal")
        for s, e in ((u, w), (w, u)):
            (sx, sy), (ex, ey) = pts[s], pts[e]
            best = None
            for h in hits:
                a, b = edges[h]
                (ax, ay), (bx, by) = pts[a], pts[b]
                hx, hy = bx - ax, by - ay
                num = (ax - sx) * hy - (ay - sy) * hx
                den = (ex - sx) * hy - (ey - sy) * hx
                s_left = num > 0
                if den < 0:
                    num, den = -num, -den
                if best is None or num * best_den < best_num * den:
                    best, best_num, best_den, best_left = h, num, den, s_left
            a, b = edges[best]
            face = dart_face[(a, b) if best_left else (b, a)]
            records.append(ArrowRecord(ke, s, face, best, Fraction(best_num, best_den)))
    return records


class FaceAudit(NamedTuple):
    face: int
    complexity: int
    chains: int
    arrows: int
    k: int
    bound: int
    passed: bool


class DecompositionReport(NamedTuple):
    n: int
    h_edges: tuple[int, ...]
    k_edges: tuple[int, ...]
    arrows: tuple[ArrowRecord, ...]
    face_audits: tuple[FaceAudit, ...]
    faces: int
    components: int
    sum_complexity_ok: bool
    sum_chains_ok: bool
    euler_ok: bool
    edge_bound: int
    edge_bound_ok: bool
    falsifications: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.falsifications


def face_arrow_bound(complexity: int, chains: int, k: int) -> int:
    """Per-face arrow bound: 3m + 8p - 16 for k = 2, otherwise
    3(k-1)(m + 2p - 4) - 2m + 3."""
    if k == 2:
        return 3 * complexity + 8 * chains - 16
    return 3 * (k - 1) * (complexity + 2 * chains - 4) - 2 * complexity + 3


def _plane_split(
    d: StraightLineDrawing | AbstractDrawing, k: int
) -> tuple[list[int], list[int]]:
    """The H/K split of ``maximal_plane_subgraph`` for a drawing the audits
    accept: n >= 3 (checked before ``d.crossings`` is read) and no k-fan."""
    g = d.graph
    if g.n < 3:
        raise ValueError("audit needs n >= 3 (the bounds assume it)")
    c = d.crossings
    fans = find_k_fans(g, c, k)
    if fans:
        raise ValueError(f"drawing is not {k}-fan-crossing free (witness: {fans[0]})")
    return maximal_plane_subgraph(g, c)


def audit(d: StraightLineDrawing, k: int = 2) -> DecompositionReport:
    """Full decomposition audit of a k-fan-crossing free straight-line
    drawing.  Any failed face bound, broken counting identity, or edge
    count above ``bounds.edge_limit`` (straight-line) is recorded as a
    falsification.  A drawing that is not simple raises SimplicityError
    from ``d.crossings``."""
    g = d.graph
    h_edges, k_edges = _plane_split(d, k)
    faceset = trace_faces(d, h_edges)
    arrows = arrowize(d, h_edges, k_edges, faceset)

    falsifications: list[str] = []
    per_face: dict[int, int] = {}
    for rec in arrows:
        per_face[rec.face] = per_face.get(rec.face, 0) + 1
    audits = []
    for f in faceset.faces:
        a_f = per_face.get(f.id, 0)
        bound = face_arrow_bound(f.complexity, f.chains, k)
        passed = a_f <= bound
        if not passed:
            falsifications.append(
                f"face {f.id} has {a_f} arrows, above its bound {bound}"
            )
        audits.append(FaceAudit(f.id, f.complexity, f.chains, a_f, k, bound, passed))

    comps = faceset.components
    r = len(faceset.faces)
    sum_m = sum(f.complexity for f in faceset.faces)
    sum_p = sum(f.chains - 1 for f in faceset.faces)
    sum_m_ok = sum_m == 2 * len(h_edges)
    sum_p_ok = sum_p == comps - 1
    euler_ok = g.n - len(h_edges) + r == 1 + comps
    if not sum_m_ok:
        falsifications.append(f"sum of face complexities {sum_m} != 2|H|")
    if not sum_p_ok:
        falsifications.append(f"sum of (p(f)-1) = {sum_p} != components-1")
    if not euler_ok:
        falsifications.append("Euler identity n - |H| + r = 1 + p failed")
    bound = edge_limit(g.n, k, straight=True)
    bound_ok = len(g.edges) <= bound
    if not bound_ok:
        falsifications.append(
            f"{len(g.edges)} edges on {g.n} vertices exceeds the proven bound {bound}"
        )
    return DecompositionReport(
        n=g.n,
        h_edges=tuple(h_edges),
        k_edges=tuple(k_edges),
        arrows=tuple(arrows),
        face_audits=tuple(audits),
        faces=r,
        components=comps,
        sum_complexity_ok=sum_m_ok,
        sum_chains_ok=sum_p_ok,
        euler_ok=euler_ok,
        edge_bound=bound,
        edge_bound_ok=bound_ok,
        falsifications=tuple(falsifications),
    )


def audit_abstract(d: AbstractDrawing, k: int = 2) -> dict:
    """Edge-count audit for drawings without coordinates: H/K split and the
    check against ``bounds.edge_limit`` only (faces need an embedding)."""
    g = d.graph
    h_edges, k_edges = _plane_split(d, k)
    bound = edge_limit(g.n, k)
    return {
        "n": g.n,
        "h_edges": len(h_edges),
        "k_edges": len(k_edges),
        "arrows": 2 * len(k_edges),
        "edge_bound": bound,
        "edge_bound_ok": len(g.edges) <= bound,
    }


def report_to_json(rep: DecompositionReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": rep.n,
        "h_edges": list(rep.h_edges),
        "k_edges": list(rep.k_edges),
        "arrows": [
            {**a._asdict(), "t": [a.t.numerator, a.t.denominator]} for a in rep.arrows
        ],
        "faces": [
            {
                "face": fa.face,
                "complexity": fa.complexity,
                "chains": fa.chains,
                "arrows": fa.arrows,
                "bound": fa.bound,
                "passed": fa.passed,
            }
            for fa in rep.face_audits
        ],
        "components": rep.components,
        "sum_complexity_ok": rep.sum_complexity_ok,
        "sum_chains_ok": rep.sum_chains_ok,
        "euler_ok": rep.euler_ok,
        "edge_bound": rep.edge_bound,
        "edge_bound_ok": rep.edge_bound_ok,
        "falsifications": list(rep.falsifications),
        "ok": rep.ok,
    }
