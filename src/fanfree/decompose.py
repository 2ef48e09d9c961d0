"""Decomposition of a fan-free drawing: greedy maximal plane subgraph H,
face tracing of H from the exact rotation system, replacement of each
excluded edge by two arrows, and the per-face / global bound audits.

Face complexity counts an edge twice when it bounds the face on both
sides; boundary chains of a face are its closed walks (isolated vertices
degenerate to zero-length chains).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    AbstractDrawing,
    CrossingRelation,
    Graph,
    StraightLineDrawing,
)
from .crossings import (
    compute_crossings,
    find_k_fans,
    integer_points,
    orient,
    validate_simplicity,
)


def maximal_plane_subgraph(
    g: Graph, c: CrossingRelation
) -> tuple[list[int], list[int]]:
    """Greedy crossing-free edge set H (ascending edge index) and the
    excluded set K.  H is maximal: every excluded edge crosses some H edge."""
    in_h = [False] * len(g.edges)
    chosen: list[int] = []
    excluded: list[int] = []
    for i in range(len(g.edges)):
        if any(in_h[j] for j in c.adjacency.get(i, ())):
            excluded.append(i)
        else:
            chosen.append(i)
            in_h[i] = True
    return chosen, excluded


def _half(d) -> int:
    dx, dy = d
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def _direction_cmp(d1, d2) -> int:
    """Comparator for ccw angular order of direction vectors around a vertex."""
    h1, h2 = _half(d1), _half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


_DIRECTION_KEY = functools.cmp_to_key(_direction_cmp)


def _sorted_rotation(pts, g: Graph, h_edges: list[int]):
    """For each vertex the ccw-sorted list of (neighbor, edge index) of H,
    on the drawing's integer points."""
    rot: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i in h_edges:
        u, v = g.edges[i]
        rot[u].append((v, i))
        rot[v].append((u, i))
    for v, darts in enumerate(rot):
        px, py = pts[v]
        darts.sort(key=lambda dart: _DIRECTION_KEY(
            (pts[dart[0]][0] - px, pts[dart[0]][1] - py)))
    return rot


@dataclass(frozen=True)
class Walk:
    """One closed boundary walk, as a tuple of darts (u, v).  ``area2`` is
    its doubled signed area on the drawing's integer points: positive
    exactly for the ccw outer walk of a bounded face."""

    darts: tuple[tuple[int, int], ...]
    area2: int

    @property
    def rep_vertex(self) -> int:
        return min(u for u, _v in self.darts)


@dataclass(frozen=True)
class Face:
    id: int
    bounded: bool
    outer: Walk | None
    holes: tuple[Walk, ...]
    isolated: tuple[int, ...]
    complexity: int
    chains: int


@dataclass(frozen=True)
class FaceSet:
    faces: tuple[Face, ...]
    dart_face: dict
    vertex_face: dict  # isolated vertex -> face id
    rotation: list  # vertex -> ccw-sorted (neighbor, edge index) of H


def trace_faces(
    d: StraightLineDrawing, h_edges: list[int], c: CrossingRelation | None = None
) -> FaceSet:
    """Faces of the plane subgraph: rotation-system walks grouped into
    faces by exact containment.  The drawing must be simple (``audit``
    validates it first); ``c`` is its crossing relation, computed here when
    not given.  Fails loudly if a pair of ``c`` has both edges in H."""
    g = d.graph
    if c is None:
        c = compute_crossings(d)
    in_h = set(h_edges)
    if any(i in in_h and j in in_h for i, j in c.pairs):
        raise ValueError("trace_faces requires a crossing-free edge set")

    pts = integer_points(d)
    rot = _sorted_rotation(pts, g, h_edges)
    rot_pos = [
        {nbr: k for k, (nbr, _e) in enumerate(r)} for r in rot
    ]

    walks: list[Walk] = []
    seen: set[tuple[int, int]] = set()
    for i in h_edges:
        for u, v in (g.edges[i], g.edges[i][::-1]):
            if (u, v) in seen:
                continue
            darts = []
            cu, cv = u, v
            while (cu, cv) not in seen:
                seen.add((cu, cv))
                darts.append((cu, cv))
                # face-on-left traversal: turn to the ccw-predecessor of the
                # dart pointing back where we came from
                pos = rot_pos[cv][cu]
                nxt = rot[cv][(pos - 1) % len(rot[cv])][0]
                cu, cv = cv, nxt
            area2 = 0
            for a, b in darts:
                (xa, ya), (xb, yb) = pts[a], pts[b]
                area2 += xa * yb - xb * ya
            walks.append(Walk(tuple(darts), area2))

    in_h = set()
    for i in h_edges:
        in_h.update(g.edges[i])
    isolated = [v for v in range(g.n) if v not in in_h]

    comp = _component_ids(g, h_edges)
    outer_walks = [w for w in walks if w.area2 > 0]
    hole_walks = [w for w in walks if w.area2 <= 0]
    outer_comp = [comp[w.rep_vertex] for w in outer_walks]

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
        for wi, w in enumerate(outer_walks):
            if outer_comp[wi] == comp[v]:
                continue
            if contains(w, v):
                if best is None or w.area2 < outer_walks[best].area2:
                    best = wi
        return best

    hole_of: dict[int | None, list[Walk]] = {}
    for w in hole_walks:
        hole_of.setdefault(innermost(w.rep_vertex), []).append(w)
    iso_of: dict[int | None, list[int]] = {}
    for v in isolated:
        iso_of.setdefault(innermost(v), []).append(v)

    order = sorted(range(len(outer_walks)), key=lambda wi: min(outer_walks[wi].darts))
    faces: list[Face] = []
    dart_face: dict = {}
    vertex_face: dict = {}
    for fid, wi in enumerate(order):
        outer = outer_walks[wi]
        holes = tuple(sorted(hole_of.get(wi, []), key=lambda w: min(w.darts)))
        iso = tuple(sorted(iso_of.get(wi, [])))
        complexity = len(outer.darts) + sum(len(w.darts) for w in holes)
        chains = 1 + len(holes) + len(iso)
        faces.append(Face(fid, True, outer, holes, iso, complexity, chains))
        for dart in outer.darts:
            dart_face[dart] = fid
        for w in holes:
            for dart in w.darts:
                dart_face[dart] = fid
        for v in iso:
            vertex_face[v] = fid
    # unbounded face: every chain is a hole, there is no outer walk
    fid = len(order)
    holes = tuple(sorted(hole_of.get(None, []), key=lambda w: min(w.darts)))
    iso = tuple(sorted(iso_of.get(None, [])))
    complexity = sum(len(w.darts) for w in holes)
    faces.append(Face(fid, False, None, holes, iso, complexity, len(holes) + len(iso)))
    for w in holes:
        for dart in w.darts:
            dart_face[dart] = fid
    for v in iso:
        vertex_face[v] = fid
    return FaceSet(tuple(faces), dart_face, vertex_face, rot)


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


@dataclass(frozen=True)
class ArrowRecord:
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


def _first_hit(pts, edges, u, w, hits: list[int]) -> tuple[Fraction, int]:
    """Parameter and index of the first of the H edges ``hits`` met going
    from u to w; the lowest index wins a tie."""
    a, b = pts[u], pts[w]
    return min(
        (intersection_param(a, b, pts[edges[h][0]], pts[edges[h][1]]), h)
        for h in hits
    )


def arrowize(
    d: StraightLineDrawing,
    h_edges: list[int],
    k_edges: list[int],
    faceset: FaceSet,
    c: CrossingRelation,
) -> list[ArrowRecord]:
    """Two arrows per excluded edge, each assigned to the face of H that
    contains the initial segment at its endpoint.  ``c`` is the drawing's
    crossing relation."""
    g = d.graph
    pts = integer_points(d)
    in_h = set(h_edges)
    records = []
    for ke in k_edges:
        u, w = g.edges[ke]
        hits = [h for h in c.adjacency.get(ke, ()) if h in in_h]
        if not hits:
            raise ValueError(f"excluded edge {ke} crosses no H edge: H is not maximal")
        for s, t_ in ((u, w), (w, u)):
            tpar, hedge = _first_hit(pts, g.edges, s, t_, hits)
            face = _wedge_face(pts, faceset, s, t_)
            records.append(ArrowRecord(ke, s, face, hedge, tpar))
    return records


def _wedge_face(pts, faceset: FaceSet, s, towards):
    """Face of H containing the ray from vertex s toward ``towards``."""
    darts = faceset.rotation[s]
    if not darts:
        return faceset.vertex_face[s]
    px, py = pts[s]
    tx, ty = pts[towards]
    dvec = (tx - px, ty - py)
    # predecessor dart of dvec in ccw order; the wedge it opens belongs to
    # the face left of that dart
    best = None
    for nbr, _e in darts:
        nx, ny = pts[nbr]
        nvec = (nx - px, ny - py)
        if best is None:
            best = nbr
            continue
        bx, by = pts[best]
        bvec = (bx - px, by - py)
        # is nvec a later predecessor than bvec, i.e. bvec < nvec <= dvec cyclically?
        if _cyclic_le(bvec, nvec, dvec):
            best = nbr
    return faceset.dart_face[(s, best)]


def _cyclic_le(lo, mid, hi) -> bool:
    """mid in the half-open ccw arc (lo, hi]."""
    a = _direction_cmp(lo, mid)
    b = _direction_cmp(mid, hi)
    c = _direction_cmp(lo, hi)
    if c < 0:
        return a < 0 and b <= 0
    return a < 0 or b <= 0


@dataclass(frozen=True)
class FaceAudit:
    face: int
    complexity: int
    chains: int
    arrows: int
    k: int
    bound: int
    passed: bool


@dataclass(frozen=True)
class DecompositionReport:
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


def global_edge_bound(n: int, k: int) -> int:
    return 4 * n - 8 if k == 2 else 3 * (k - 1) * (n - 2)


def audit(d: StraightLineDrawing, k: int = 2) -> DecompositionReport:
    """Full decomposition audit of a k-fan-crossing free straight-line
    drawing.  Any failed face bound, broken counting identity, or edge
    bound violation is recorded as a falsification."""
    g = d.graph
    if g.n < 3:
        raise ValueError("audit needs n >= 3 (the bounds assume it)")
    rep = validate_simplicity(d)
    if not rep.ok:
        raise ValueError(f"drawing is not simple: {rep.violations[0]}")
    c = compute_crossings(d)
    fans = find_k_fans(g, c, k)
    if fans:
        raise ValueError(
            f"drawing is not {k}-fan-crossing free (witness: {fans[0]})"
        )
    h_edges, k_edges = maximal_plane_subgraph(g, c)
    faceset = trace_faces(d, h_edges, c)
    arrows = arrowize(d, h_edges, k_edges, faceset, c)

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

    comps = component_count(g, h_edges)
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
    bound = global_edge_bound(g.n, k)
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
    global bound check only (faces need an embedding)."""
    g = d.graph
    if g.n < 3:
        raise ValueError("audit needs n >= 3 (the bounds assume it)")
    fans = find_k_fans(g, d.crossings, k)
    if fans:
        raise ValueError(f"drawing is not {k}-fan-crossing free (witness: {fans[0]})")
    h_edges, k_edges = maximal_plane_subgraph(g, d.crossings)
    bound = global_edge_bound(g.n, k)
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
        "schema": 1,
        "n": rep.n,
        "h_edges": list(rep.h_edges),
        "k_edges": list(rep.k_edges),
        "arrows": [
            {
                "edge": a.edge,
                "start": a.start,
                "face": a.face,
                "first_hit": a.first_hit,
                "t": [a.t.numerator, a.t.denominator],
            }
            for a in rep.arrows
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
