import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest

from fanfree.bounds import check_graph_against_bounds
from fanfree.crossings import SimplicityError, compute_crossings, validate_simplicity
from fanfree.constructions import (
    gen_grid,
    gen_kq_subdivision,
    gen_quad_extremal,
    gen_straight_extremal,
    gen_tri_plus_dual,
)
from fanfree.decompose import (
    _rotation,
    arrowize,
    audit,
    audit_abstract,
    component_count,
    face_arrow_bound,
    maximal_plane_subgraph,
    report_to_json,
    trace_faces,
)
from fanfree.model import (
    AbstractDrawing,
    CrossingRelation,
    FanWitness,
    Graph,
    StraightLineDrawing,
)
from fanfree.repro import random_drawing, random_fan_free_drawing

from conftest import F, big_affine


def x_drawing():
    return StraightLineDrawing.from_coords(
        Graph(4, ((0, 2), (1, 3))), (F(0, 0), F(2, 0), F(2, 2), F(0, 2))
    )


def test_greedy_keeps_everything_when_crossing_free(triangle):
    h, k = maximal_plane_subgraph(triangle.graph, compute_crossings(triangle))
    assert h == [0, 1, 2] and k == []


def test_greedy_prefers_lower_index():
    d = x_drawing()
    h, k = maximal_plane_subgraph(d.graph, compute_crossings(d))
    assert h == [0] and k == [1]


def test_greedy_on_quad_extremal_n8():
    d = gen_quad_extremal(8)
    h, k = maximal_plane_subgraph(d.graph, d.crossings)
    assert len(h) == 18 and len(k) == 6  # skeleton plus one diagonal per face


def test_greedy_is_maximal():
    rng = random.Random(11)
    for _ in range(30):
        d = random_fan_free_drawing(rng)
        c = compute_crossings(d)
        h, k = maximal_plane_subgraph(d.graph, c)
        for e in k:
            assert any(c.crosses(e, x) for x in h)


def test_trace_faces_triangle(triangle):
    faces = trace_faces(triangle, [0, 1, 2]).faces
    assert [(f.bounded, f.complexity, f.chains) for f in faces] == [
        (True, 3, 1),
        (False, 3, 1),
    ]


def test_trace_faces_disjoint_triangles():
    d = StraightLineDrawing.from_coords(
        Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
        (F(0, 0), F(4, 0), F(0, 4), F(10, 0), F(14, 0), F(10, 4)),
    )
    faces = trace_faces(d, list(range(6))).faces
    outer = [f for f in faces if not f.bounded][0]
    assert (outer.complexity, outer.chains) == (6, 2)
    assert sorted((f.complexity, f.chains) for f in faces if f.bounded) == [
        (3, 1), (3, 1)
    ]


def test_trace_faces_path():
    d = StraightLineDrawing.from_coords(Graph(3, ((0, 1), (1, 2))), (F(0, 0), F(4, 0), F(8, 1)))
    faces = trace_faces(d, [0, 1]).faces
    assert [(f.bounded, f.complexity, f.chains) for f in faces] == [(False, 4, 1)]


def test_trace_faces_rejects_crossing_input():
    d = x_drawing()
    with pytest.raises(ValueError):
        trace_faces(d, [0, 1])


def test_arrowize_x_crossing():
    d = x_drawing()
    h, k = maximal_plane_subgraph(d.graph, d.crossings)
    faceset = trace_faces(d, h)
    records = arrowize(d, h, k, faceset)
    assert len(records) == 2  # one arrow per endpoint of the excluded edge
    assert {r.start for r in records} == {1, 3}
    assert all(r.first_hit == 0 for r in records)


def test_arrow_faces_touch_their_start_vertex():
    rng = random.Random(12)
    for _ in range(25):
        d = random_fan_free_drawing(rng)
        h, k = maximal_plane_subgraph(d.graph, d.crossings)
        faceset = trace_faces(d, h)
        for rec in arrowize(d, h, k, faceset):
            face = faceset.faces[rec.face]
            verts = set(face.isolated)
            for walk in ((face.outer,) if face.outer else ()) + face.holes:
                for u, v in walk.darts:
                    verts.add(u)
            assert rec.start in verts


def _inside(pts, walk, p) -> bool:
    """Exact parity of a rightward ray from p (never on the walk) across the
    walk's edges, half-open in y so a vertex on the ray counts once."""
    inside = False
    for a, b in walk.darts:
        (xa, ya), (xb, yb) = pts[a], pts[b]
        if (ya > p[1]) != (yb > p[1]):
            if p[0] < xa + (p[1] - ya) * Fraction(xb - xa, yb - ya):
                inside = not inside
    return inside


def test_arrow_initial_segment_lies_in_its_face():
    # the midpoint of each arrow's initial segment, s + (t/2)(w - s), lies in
    # the region of its face: inside the outer walk of a bounded face and
    # inside none of the face's hole walks
    rng = random.Random(14)
    drawings = [random_fan_free_drawing(rng, max_n=rng.choice((8, 20)))
                for _ in range(40)]
    # gen_grid(6, 4) is a crossing-free triangulated grid (no arrows, every
    # vertex in H); gen_grid(6, 5) adds crossing diagonals
    drawings += [gen_straight_extremal(13), gen_grid(6, 4), gen_grid(6, 5)]
    isolated_starts = 0
    for d in drawings:
        pts = d.points
        h, k = maximal_plane_subgraph(d.graph, d.crossings)
        in_h = {v for i in h for v in d.graph.edges[i]}
        faceset = trace_faces(d, h)
        for rec in arrowize(d, h, k, faceset):
            u, w = d.graph.edges[rec.edge]
            end = w if rec.start == u else u
            (sx, sy), (ex, ey) = pts[rec.start], pts[end]
            mid = (sx + rec.t / 2 * (ex - sx), sy + rec.t / 2 * (ey - sy))
            face = faceset.faces[rec.face]
            assert face.outer is None or _inside(pts, face.outer, mid)
            assert not any(_inside(pts, hole, mid) for hole in face.holes)
            isolated_starts += rec.start not in in_h
    assert isolated_starts > 0


def test_face_arrow_bound_values():
    assert face_arrow_bound(3, 1, 2) == 1
    assert face_arrow_bound(3, 1, 3) == 3  # matches the 3-gon class bound
    assert face_arrow_bound(6, 2, 2) == 18


def test_audit_straight_extremal_structure():
    for n in (6, 9, 13):
        rep = audit(gen_straight_extremal(n), 2)
        assert rep.ok
        assert rep.faces == 2 * n - 4
        assert all(fa.complexity == 3 and fa.chains == 1 for fa in rep.face_audits)
        arrows = sorted(fa.arrows for fa in rep.face_audits)
        # every triangle of the plane skeleton carries one arrow, except the
        # two faces coming from the skeleton's triangle faces
        assert arrows == [0, 0] + [1] * (2 * n - 6)


def test_audit_crossing_free_input(triangle):
    rep = audit(triangle, 2)
    assert rep.ok and all(fa.arrows == 0 for fa in rep.face_audits)


def test_audit_random_fan_free():
    rng = random.Random(13)
    for _ in range(30):
        rep = audit(random_fan_free_drawing(rng), 2)
        assert rep.ok
        assert rep.sum_complexity_ok and rep.sum_chains_ok and rep.euler_ok


def test_audit_rejects_fan_crossing_input(fan_fixture):
    with pytest.raises(ValueError):
        audit(fan_fixture, 2)


def test_audit_rejects_tiny_n():
    d = StraightLineDrawing.from_coords(Graph(2, ((0, 1),)), (F(0, 0), F(1, 0)))
    with pytest.raises(ValueError):
        audit(d, 2)


def test_audit_abstract_quad_extremal():
    rep = audit_abstract(gen_quad_extremal(12), 2)
    assert rep["edge_bound_ok"]
    assert rep["h_edges"] == 3 * 12 - 6
    assert rep["arrows"] == 2 * rep["k_edges"]
    # the same front end as ``audit``: n >= 3, and no k-fan
    with pytest.raises(ValueError, match="n >= 3"):
        audit_abstract(AbstractDrawing(Graph(2, ((0, 1),)), CrossingRelation()), 2)
    fan = AbstractDrawing(
        Graph(5, ((0, 1), (0, 2), (3, 4))), CrossingRelation(frozenset({(0, 2), (1, 2)}))
    )
    with pytest.raises(ValueError, match="not 2-fan-crossing free"):
        audit_abstract(fan, 2)


def test_component_count():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    assert component_count(g, [0, 1, 2]) == 2
    assert component_count(g, []) == 5


def test_euler_identity_on_extremal_family():
    for n in (7, 10, 14):
        d = gen_straight_extremal(n)
        rep = audit(d, 2)
        assert rep.n - len(rep.h_edges) + rep.faces == 1 + rep.components


def test_trace_faces_with_relation_rejects_crossing_pair():
    d = x_drawing()
    with pytest.raises(ValueError):
        trace_faces(d, [0, 1])
    # a pair with one edge outside H is allowed: H = {0} leaves one face,
    # holding the segment and the two endpoints of edge 1 as isolated vertices
    faces = trace_faces(d, [0]).faces
    assert [(f.bounded, f.complexity, f.chains, f.isolated) for f in faces] == [
        (False, 2, 3, (1, 3))
    ]


def test_audit_computes_the_crossing_relation_once(monkeypatch):
    # the generator's self-check reads d.crossings and audit reuses it; the
    # integer points are stored once per drawing and every reader after the
    # constructor shares the stored tuple
    import fanfree.crossings as cr

    calls = Counter()
    drawings = set()

    def counting(name, real):
        def counted(d):
            calls[name] += 1
            drawings.add(id(d))
            return real(d)
        return counted

    reads = []  # (drawing id, the tuple read)

    class Points:
        def __get__(self, d, owner=None):
            if d is None:
                return self
            reads.append((id(d), d.__dict__["points"]))
            return d.__dict__["points"]

        def __set__(self, d, value):
            d.__dict__["points"] = value

    for name in ("compute_crossings", "validate_simplicity"):
        monkeypatch.setattr(cr, name, counting(name, getattr(cr, name)))
    monkeypatch.setattr(StraightLineDrawing, "points", Points())
    for generate, k in ((lambda: gen_straight_extremal(9), 2), (lambda: gen_grid(6, 5), 5)):
        calls.clear()
        drawings.clear()
        reads.clear()
        d = generate()
        assert audit(d, k).ok
        assert calls == {"compute_crossings": 1, "validate_simplicity": 1}
        assert drawings == {id(d)}
        # the first read is the constructor's own, of the tuple it was given
        stored = d.__dict__["points"]
        assert len(reads) > 1 and {i for i, _ in reads} == {id(d)}
        assert all(p is stored for _, p in reads[1:])


def test_crossings_are_cached_on_the_drawing():
    d = x_drawing()
    assert d.crossings is d.crossings
    assert d.crossings.pairs == {(0, 1)}


def test_non_simple_drawing_has_no_crossing_relation():
    # two vertices on one point: validate_simplicity names the first
    # violation, and neither the relation nor an audit exists
    d = StraightLineDrawing.from_coords(
        Graph(4, ((0, 1), (2, 3))), (F(0, 0), F(2, 0), F(0, 0), F(1, 3))
    )
    with pytest.raises(SimplicityError, match="coincident-vertices"):
        d.crossings
    with pytest.raises(SimplicityError):
        audit(d, 2)


# sha256 of the sorted-key JSON of every case's ``report_to_json(audit(d, k))``.
# Every field but ``edge_bound`` was recorded from the audit that sorted each
# rotation with a comparator, looked darts up in per-vertex position dicts and
# built one Fraction per candidate first hit; ``edge_bound`` is
# ``bounds.edge_limit``, one lower at k = 2 than the 4n-8 that audit reported
AUDIT_PINNED_DIGEST = "4b28a1988284c66ee61e05a56c6331a4e32d78add44fc33fd7afd3d5839c69a8"


def pinned_cases():
    """(drawing, k) of the pinned audits; the last is a seeded random
    drawing."""
    return [
        (gen_straight_extremal(31), 2),
        (gen_straight_extremal(120), 2),
        (gen_grid(8, 5), 5),
        (gen_kq_subdivision(5), 2),
        (gen_kq_subdivision(12), 2),
        (gen_tri_plus_dual(5, 6), 4),
        (random_drawing(random.Random(60)), 2),
    ]


def test_audit_outputs_are_pinned():
    """A faster audit must give the same report: the same H, arrows, first
    hits, parameters, faces and verdicts.  The seeded random drawing is
    fan-free, its H has several components and it has a vertex outside H."""
    cases = pinned_cases()
    loose = cases[-1][0]
    digest = hashlib.sha256()
    for d, k in cases:
        rep = audit(d, k)
        assert rep.ok
        digest.update(json.dumps(report_to_json(rep), sort_keys=True).encode())
    in_h = {v for i in rep.h_edges for v in loose.graph.edges[i]}
    assert rep.components >= 2 and len(in_h) < loose.graph.n and rep.arrows
    assert digest.hexdigest() == AUDIT_PINNED_DIGEST


def test_audit_faces_and_arrows_are_those_of_trace_faces():
    """On the pinned cases the audit's face records, and the arrow faces it
    reads off ``dart_face``, are those of ``trace_faces`` on its H."""
    for d, k in pinned_cases():
        rep = audit(d, k)
        h = list(rep.h_edges)
        faceset = trace_faces(d, h)
        assert [(fa.face, fa.complexity, fa.chains) for fa in rep.face_audits] == [
            (f.id, f.complexity, f.chains) for f in faceset.faces
        ]
        assert tuple(arrowize(d, h, list(rep.k_edges), faceset)) == rep.arrows


def test_audit_traces_faces_once_through_trace_faces(monkeypatch):
    """The faces of H have one entry point: an audit calls ``trace_faces``
    exactly once, on its H."""
    import fanfree.decompose as dec

    d = gen_grid(8, 5)
    calls = []

    def counted(d, h_edges):
        calls.append(list(h_edges))
        return trace_faces(d, h_edges)

    monkeypatch.setattr(dec, "trace_faces", counted)
    rep = audit(d, 5)
    assert calls == [list(rep.h_edges)]


def test_audit_records_are_immutable():
    """The per-walk, per-face, per-arrow and per-report records, the face
    set, the fan witness and the simplicity report reject attribute
    assignment."""
    d = gen_grid(6, 5)
    rep = audit(d, 5)
    faceset = trace_faces(d, list(rep.h_edges))
    face = faceset.faces[0]
    records = [rep, rep.arrows[0], rep.face_audits[0], faceset, face, face.outer,
               FanWitness(2, 0, (0, 1)), validate_simplicity(d)]
    assert {type(r).__name__ for r in records} == {
        "DecompositionReport", "ArrowRecord", "FaceAudit", "FaceSet", "Face",
        "Walk", "FanWitness", "SimplicityReport"}
    for rec in records:
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = None


def _bounds_limit(d, k) -> int:
    """The edge limit ``check_graph_against_bounds`` judges ``d`` by."""
    rep = check_graph_against_bounds(d, k)
    return rep.bound if rep.exact_extremal is None else min(rep.bound, rep.exact_extremal)


def test_audit_edge_bound_is_the_bounds_limit():
    """Both audits check the edge count against the limit ``bounds`` uses:
    at k = 2 a straight-line drawing is held to 4n-9, and to n(n-1)/2 at
    n <= 6."""
    for d, k in pinned_cases() + [(gen_straight_extremal(6), 2)]:
        assert audit(d, k).edge_bound == _bounds_limit(d, k)
    d = gen_quad_extremal(12)
    assert audit_abstract(d, 2)["edge_bound"] == _bounds_limit(d, 2) == 40
    assert audit(gen_straight_extremal(31), 2).edge_bound == 115
    assert audit(gen_straight_extremal(6), 2).edge_bound == 15


def _direction_cmp(d1, d2) -> int:
    """The comparator the rotation system was once sorted with: ccw order,
    starting at the direction (1, 0)."""

    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def _seeded_star(rng: random.Random, size: int) -> StraightLineDrawing:
    """Vertex 0 at the origin joined to ``size`` vertices in distinct
    primitive directions, scaled by random lengths.  The four axis
    directions and some opposite pairs are always among them."""
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    while len(dirs) < size:
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        if gcd(x, y) == 1 and (x, y) not in dirs:
            dirs.append((x, y))
            if rng.random() < 0.3 and (-x, -y) not in dirs:
                dirs.append((-x, -y))
    rng.shuffle(dirs)
    coords = [F(0, 0)]
    for x, y in dirs:
        length = rng.randint(1, 5)
        coords.append(F(x * length, y * length))
    g = Graph(len(coords), tuple((0, i) for i in range(1, len(coords))))
    return StraightLineDrawing.from_coords(g, tuple(coords))


def test_rotation_matches_the_direction_comparator():
    """The insertion kernel orders each vertex's H neighbours as a sort with
    the old comparator does, on seeded stars of integer directions and on
    the same stars with 100-bit coordinates; a positive affine map keeps
    the cyclic order."""
    rng = random.Random(1212)
    for _ in range(60):
        star = _seeded_star(rng, rng.randint(4, 24))
        h = list(range(len(star.graph.edges)))
        cyclic = None
        for d in (star, big_affine(star)):
            pts = d.points
            (cx, cy) = pts[0]
            want = sorted(range(1, d.graph.n), key=cmp_to_key(
                lambda a, b: _direction_cmp((pts[a][0] - cx, pts[a][1] - cy),
                                            (pts[b][0] - cx, pts[b][1] - cy))))
            rot = _rotation(pts, d.graph, h)
            assert [w for w, *_ in rot[0]] == want
            assert all([w for w, *_ in rot[v]] == [0] for v in range(1, d.graph.n))
            at = want.index(1)
            if cyclic is None:
                cyclic = want[at:] + want[:at]
            assert want[at:] + want[:at] == cyclic
    assert max(abs(c).bit_length() for p in pts for c in p) > 100
