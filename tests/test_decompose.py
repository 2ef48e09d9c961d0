import random

import pytest

from fanfree.crossings import compute_crossings
from fanfree.constructions import gen_quad_extremal, gen_straight_extremal
from fanfree.decompose import (
    arrowize,
    audit,
    audit_abstract,
    component_count,
    face_arrow_bound,
    maximal_plane_subgraph,
    trace_faces,
)
from fanfree.model import Graph, StraightLineDrawing
from fanfree.repro import random_fan_free_drawing

from conftest import F


def x_drawing():
    return StraightLineDrawing(
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
    d = StraightLineDrawing(
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
    d = StraightLineDrawing(Graph(3, ((0, 1), (1, 2))), (F(0, 0), F(4, 0), F(8, 1)))
    faces = trace_faces(d, [0, 1]).faces
    assert [(f.bounded, f.complexity, f.chains) for f in faces] == [(False, 4, 1)]


def test_trace_faces_rejects_crossing_input():
    d = x_drawing()
    with pytest.raises(ValueError):
        trace_faces(d, [0, 1])


def test_arrowize_x_crossing():
    d = x_drawing()
    c = compute_crossings(d)
    h, k = maximal_plane_subgraph(d.graph, c)
    faceset = trace_faces(d, h)
    records = arrowize(d, h, k, faceset, c)
    assert len(records) == 2  # one arrow per endpoint of the excluded edge
    assert {r.start for r in records} == {1, 3}
    assert all(r.first_hit == 0 for r in records)


def test_arrow_faces_touch_their_start_vertex():
    rng = random.Random(12)
    for _ in range(25):
        d = random_fan_free_drawing(rng)
        c = compute_crossings(d)
        h, k = maximal_plane_subgraph(d.graph, c)
        faceset = trace_faces(d, h)
        for rec in arrowize(d, h, k, faceset, c):
            face = faceset.faces[rec.face]
            verts = set(face.isolated)
            for walk in ((face.outer,) if face.outer else ()) + face.holes:
                for u, v in walk.darts:
                    verts.add(u)
            assert rec.start in verts


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
    d = StraightLineDrawing(Graph(2, ((0, 1),)), (F(0, 0), F(1, 0)))
    with pytest.raises(ValueError):
        audit(d, 2)


def test_audit_abstract_quad_extremal():
    rep = audit_abstract(gen_quad_extremal(12), 2)
    assert rep["edge_bound_ok"]
    assert rep["h_edges"] == 3 * 12 - 6
    assert rep["arrows"] == 2 * rep["k_edges"]


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
    c = compute_crossings(d)
    with pytest.raises(ValueError):
        trace_faces(d, [0, 1], c)
    with_c = trace_faces(d, [0], c).faces
    assert with_c == trace_faces(d, [0]).faces


def test_audit_computes_the_crossing_relation_once(monkeypatch):
    import fanfree.decompose as dec

    calls = []

    def counting(d):
        calls.append(d)
        return compute_crossings(d)

    monkeypatch.setattr(dec, "compute_crossings", counting)
    assert audit(gen_straight_extremal(9), 2).ok
    assert len(calls) == 1
