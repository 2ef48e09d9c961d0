import hashlib
import random
import re
from types import SimpleNamespace

import pytest

from fanfree.crossings import compute_crossings, find_k_fans, is_k_fan_free
from fanfree.star import (
    BASE_CASE_ROWS,
    InconclusiveError,
    StarConfig,
    bound_b,
    canonical_form,
    classify_vertices,
    edge_order,
    legal_pairs,
    max_arrows,
    realize_star,
    reflect_star,
    rotate_star,
    star_drawing,
    sub_star,
    validate_star,
    verify_base_cases,
    _fit_kernel,
)

from fanfree.repro import brute_class_table

from conftest import random_star


# -- refined cycle and crossing predicate -----------------------------------

def refined_cycle(s):
    """Cyclic point order v_0, endpoints on e_0, v_1, endpoints on e_1, ..."""
    per = edge_order(s)
    out = []
    for v in range(s.m):
        out.append(("v", v))
        out.extend(("a", idx) for idx in per.get(v, []))
    return tuple(out)


def test_refined_cycle_no_arrows():
    assert edge_order(StarConfig(3)) == {}
    assert refined_cycle(StarConfig(3)) == (("v", 0), ("v", 1), ("v", 2))


def test_refined_cycle_single_arrow():
    s = StarConfig(3, ((0, 1, 0),))
    assert refined_cycle(s) == (("v", 0), ("v", 1), ("a", 0), ("v", 2))


def test_refined_cycle_two_arrows():
    s = StarConfig(4, ((0, 1, 0), (1, 2, 0)))
    assert edge_order(s) == {1: [0], 2: [1]}
    assert refined_cycle(s) == (
        ("v", 0), ("v", 1), ("a", 0), ("v", 2), ("a", 1), ("v", 3)
    )


def test_slot_order_respected():
    # slot t on an edge is the t-th endpoint from its first vertex, so the
    # edge order lists arrows by slot
    s = StarConfig(5, ((0, 2, 1), (1, 2, 0)))
    assert refined_cycle(s) == (
        ("v", 0), ("v", 1), ("v", 2), ("a", 1), ("a", 0), ("v", 3), ("v", 4)
    )
    assert edge_order(s) == {2: [1, 0]}
    # nested on e_2: v_1's endpoint is nearer v_2, inside v_0's arrow
    assert not star_drawing(s).crossings.crosses(5, 6)
    assert star_drawing(StarConfig(5, ((0, 2, 0), (1, 2, 1)))).crossings.crosses(5, 6)


def test_from_orders_inverts_edge_order():
    # the star rebuilt from each edge's start vertices in slot order is the
    # star itself, with its arrows sorted
    assert StarConfig.from_orders(5, {2: [1, 0]}).arrows == ((0, 2, 1), (1, 2, 0))
    rng = random.Random(29)
    for _ in range(60):
        m = rng.randint(3, 7)
        s = random_star(rng, m, rng.choice((2, 3)))
        orders = {e: [s.arrows[i][0] for i in order] for e, order in edge_order(s).items()}
        assert StarConfig.from_orders(m, orders).arrows == tuple(sorted(s.arrows))


def test_triangle_arrows_cross():
    s = StarConfig(3, ((0, 1, 0), (1, 2, 0)))
    assert star_drawing(s).crossings.crosses(3, 4)


def test_same_start_arrows_never_cross():
    s = StarConfig(5, ((0, 1, 0), (0, 2, 0)))
    assert not star_drawing(s).crossings.crosses(5, 6)


def test_hexagon_far_arrows_do_not_cross():
    s = StarConfig(6, ((0, 2, 0), (3, 5, 0)))
    assert not star_drawing(s).crossings.crosses(6, 7)


def test_validate_star_rejects_incident_exit():
    assert validate_star(StarConfig(4, ((0, 0, 0),))) is not None
    assert validate_star(StarConfig(4, ((0, 3, 0),))) is not None
    assert validate_star(StarConfig(4, ((0, 1, 0), (1, 2, 0)))) is None


def test_validate_star_rejects_bad_slots():
    assert validate_star(StarConfig(4, ((0, 1, 1),))) is not None


def test_malformed_stars_are_rejected():
    for s in (
        StarConfig(4, ((0, 0, 0),)),  # exit edge at its own start
        StarConfig(4, ((0, 0, 0), (0, 0, 1))),
        StarConfig(4, ((0, 1, 1),)),  # slots skip 0
        StarConfig(2),  # fewer than three vertices
        StarConfig(4, ((0, 1, 0), (4, 1, 1))),  # a start outside the polygon
        StarConfig(4, ((0, -1, 0),)),  # an exit edge below 0
    ):
        message = re.escape(validate_star(s))
        with pytest.raises(ValueError, match=message):
            star_drawing(s)
        with pytest.raises(ValueError, match=message):
            is_k_fan_free(star_drawing(s), 2)


# -- fan-freeness ------------------------------------------------------------

def test_triangle_one_arrow_fan_free_at_two():
    assert is_k_fan_free(star_drawing(StarConfig(3, ((0, 1, 0),))), 2)


def test_triangle_two_arrows_not_fan_free_at_two():
    assert not is_k_fan_free(star_drawing(StarConfig(3, ((0, 1, 0), (1, 2, 0)))), 2)


def test_triangle_three_arrows_fan_free_at_three():
    s = StarConfig(3, ((0, 1, 0), (1, 2, 0), (2, 0, 0)))
    assert is_k_fan_free(star_drawing(s), 3)
    assert not is_k_fan_free(star_drawing(s), 2)


def test_same_pair_multiplicity_fanned_by_exit_edge():
    # boundary edge e_1 crosses both copies of the arrow at their start v_0
    d = star_drawing(StarConfig(3, ((0, 1, 0), (0, 1, 1))))
    fans = find_k_fans(d.graph, d.crossings, 2)
    assert any(w.crosser == 1 and w.apex == 0 for w in fans)


# -- lengths, witnesses, classification --------------------------------------

def test_arrow_length_examples():
    # an arrow is short when one boundary chain it cuts off holds one vertex;
    # legal_pairs(long_only=True) drops exactly those
    assert (0, 1) not in legal_pairs(5, long_only=True)
    assert (0, 2) in legal_pairs(7, long_only=True)
    for e in (1, 2):  # at m = 4 both legal exits cut off a single vertex
        assert (0, e) in legal_pairs(4) and (0, e) not in legal_pairs(4, long_only=True)


def test_short_arrow_witness_examples():
    # a short arrow passes over the first vertex of the zero run after its
    # start, so that run is not left-light; a long arrow leaves it so
    L, R = "left-light", "right-light"
    assert classify_vertices(StarConfig(5, ((0, 1, 0),))).tags == ("heavy", R, R, R, R)
    assert classify_vertices(StarConfig(5, ((2, 3, 0),))).tags == (R, R, "heavy", R, R)
    assert classify_vertices(StarConfig(5, ((0, 2, 0),))).tags == ("heavy", L, L, L, L)


def test_witness_on_clockwise_side():
    # (2, 0) passes over its clockwise neighbour v_1, the last vertex of the
    # run; with (2, 3) over the first vertex, neither end is free: v_1 is void
    R = "right-light"
    assert classify_vertices(StarConfig(5, ((2, 3, 0),))).tags == (R, R, "heavy", R, R)
    s = StarConfig(5, ((2, 3, 0), (2, 0, 0)))
    assert classify_vertices(s).tags == (R, "void", "heavy", R, R)


def test_classify_all_heavy():
    s = StarConfig(3, ((0, 1, 0), (1, 2, 0), (2, 0, 0)))
    cls = classify_vertices(s)
    assert cls.counts == (3, 0, 0)


def test_classify_two_heavy_triangle_third_is_void():
    # both flanking short arrows exist (each heavy vertex has only one legal
    # exit), so the zero-degree vertex cannot be light
    s = StarConfig(3, ((0, 1, 0), (1, 2, 0)))
    assert classify_vertices(s).counts == (2, 0, 1)


def test_classify_zero_run_sacrifices_last_vertex():
    # m=5: heavy 0 and 1, zero run 2,3,4 with both end conditions failing
    # (v1 sends a short arrow over v2, v0 sends one over v4):
    # run tags right-light, right-light, void
    s = StarConfig(5, ((0, 3, 0), (1, 2, 0)))
    cls = classify_vertices(s)
    assert cls.tags == ("heavy", "heavy", "right-light", "right-light", "void")
    assert cls.counts == (2, 2, 1)


def test_classify_left_light_run():
    # m=5: heavy 0 exits through e2 only, so no short arrow passes over v1
    # and the whole zero run is left-light
    s = StarConfig(5, ((0, 2, 0),))
    cls = classify_vertices(s)
    assert cls.tags == ("heavy",) + ("left-light",) * 4
    assert cls.counts == (1, 4, 0)


def test_classify_no_arrows():
    assert classify_vertices(StarConfig(6)).counts == (0, 6, 0)


def test_bound_b_values():
    assert bound_b(3, 0, 0, 3) == 3
    assert bound_b(2, 2, 0, 3) == 5
    assert bound_b(2, 0, 1, 3) == 2
    with pytest.raises(ValueError):
        bound_b(1, 1, 1, 3)
    with pytest.raises(ValueError):
        bound_b(3, 0, 0, 2)
    with pytest.raises(ValueError, match="negative class counts"):
        bound_b(2, -1, 1, 3)


# -- exact search ------------------------------------------------------------

def test_max_arrows_triangle():
    res = max_arrows(3, 2)
    assert res.maximum == 1
    assert res.configs and all(len(c.arrows) == 1 for c in res.configs)


def test_max_arrows_square():
    assert max_arrows(4, 2).maximum == 2


def test_max_arrows_small_m_k2():
    # exhaustive values; 2m-6 is met for every m up to 6 here
    assert max_arrows(5, 2).maximum == 4
    assert max_arrows(6, 2).maximum == 6


def test_max_arrows_long_only():
    assert max_arrows(4, 2, long_only=True).maximum == 0
    assert max_arrows(5, 2, long_only=True).maximum == 2
    assert max_arrows(6, 2, long_only=True).maximum == 4


def test_max_arrows_class_constrained_triangle():
    assert max_arrows(3, 3, vertex_class=(3, 0, 0)).maximum == 3
    assert max_arrows(3, 3, vertex_class=(2, 0, 1)).maximum == 2
    # no fan-free triangle classifies as two heavy plus one light
    assert max_arrows(3, 3, vertex_class=(2, 1, 0)).maximum is None


def test_max_arrows_budget_is_inconclusive_not_wrong():
    with pytest.raises(InconclusiveError) as info:
        max_arrows(6, 2, budget=3)
    assert (info.value.nodes, info.value.best) == (4, 3)
    # how far it got: the time it ran and the best star found so far
    assert info.value.seconds >= 0
    config = info.value.config
    assert len(config.arrows) == 3
    assert is_k_fan_free(star_drawing(config), 2)
    assert str(list(config.arrows)) in str(info.value)


INCUMBENT_5_3 = ((0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 2, 2), (0, 3, 1),
                 (0, 3, 2), (1, 2, 0), (2, 3, 0), (3, 1, 2), (4, 2, 3))
# (m, k, vertex class, budget) -> (nodes, best, config arrows) of the
# InconclusiveError; the search stops at the first node past the budget
BUDGET_STOPS = {
    (5, 3, None, 1): (2, 1, ((0, 1, 0),)),
    (5, 3, None, 3): (4, 3, ((0, 1, 0), (0, 1, 1), (0, 2, 0))),
    (5, 3, None, 50): (51, 10, INCUMBENT_5_3),
    (5, 3, None, 500): (501, 10, INCUMBENT_5_3),
    (4, 3, (2, 0, 2), 40): (41, None, None),
    (4, 3, (2, 0, 2), 200): (201, 4, ((0, 1, 0), (0, 2, 0), (2, 0, 0), (2, 3, 0))),
    (7, 2, None, 1000): (1001, 8, ((0, 1, 0), (0, 2, 0), (4, 1, 3), (4, 2, 3),
                                   (5, 1, 2), (5, 2, 2), (6, 1, 1), (6, 2, 1))),
    (6, 2, (4, 1, 1), 300): (301, 4, ((0, 1, 3), (3, 1, 2), (4, 1, 1), (5, 1, 0))),
}


def test_budget_stops_are_pinned():
    """The node count, incumbent and star an exhausted budget reports."""
    for (m, k, cls, budget), want in BUDGET_STOPS.items():
        with pytest.raises(InconclusiveError) as info:
            max_arrows(m, k, vertex_class=cls, budget=budget)
        err = info.value
        config = None if err.config is None else err.config.arrows
        assert (err.nodes, err.best, config) == want, (m, k, cls, budget)
    # the class-filtered search needs 311 nodes in all
    assert max_arrows(4, 3, vertex_class=(2, 0, 2), budget=311).nodes == 311


# (m, k, filter): None, "long" for long_only, or a vertex class
PINNED_CASES = (
    [(m, 2, None) for m in (3, 4, 5, 6, 7)]
    + [(m, 2, "long") for m in (4, 5, 6, 7, 8)]
    + [(m, k, None) for k in (3, 4) for m in (3, 4)]
    + [(5, 3, None)]
    + [(h + lam + nu, k, (h, lam, nu)) for k in (3, 4) for h, lam, nu in BASE_CASE_ROWS]
)
# sha256 of every case's (maximum, nodes, witness configs), recorded from
# the search that looped over every placed arrow for each candidate gap
PINNED_DIGEST = "44e1406b8b082cb372a2d5ef38be39285a840ed1aa44563c8439644a34d52d3e"


def test_search_outputs_are_pinned():
    """A faster search must visit the same nodes and return the same
    witnesses in the same order."""
    digest = hashlib.sha256()
    nodes = {}
    for m, k, f in PINNED_CASES:
        if f == "long":
            res = max_arrows(m, k, long_only=True)
        else:
            res = max_arrows(m, k, vertex_class=f)
        nodes[(m, k, f)] = res.nodes
        digest.update(
            repr((m, k, f, res.maximum, res.nodes, [c.arrows for c in res.configs])).encode()
        )
    assert nodes[(7, 2, None)] == 8895
    assert nodes[(5, 3, None)] == 14637
    assert nodes[(8, 2, "long")] == 4136
    assert digest.hexdigest() == PINNED_DIGEST


# k >= 5, where the search keeps four or more stacked levels per vertex
PINNED_CASES_K5 = ((3, 5), (3, 6), (4, 5))
PINNED_DIGEST_K5 = "e5eef6a5d087f63869ae5ef9d59a0045ef52a6795033a37409f63c961a731f96"


def test_search_outputs_are_pinned_at_k5_and_up():
    digest = hashlib.sha256()
    found = []
    for m, k in PINNED_CASES_K5:
        res = max_arrows(m, k)
        found.append((res.maximum, res.nodes))
        digest.update(
            repr((m, k, None, res.maximum, res.nodes, [c.arrows for c in res.configs])).encode()
        )
    assert found == [(9, 14), (12, 18), (16, 29040)]
    assert digest.hexdigest() == PINNED_DIGEST_K5


def _fit_state(s: StarConfig, k: int) -> SimpleNamespace:
    """The search state of star s, arrow i as id i, built here from the
    definitions in the ``_search`` docstring, with ``fits(a, e)``: the
    search's own fit kernel over that state, at ``sat[a]``."""
    m = s.m
    start_mask = [0] * m
    exit_mask = [0] * m
    for i, (a, e, _t) in enumerate(s.arrows):
        start_mask[a] |= 1 << i
        exit_mask[e] |= 1 << i
    # cut[v]: the arrows from v_0..v_v XOR those exiting through e_0..e_{v-1}
    cut = []
    starting = exiting = 0
    for v in range(m):
        starting |= start_mask[v]
        cut.append(starting ^ exiting)
        exiting |= exit_mask[v]
    per = edge_order(s)
    edge_pts = [per.get(e, []) for e in range(m)]
    # sat[v]: arrow b is in it iff its crossers from v_v, plus 1, plus 1 if
    # its exit edge touches v_v, reach k
    adjacency = star_drawing(s).crossings.adjacency
    sat = [0] * m
    for b, (_a, f, _t) in enumerate(s.arrows):
        for v in range(m):
            crossers = sum(
                1 for x in adjacency.get(m + b, ()) if x >= m and s.arrows[x - m][0] == v
            )
            if crossers + 1 + (v in (f, (f + 1) % m)) >= k:
                sat[v] |= 1 << b
    kernel = _fit_kernel(m, k, start_mask, exit_mask, cut, edge_pts)
    return SimpleNamespace(
        fits=lambda a, e: kernel(a, e, sat[a]),
        start_mask=start_mask,
        exit_mask=exit_mask,
        cut=cut,
        sat=sat,
        edge_pts=edge_pts,
    )


def test_search_mask_rule_matches_star_drawing():
    """For every legal pair and gap on seeded fan-free stars, the fit
    kernel's crossing mask of a new arrow equals its crossers in
    ``star_drawing``, and its fit verdict equals ``is_k_fan_free`` of the
    extended star's drawing wherever the pair stays within the k-1 copies
    the search allows.  The masks at gaps that do not fit come from the
    same kernel on a search holding the same star at a k no star of that
    size can reach, where every gap from the first one after the pair's
    copies fits.

    A pair that the one-AND test calls dead (its crossers outside the
    arrows on its exit edge meet ``sat`` of its start) or that the pre-gap
    rule rejects (its crossers from an end of its exit edge reach k-1) fits
    at no gap, and every one of its extensions has a k-fan.  Each (m, k)
    has a pair of the first kind, and at k = 3 and at k = 4 some pair is
    rejected by the pre-gap rule alone."""
    rng = random.Random(4711)
    outcomes = {True: 0, False: 0}
    pre_gap_pairs = {2: 0, 3: 0, 4: 0}
    for m in range(3, 9):
        for k in (2, 3, 4):
            dead_pairs = 0
            for _ in range(2):
                s = random_star(rng, m, k)
                search = _fit_state(s, k)
                # a k-fan on an arrow of an extension needs k-1 crossers from
                # one vertex besides the exit edge: more than there are here
                wide = _fit_state(s, len(s.arrows) + 2)
                new = m + len(s.arrows)
                for a, e in legal_pairs(m):
                    copies = [t for b, f, t in s.arrows if (b, f) == (a, e)]
                    first = max(copies) + 1 if copies else 0
                    every = wide.fits(a, e)
                    assert [gap for gap, _mask in every] == list(
                        range(first, len(search.edge_pts[e]) + 1)
                    ), (s, a, e)
                    fits = dict(search.fits(a, e))
                    base = (search.cut[a] ^ search.cut[e]) & ~search.start_mask[a]
                    dead = bool(base & ~search.exit_mask[e] & search.sat[a])
                    pre_gap = any(
                        (base & search.start_mask[v]).bit_count() >= k - 1
                        for v in (e, (e + 1) % m)
                    )
                    if dead or pre_gap:
                        assert not fits, (s, k, a, e)
                    dead_pairs += dead
                    pre_gap_pairs[k] += pre_gap and not dead
                    for gap, mask in every:
                        shifted = tuple(
                            (b, f, t + 1 if f == e and t >= gap else t)
                            for b, f, t in s.arrows
                        )
                        ext = StarConfig(m, shifted + ((a, e, gap),))
                        crossed = star_drawing(ext).crossings.adjacency.get(new, ())
                        assert {i for i in range(new) if mask >> i & 1} == {
                            x - m for x in crossed if x >= m
                        }, (s, a, e, gap)
                        assert fits.get(gap, mask) == mask, (s, a, e, gap)
                        if dead or pre_gap:
                            assert not is_k_fan_free(star_drawing(ext), k), (s, k, a, e, gap)
                        if len(copies) < k - 1:
                            fan_free = is_k_fan_free(star_drawing(ext), k)
                            assert (gap in fits) == fan_free, (s, k, a, e, gap)
                            outcomes[fan_free] += 1
            assert dead_pairs > 0, (m, k)
    assert min(outcomes.values()) > 100, outcomes
    assert pre_gap_pairs[3] > 0 and pre_gap_pairs[4] > 0, pre_gap_pairs


def test_max_arrows_rejects_bad_class():
    with pytest.raises(ValueError):
        max_arrows(4, 3, vertex_class=(2, 1, 0))
    # a class is three ints that partition m, in any iterable
    for bad in ((3, 0), (1, 1, 1, 0), (1.0, 1, 1), (True, 1, 1), (4, -1, 0), 3):
        with pytest.raises(ValueError, match="are not three ints"):
            max_arrows(3, 3, vertex_class=bad)
    assert max_arrows(4, 2, vertex_class=[2, 1, 1]).maximum == 2
    assert max_arrows(4, 2, vertex_class=iter((2, 1, 1))).maximum == 2


def test_max_arrows_rejects_bad_arguments():
    with pytest.raises(ValueError, match="m must be >= 3, got 2"):
        max_arrows(2, 2)
    with pytest.raises(ValueError, match="k must be >= 2, got 1"):
        max_arrows(4, 1)
    with pytest.raises(ValueError, match="choose one filter"):
        max_arrows(4, 2, long_only=True, vertex_class=(2, 1, 1))
    with pytest.raises(ValueError, match="base cases are defined for k >= 3, got 2"):
        verify_base_cases(2)


def test_witness_configs_are_fan_free_and_match_class():
    res = max_arrows(4, 3, vertex_class=(2, 0, 2))
    assert res.maximum == 4
    for cfg in res.configs:
        assert validate_star(cfg) is None
        assert is_k_fan_free(star_drawing(cfg), 3)
        assert classify_vertices(cfg).counts == (2, 0, 2)


def test_base_cases_published_table_vs_search():
    """Six of the nine published small-class values agree with exhaustive
    search; the remaining three are pinned to their machine-verified values
    (see the repository README, "Base-case table")."""
    rows = {(r.h, r.lam, r.nu): r for r in verify_base_cases(3)}
    searched = {key: rows[key].searched for key in rows}
    assert searched == {
        (3, 0, 0): 3,
        (2, 0, 1): 2,
        (2, 1, 0): None,  # class is not realizable by any fan-free star
        (4, 0, 0): 6,
        (3, 0, 1): 6,
        (3, 1, 0): 5,  # published closed form says 4
        (2, 0, 2): 4,
        (2, 1, 1): 5,  # published closed form says 4
        (2, 2, 0): 4,
    }
    matching = [key for key, r in rows.items() if r.match]
    assert sorted(matching) == [
        (2, 0, 1), (2, 0, 2), (2, 2, 0), (3, 0, 0), (3, 0, 1), (4, 0, 0)
    ]


def test_searched_maxima_never_exceed_closed_form_bound():
    # the inequality the classified bound actually asserts holds everywhere
    for k in (3, 4):
        for h, lam, nu in BASE_CASE_ROWS:
            res = max_arrows(h + lam + nu, k, vertex_class=(h, lam, nu))
            if res.maximum is not None:
                assert res.maximum <= bound_b(h, lam, nu, k)


def test_brute_force_enumeration_confirms_search_class_table():
    # the decisive cross-check behind the pinned small-class values: the
    # search and a from-scratch enumerator agree on every realizable class
    assert brute_class_table(3, 3) == {
        (0, 3, 0): 0, (1, 1, 1): 2, (2, 0, 1): 2, (3, 0, 0): 3
    }
    table4 = brute_class_table(4, 3)
    for (h, lam, nu), brute in sorted(table4.items()):
        if h == 0 and brute == 0:
            continue
        res = max_arrows(4, 3, vertex_class=(h, lam, nu))
        assert res.maximum == brute, (h, lam, nu)
    assert (2, 1, 0) not in table4
    assert table4[(3, 1, 0)] == 5 and table4[(2, 1, 1)] == 5
    # at k = 2 (one level per vertex) and on the triangle at k = 4
    # and 5 (a ladder of two and three levels, where no other oracle checks
    # the search) the two agree on every class, and a class no fan-free star
    # has is None in both
    for m, k in ((3, 2), (4, 2), (5, 2), (3, 4), (3, 5)):
        table = brute_class_table(m, k)
        for h in range(m + 1):
            for lam in range(m + 1 - h):
                cls = (h, lam, m - h - lam)
                assert max_arrows(m, k, vertex_class=cls).maximum == table.get(cls), (m, k, cls)


# -- invariants and properties ------------------------------------------------

def test_monotonicity_subconfigs_stay_fan_free():
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(3, 7)
        k = rng.choice((2, 3))
        s = random_star(rng, m, k)
        assert is_k_fan_free(star_drawing(s), k)
        ids = [i for i in range(len(s.arrows)) if rng.random() < 0.6]
        assert is_k_fan_free(star_drawing(sub_star(s, ids)), k)


def test_rotation_and_reflection_preserve_fan_freeness():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(3, 7)
        s = random_star(rng, m, 2)
        for r in range(m):
            assert is_k_fan_free(star_drawing(rotate_star(s, r)), 2)
        assert is_k_fan_free(star_drawing(reflect_star(s)), 2)
        refl = reflect_star(reflect_star(s))
        assert canonical_form(refl) == canonical_form(s)
        assert refl.arrows == tuple(sorted(s.arrows))


def test_extremal_configs_closed_under_rotation():
    res = max_arrows(5, 2)
    for cfg in res.configs:
        for r in range(5):
            rot = rotate_star(cfg, r)
            assert is_k_fan_free(star_drawing(rot), 2)
            assert len(rot.arrows) == res.maximum


def test_geometric_soundness_of_combinatorial_crossing():
    """Straight-line realizations have the graph and crossing relation of
    ``star_drawing``, so the combinatorial predicate on every arrow pair and
    ``is_k_fan_free`` of ``star_drawing`` agree with the geometry."""
    rng = random.Random(31415)
    for _ in range(25):
        m = rng.randint(3, 7)
        k = rng.choice((2, 3))
        s = random_star(rng, m, k, attempts=20)
        d = realize_star(s)
        rel = compute_crossings(d)
        assert star_drawing(s).graph == d.graph
        assert star_drawing(s).crossings == rel
        n_arr = len(s.arrows)
        geo = {
            (a, b)
            for a in range(n_arr)
            for b in range(a + 1, n_arr)
            if rel.crosses(m + a, m + b)
        }
        comb = {
            (a, b)
            for a in range(n_arr)
            for b in range(a + 1, n_arr)
            if star_drawing(s).crossings.crosses(m + a, m + b)
        }
        assert geo == comb
        for kk in (2, 3, 4):
            assert is_k_fan_free(star_drawing(s), kk) == (not find_k_fans(d.graph, rel, kk))


def short_arrow_witness(m, start, exit):
    """The one vertex on a short arrow's short side (counterclockwise at
    m = 3, where both sides have one), or None for a long arrow."""
    if (exit - start) % m == 1:
        return (start + 1) % m
    if (start - exit - 1) % m == 1:
        return (start - 1) % m
    return None


def test_witness_uniqueness_in_fan_free_configs():
    # no vertex witnesses two short arrows; no arrow starts at a witness
    rng = random.Random(808)
    for _ in range(60):
        m = rng.randint(4, 7)
        s = random_star(rng, m, 2)
        witnesses = {}
        starts = {a for a, _e, _t in s.arrows}
        for i, (start, exit, _slot) in enumerate(s.arrows):
            w = short_arrow_witness(m, start, exit)
            if w is not None:
                assert w not in witnesses, (s, i)
                witnesses[w] = i
                assert w not in starts
