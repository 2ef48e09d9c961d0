"""The m-star puzzle: arrows on a convex m-gon, combinatorial crossing,
fan-freeness, arrow classification, and exact maximum-arrow search.

Conventions (all indices 0-based, mod m): vertices v_0..v_{m-1} are
counterclockwise, boundary edge e_j joins v_j and v_{j+1}.  An arrow is
(start, exit, slot): it starts at vertex ``start``, leaves through edge
``exit`` (which must not be incident to the start vertex), and ``slot``
ranks its endpoint among all endpoints on that edge, counted from v_exit.

Two arrows sharing their start vertex never cross; otherwise crossing is
decided purely by whether their endpoint pairs interleave along the
refined boundary cycle.
"""

from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction
from typing import NamedTuple

from .model import (
    AbstractDrawing,
    CrossingRelation,
    Graph,
    StraightLineDrawing,
    _set,
    _Value,
    check_ints,
    int_rows,
)
from . import crossings as _cr


class StarConfig(_Value):
    """An m-star and its arrows (start, exit, slot); see the module
    docstring.  Non-int parts raise TypeError; then m < 3, an arrow out of
    range or with an illegal exit, or bad slots on an edge, ValueError."""

    m: int
    arrows: tuple[tuple[int, int, int], ...] = ()

    def __init__(self, m: int, arrows: tuple[tuple[int, int, int], ...] = ()):
        check_ints(m=m)
        arrows = tuple(int_rows(arrows, 3, "arrow {} = {!r} must be three ints"))
        if m < 3:
            raise ValueError(f"m must be >= 3, got {m}")
        per_edge: dict[int, list[int]] = {}
        for idx, (a, e, slot) in enumerate(arrows):
            if not (0 <= a < m and 0 <= e < m):
                raise ValueError(f"arrow {idx} = ({a}, {e}, {slot}) out of range")
            if not legal_exit(m, a, e):
                raise ValueError(f"arrow {idx} exits through edge {e} incident to its start {a}")
            per_edge.setdefault(e, []).append(slot)
        for e, slots in per_edge.items():
            if sorted(slots) != list(range(len(slots))):
                raise ValueError(f"slots on edge {e} are not a permutation of 0..{len(slots) - 1}")
        _set(self, "m", m)
        _set(self, "arrows", arrows)

    @classmethod
    def from_orders(cls, m: int, orders) -> StarConfig:
        """The star whose arrows through e_e start at ``orders[e]``, in slot
        order, with its arrows sorted: the inverse of ``edge_order``.
        ``orders`` maps each edge to a sequence of start vertices."""
        return cls(m, tuple(sorted(
            (s, e, slot) for e, order in orders.items() for slot, s in enumerate(order))))


def legal_exit(m: int, start: int, exit: int) -> bool:
    return exit not in (start % m, (start - 1) % m)


def edge_order(s: StarConfig) -> dict[int, list[int]]:
    """Arrow indices on each boundary edge, in slot order."""
    per: dict[int, list[tuple[int, int]]] = {}
    for idx, (_a, e, slot) in enumerate(s.arrows):
        per.setdefault(e, []).append((slot, idx))
    return {e: [i for _sl, i in sorted(v)] for e, v in per.items()}


def _arrow_keys(s: StarConfig):
    """Each arrow's two cyclic position keys.

    Vertex v gets key (v, 0); the slot-t endpoint on edge e gets
    (e, 2t + 2), which sorts between (e, 0) and (e + 1, 0).
    """
    keys = []
    for a, e, slot in s.arrows:
        keys.append(((a, 0), (e, 2 * slot + 2)))
    return keys


def _in_arc(x, lo, hi) -> bool:
    if lo < hi:
        return lo < x < hi
    return x > lo or x < hi


def _interleaved(a1, a2, b1, b2) -> bool:
    return _in_arc(b1, a1, a2) != _in_arc(b2, a1, a2)


def star_drawing(s: StarConfig) -> AbstractDrawing:
    """The star as an abstract drawing.

    Boundary edge j is edge j; arrow i is edge m+i, from its start to a
    fresh vertex m+i.  An arrow crosses its exit edge and every arrow its
    endpoints interleave with.
    """
    m = s.m
    keys = _arrow_keys(s)
    edges = [(j, (j + 1) % m) for j in range(m)]
    pairs = set()
    for a, (start, exit, _slot) in enumerate(s.arrows):
        edges.append((start, m + a))
        pairs.add((exit, m + a))
        for b in range(a):
            if s.arrows[b][0] != start and _interleaved(*keys[a], *keys[b]):
                pairs.add((m + b, m + a))
    g = Graph(m + len(s.arrows), tuple(edges))
    return AbstractDrawing(g, CrossingRelation(frozenset(pairs)), "star")


# ---------------------------------------------------------------------------
# Vertex classification (heavy / left-light / right-light / void)

HEAVY = "heavy"
LEFT_LIGHT = "left-light"
RIGHT_LIGHT = "right-light"
VOID = "void"


class VertexClasses(NamedTuple):
    tags: tuple[str, ...]
    h: int
    lam: int
    nu: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.h, self.lam, self.nu)


def classify_vertices(s: StarConfig) -> VertexClasses:
    """Heavy / light / void tags of the star's vertices (``vertex_classes``)."""
    start_mask = [0] * s.m
    exit_mask = [0] * s.m
    for i, (start, exit, _slot) in enumerate(s.arrows):
        start_mask[start] |= 1 << i
        exit_mask[exit] |= 1 << i
    return vertex_classes(start_mask, exit_mask)


def vertex_classes(start_mask: list[int], exit_mask: list[int]) -> VertexClasses:
    """Tag vertices by the zero-degree run rule, from the int bitmasks of
    the arrows that start at each vertex (``start_mask``) and of those that
    exit through each edge (``exit_mask``).  v_v is heavy iff
    ``start_mask[v]`` is nonzero; a short arrow over v_v starts at v_{v-1}
    and exits through e_v, or starts at v_{v+1} and exits through e_{v-1}.

    A maximal run of zero-degree vertices v_s..v_{s+t-1} is all left-light
    when no short arrow from the vertex before the run passes over its first
    vertex; failing that, all right-light when no short arrow from the
    vertex after the run passes over its last vertex; failing both, the
    first t-1 are (right-)light and the run's last vertex is void.  A star
    with no arrows at all is all left-light (every condition holds
    vacuously).
    """
    m = len(start_mask)
    if not any(start_mask):
        return VertexClasses((LEFT_LIGHT,) * m, 0, m, 0)
    tags = [HEAVY if starts else None for starts in start_mask]
    for v0 in range(m):
        if start_mask[v0] or not start_mask[(v0 - 1) % m]:
            continue
        t = 1
        while not start_mask[(v0 + t) % m]:
            t += 1
        pred = (v0 - 1) % m
        succ = (v0 + t) % m
        last = (v0 + t - 1) % m
        if not start_mask[pred] & exit_mask[v0]:
            run = [LEFT_LIGHT] * t
        elif not start_mask[succ] & exit_mask[(last - 1) % m]:
            run = [RIGHT_LIGHT] * t
        else:
            run = [RIGHT_LIGHT] * (t - 1) + [VOID]
        for i, tag in enumerate(run):
            tags[(v0 + i) % m] = tag
    h = tags.count(HEAVY)
    nu = tags.count(VOID)
    return VertexClasses(tuple(tags), h, m - h - nu, nu)


def bound_b(h: int, lam: int, nu: int, k: int) -> int:
    """Closed-form arrow bound (3k-5)h + k*lam + (2k-3)*nu - (6k-9)."""
    if k < 3:
        raise ValueError(f"the classified bound needs k >= 3, got {k}")
    if h < 2:
        raise ValueError(f"the classified bound needs h >= 2, got {h}")
    if lam < 0 or nu < 0:
        raise ValueError("negative class counts")
    return (3 * k - 5) * h + k * lam + (2 * k - 3) * nu - (6 * k - 9)


# ---------------------------------------------------------------------------
# Symmetry transforms for the tests, over the per-edge slot orders where
# they move slots, and the geometric realization of a star

def rotate_star(s: StarConfig, r: int) -> StarConfig:
    arrows = tuple(((a + r) % s.m, (e + r) % s.m, t) for a, e, t in s.arrows)
    return StarConfig(s.m, tuple(sorted(arrows)))


def reflect_star(s: StarConfig) -> StarConfig:
    """Mirror image: vertex i -> -i, edge j -> -(j+1), slot order reversed."""
    m = s.m
    return StarConfig.from_orders(m, {
        (-e - 1) % m: [(-s.arrows[idx][0]) % m for idx in reversed(order)]
        for e, order in edge_order(s).items()
    })


def sub_star(s: StarConfig, keep: list[int]) -> StarConfig:
    """Restriction to a subset of arrows, slots re-ranked."""
    kept = set(keep)
    return StarConfig.from_orders(s.m, {
        e: [s.arrows[idx][0] for idx in order if idx in kept]
        for e, order in edge_order(s).items()
    })


def canonical_form(s: StarConfig) -> tuple:
    """Minimal arrow tuple over all rotations (reflection left alone)."""
    return min(rotate_star(s, r).arrows for r in range(s.m))


def realize_star(s: StarConfig) -> StraightLineDrawing:
    """Geometric realization: polygon on a rational circle, arrows drawn as
    segments extended just beyond their exit edge.

    The extension factor shrinks until the drawing is simple and every
    arrow segment properly crosses exactly its own exit edge; the arrow to
    arrow crossing pattern is whatever the geometry says, which is what the
    soundness tests compare against.
    """
    m = s.m
    # rational points on the unit circle, ccw by the tan-half parametrisation
    ts = [Fraction(2 * i - (m - 1), m + 1) * 3 for i in range(m)]
    poly = []
    for t in ts:
        den = 1 + t * t
        poly.append(((1 - t * t) / den, 2 * t / den))
    per = edge_order(s)
    exit_pts = {}
    for e, order in per.items():
        cnt = len(order)
        u = poly[e]
        v = poly[(e + 1) % m]
        for rank, idx in enumerate(order):
            lam = Fraction(rank + 1, cnt + 1)
            exit_pts[idx] = (u[0] + lam * (v[0] - u[0]), u[1] + lam * (v[1] - u[1]))
    g = star_drawing(s).graph
    eps = Fraction(1, 16)
    for _attempt in range(40):
        coords = list(poly)
        for idx, (a, _e, _t) in enumerate(s.arrows):
            sx, sy = poly[a]
            qx, qy = exit_pts[idx]
            coords.append((qx + eps * (qx - sx), qy + eps * (qy - sy)))
        drawing = StraightLineDrawing.from_coords(g, coords)
        with contextlib.suppress(_cr.SimplicityError):
            if all(
                [x for x in drawing.crossings.adjacency.get(m + idx, ()) if x < m] == [e]
                for idx, (_a, e, _t) in enumerate(s.arrows)
            ):
                return drawing
        eps /= 2
    raise RuntimeError("could not realize star configuration exactly")


# ---------------------------------------------------------------------------
# Exact maximum-arrow search

# most extremal configurations a search returns
MAX_WITNESSES = 16


class InconclusiveError(RuntimeError):
    """Search node budget exhausted; the reported maximum would be unsafe.

    ``nodes`` and ``seconds`` say how far the search got, ``best`` and
    ``config`` the size and one star of the best configuration found so far
    (None while there is none).
    """

    def __init__(
        self, nodes: int, best: int | None, seconds: float, config: StarConfig | None
    ):
        found = "" if config is None else f", e.g. arrows {list(config.arrows)}"
        super().__init__(
            f"search inconclusive after {nodes} nodes in {seconds:.2f} s "
            f"(best seen: {best}{found})"
        )
        self.nodes = nodes
        self.best = best
        self.seconds = seconds
        self.config = config


class SearchResult(NamedTuple):
    maximum: int | None
    configs: tuple[StarConfig, ...]
    nodes: int


def _fit_kernel(m, k, start_mask, exit_mask, cut, edge_pts):
    """The fit test of a search, over the search's own state lists (see
    ``_search``).  ``fits(s, e, sat_s)``, with ``sat_s`` the node's
    ``sat[s]``, gives the (gap, crossing mask) of each gap at which a new
    arrow (s, e) keeps the star fan-free, from the gap after the copies of
    (s, e) already on e_e."""
    k1 = k - 1

    def fits(s, e, sat_s):
        keep = ~start_mask[s]
        mask = (cut[s] ^ cut[e]) & keep
        if mask & ~exit_mask[e] & sat_s:
            return ()
        at_e = start_mask[e]
        at_e1 = start_mask[(e + 1) % m]
        if (mask & at_e).bit_count() >= k1 or (mask & at_e1).bit_count() >= k1:
            return ()
        others = ~(at_e | at_e1)
        pts = edge_pts[e]
        out = []
        for gap in range(len(pts) + 1):
            if gap:
                bit = 1 << pts[gap - 1]
                if bit & keep:
                    mask ^= bit
                else:
                    # a copy of (s, e): the gaps before it are not branched on
                    out = []
            if mask & sat_s:
                continue
            rest = mask & others
            if rest.bit_count() >= k:
                for starts in start_mask:
                    if (rest & starts).bit_count() >= k:
                        break
                else:
                    out.append((gap, mask))
            else:
                out.append((gap, mask))
        return out

    return fits


def _search(m, k, pairs, target, budget, first_limit) -> SearchResult:
    """Exhaustive DFS over fan-free star configurations.

    Arrows are added in nondecreasing (start, exit) order with at most k-1
    copies per pair; every slot gap is branched on.  Cyclic symmetry is
    broken by forcing the lexicographically first arrow to start at v_0.
    Subtrees are pruned against the incumbent using the remaining capacity
    of still-insertable pairs: below a branch on pair idx every arrow uses a
    pair idx or later, at most ``room`` copies each, so no star in the
    subtree has more than ``count + cap`` arrows, and a subtree whose bound
    does not beat the best is left out without losing a maximum.  A node
    examines its pairs before it branches on any, and a pair that fits at
    no gap is marked dead for the whole subtree (supersets keep the blocking
    fan), so no descendant examines it again; the marks are undone when the
    node returns.  A dead pair still counts towards the capacity, which
    then only overstates it and stays admissible; this keeps the pruning,
    and with it every node, as it was when each node examined each pair.

    The search runs in one recursive function over state bound once per
    search.  Sets of arrows are int bitmasks over arrow ids, an arrow's id
    being its position on the arrow stack ``starts`` (its start vertices):

    - ``start_mask[v]``: the arrows that start at v_v, and
      ``exit_mask[e]`` the arrows that exit through e_e.
    - ``cut[v]``: the arrows starting at one of v_0..v_v, XOR those exiting
      through one of e_0..e_{v-1}.
    - ``sat[v]``: the arrows b on which one more crosser from v_v completes
      a k-fan, that is, crossers of b from v_v, plus 1, plus 1 if b's exit
      edge touches v_v, is at least k.
    - ``edge_pts[e]``: the arrows on e_e in slot order.

    Each node gets its own list of k-1 stacked level masks per vertex as an
    argument, and a child's is one copy with the new arrow's changes:

    - Entry (k-1-j)*m + v holds the arrows with at least j crossers from
      v_v, counting one more when their exit edge touches v_v (j = 1..k-1).
      The levels nest: an arrow at level j is at every level below it.
    - Entries 0..m-1 are level k-1, which is ``sat``: crossers plus touch
      at least k-1 is the same as crossers, plus 1, plus touch at least k.
      The fit test reads only these, and at k = 2 they are the whole list.
    - A push of arrow a from v_s lifts each arrow it crosses one level at
      v_s, top-down over the pair's ``ladder`` (the entries s, s+m, ... of
      levels k-1..2, each taking the crossers of the level below it), then
      level 1; it sets a at level 1 of both ends of e_e (``ends``); and for
      each crosser from v_v it walks a up from level 1 at v_v to its first
      free level.  The walk stays in range: a gap that fits keeps a's
      crossers from each v_v, plus 1 if e_e touches v_v, below k, so a
      never passes level k-1 (entry v).  One more level would take the
      index below 0, where Python would wrap it without an error.  A lift
      stays in range too, since a crosses no arrow of ``sat[s]``.  At
      k = 2 the ladder is empty and no walk steps: a takes no crosser from
      an end of e_e and at most one from any other vertex.
    - A pop has nothing to undo in the level masks: a push changes only
      the child's own copy, which no other node reads.

    ``table[idx]`` holds what a push of pair idx = (s, e) needs: the ``cut``
    entries it toggles, the level-1 entries of the two ends of e_e
    (``ends``), the ``ladder`` at v_s, and ``edge_pts[e]``.  The push and
    the pop run in the branch loop: the masks, ``cut`` and the stack change
    once per pair, the slot list and the child's level masks once per gap.

    A new arrow from v_s ending in gap g of e_e crosses the arrows not from
    v_s with exactly one end on the open arc from v_s to its endpoint: those
    starting at v_{s+1}..v_e, XOR those exiting through e_s..e_{e-1} (the
    two together are ``cut[s] ^ cut[e]``, also when the arc wraps past
    v_0), XOR the first g arrows on e_e.  Moving to gap g+1 toggles one
    bit.  The arrow fits iff it crosses no arrow of ``sat[s]`` and, for
    every v, its crossers from v_v, plus 1 if e_e touches v_v, stay below
    k.  The multiplicity cap k-1 per pair keeps the fans on boundary edges
    out.

    The fit test (``_fit_kernel``) decides a pair at every gap in one pass,
    cheapest test first, and each test is exact:

    - The gap changes the new arrow's crossers only among the arrows that
      exit through e_e, so its crossers outside them are the same at every
      gap; if they meet ``sat[s]``, no gap fits, and one AND says so.
    - No arrow from v_e or v_{e+1} exits through e_e, the edge joining
      them, so the new arrow's crossers from each of the two are also the
      same at every gap; if either count reaches k-1, their limit, no gap
      fits.
    - At a gap that passes the ``sat[s]`` test, v_e and v_{e+1} are within
      their limit, and every other vertex has limit k, so a mask with fewer
      than k crossers from the other vertices fits without the
      per-vertex loop.
    """
    # no budget: a bound no node count reaches, so that the check per node
    # is one comparison
    if budget is None:
        budget = math.inf
    start_mask = [0] * m
    exit_mask = [0] * m
    cut = [0] * m
    edge_pts: list[list[int]] = [[] for _ in range(m)]
    starts: list[int] = []
    # copies of each pair still insertable: k-1 minus those placed
    room = [k - 1] * len(pairs)
    # the pairs that fit at no gap, set by the node that found them for its
    # subtree
    dead = [False] * len(pairs)
    fits = _fit_kernel(m, k, start_mask, exit_mask, cut, edge_pts)
    # the entry of level 1 at v_0
    base = (k - 2) * m
    table = []
    for s, e in pairs:
        ends = (base + e, base + (e + 1) % m)
        # cut[v] holds an arrow (s, e) iff v >= s XOR v >= e+1 (s = e+1 is
        # not a legal exit)
        arc = range(s, e + 1) if s < e else range(e + 1, s)
        table.append((s, e, arc, ends, range(s, base, m), edge_pts[e]))
    npairs = len(pairs)
    nodes = 0
    best = -1
    witnesses: list[StarConfig] = []
    t0 = time.perf_counter()

    def record():
        """Keep the current star if it is of the target class.  The caller
        has checked that it beats the best, or ties it with room left for
        another witness."""
        nonlocal best, witnesses
        if target is not None and vertex_classes(start_mask, exit_mask).counts != target:
            return
        snap = StarConfig.from_orders(
            m, {e: [starts[aid] for aid in pts] for e, pts in enumerate(edge_pts)})
        if len(starts) > best:
            best = len(starts)
            witnesses = [snap]
        elif snap not in witnesses:
            witnesses.append(snap)

    def dfs(lo, limit, cap, sat):
        """Branch on the pairs lo..limit-1; ``cap`` is ``sum(room[lo:])``."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            found = best if best >= 0 else None
            raise InconclusiveError(
                nodes,
                found,
                time.perf_counter() - t0,
                witnesses[0] if found is not None else None,
            )
        count = len(starts)
        # Examine each pair the node can still branch on: its fitting gaps,
        # with ``cap``, the copies still insertable from it on.  A pair that
        # fits nowhere is dead for the whole subtree and marked so before
        # any child runs; it still counts towards ``cap``, so the children
        # prune exactly as if they had examined it.
        floor = best - count
        branches = []
        marked = []
        for idx in range(lo, limit):
            avail = room[idx]
            if avail == 0:
                continue
            if cap <= floor:
                break
            if not dead[idx]:
                s, e = pairs[idx]
                gaps = fits(s, e, sat[s])
                if gaps:
                    branches.append((idx, cap, gaps))
                else:
                    dead[idx] = True
                    marked.append(idx)
            # later arrows at this node use pairs > idx only
            cap -= avail
        bit = 1 << count
        grown = count + 1
        for idx, cap, gaps in branches:
            # the incumbent may have grown since the pair was examined
            if count + cap <= best:
                break
            s, e, arc, ends, ladder, pts = table[idx]
            # the children hold one copy of the pair: one less capacity
            room[idx] -= 1
            starts.append(s)
            start_mask[s] |= bit
            exit_mask[e] |= bit
            for v in arc:
                cut[v] ^= bit
            bottom = base + s
            for gap, mask in gaps:
                # push: the crossers one level up at v_s, the new arrow at
                # level 1 of the ends and one level up per crosser
                child = sat[:]
                for at in ladder:
                    child[at] |= mask & child[at + m]
                child[bottom] |= mask
                for at in ends:
                    child[at] |= bit
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    at = base + starts[low.bit_length() - 1]
                    while child[at] & bit:
                        at -= m
                    child[at] |= bit
                pts.insert(gap, count)
                if grown > best or (grown == best and len(witnesses) < MAX_WITNESSES):
                    record()
                dfs(idx, npairs, cap - 1, child)
                del pts[gap]
            starts.pop()
            start_mask[s] ^= bit
            exit_mask[e] ^= bit
            for v in arc:
                cut[v] ^= bit
            room[idx] += 1
        for idx in marked:
            dead[idx] = False

    record()  # the empty star, the first incumbent
    dfs(0, first_limit, sum(room), [0] * (k - 1) * m)
    maximum = best if best >= 0 else None
    return SearchResult(maximum, tuple(witnesses) if maximum is not None else (), nodes)


def legal_pairs(m: int, long_only: bool = False) -> list[tuple[int, int]]:
    out = []
    for s in range(m):
        for e in range(m):
            if not legal_exit(m, s, e):
                continue
            if long_only and min((e - s) % m, (s - e - 1) % m) < 2:
                continue
            out.append((s, e))
    return out


def max_arrows(
    m: int,
    k: int,
    *,
    long_only: bool = False,
    vertex_class: tuple[int, int, int] | None = None,
    budget: int | None = None,
) -> SearchResult:
    """Exact maximum number of arrows over fan-free m-stars.

    ``long_only`` restricts to configurations of long arrows only;
    ``vertex_class`` restricts to configurations whose derived
    (heavy, light, void) counts equal the given three ints, in any
    iterable, which must be at least 0 and sum to m (else ValueError).  The
    maximum is None when no configuration satisfies the filter.  Exceeding
    ``budget`` search nodes (at least 1, else ValueError) raises
    InconclusiveError rather than returning anything.  An ``m``, ``k`` or
    ``budget`` that is not an int (a bool included) raises TypeError.
    """
    check_ints(m=m, k=k)
    if budget is not None:
        check_ints(budget=budget)
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 search node, got {budget}")
    if vertex_class is not None:
        if long_only:
            raise ValueError("choose one filter: long_only or vertex_class")
        try:
            counts = tuple(vertex_class)
        except TypeError:  # not iterable
            counts = ()
        if (len(counts) != 3 or set(map(type, counts)) != {int}
                or sum(counts) != m or min(counts) < 0):
            raise ValueError(
                f"class counts {vertex_class!r} are not three ints >= 0 that partition m={m}")
        vertex_class = counts
    pairs = legal_pairs(m, long_only)
    first_limit = sum(1 for s, _e in pairs if s == 0)
    return _search(m, k, pairs, vertex_class, budget, first_limit)


BASE_CASE_ROWS: tuple[tuple[int, int, int], ...] = (
    (3, 0, 0),
    (2, 0, 1),
    (2, 1, 0),
    (4, 0, 0),
    (3, 0, 1),
    (3, 1, 0),
    (2, 0, 2),
    (2, 1, 1),
    (2, 2, 0),
)


def base_case_formula(h: int, lam: int, nu: int, k: int) -> int:
    """Reference values for the nine triangle/quadrilateral classes.

    The table is kept as stated; whether its source gives exact maxima or
    upper bounds cannot be settled from this repository.  At k = 3 exhaustive
    search agrees on six rows and differs on (2, 1, 0), (3, 1, 0) and
    (2, 1, 1) (see the README, "Base-case table").
    """
    table = {
        (3, 0, 0): 3 * k - 6,
        (2, 0, 1): 2 * k - 4,
        (2, 1, 0): k - 1,
        (4, 0, 0): 5 * k - 9,
        (3, 0, 1): 4 * k - 6,
        (3, 1, 0): 3 * k - 5,
        (2, 0, 2): 4 * k - 8,
        (2, 1, 1): 3 * k - 5,
        (2, 2, 0): 2 * k - 2,
    }
    return table[(h, lam, nu)]


class BaseCaseRow(NamedTuple):
    h: int
    lam: int
    nu: int
    searched: int | None
    formula: int
    match: bool


def verify_base_cases(k: int) -> list[BaseCaseRow]:
    """Exact maximum of each of the nine small classes beside its reference
    value."""
    if k < 3:
        raise ValueError(f"base cases are defined for k >= 3, got {k}")
    rows = []
    for h, lam, nu in BASE_CASE_ROWS:
        res = max_arrows(h + lam + nu, k, vertex_class=(h, lam, nu))
        formula = base_case_formula(h, lam, nu, k)
        rows.append(BaseCaseRow(h, lam, nu, res.maximum, formula, res.maximum == formula))
    return rows
