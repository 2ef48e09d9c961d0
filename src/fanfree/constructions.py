"""Deterministic generators for the extremal and lower-bound families.

Every generator verifies its own output with the exact checkers before
returning (simple graph, simplicity of coordinates where present, the
expected crossing pattern, and fan-freeness at the family's k), all in
``_verified``.  A verification failure is a construction bug or a
falsification and raises ConstructionError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .model import (
    AbstractDrawing,
    CrossingRelation,
    Graph,
    StraightLineDrawing,
    validate_graph,
)
from .crossings import SimplicityError, find_k_fans


class ConstructionError(RuntimeError):
    """A generator's self-verification failed."""


def _check(cond: bool, what: str):
    if not cond:
        raise ConstructionError(f"self-verification failed: {what}")


def _verified(d, k: int, what: str, pairs=None):
    """``d`` once it passes the self-checks: a simple graph, a simple drawing
    (a SimplicityError is a construction bug, so it becomes a
    ConstructionError), exactly the crossing ``pairs`` when they are given,
    and no k-fan."""
    _check(validate_graph(d.graph) is None, f"{what} graph invalid")
    try:
        rel = d.crossings
    except SimplicityError as exc:
        raise ConstructionError(f"self-verification failed: {what}: {exc}") from exc
    if pairs is not None:
        _check(rel.pairs == frozenset(pairs), f"{what} crossings are not the designed pairs")
    fans = find_k_fans(d.graph, rel, k)
    _check(not fans, f"{what} has a {k}-fan: {fans[:1]}")
    return d


def is_bipartite(n: int, edges) -> bool:
    color = [-1] * n
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _with_diagonals(q_edges, faces):
    """The edges of both extremal families: ``q_edges``, then the diagonals
    (p, r) and (q, s) of each quadrilateral face (p, q, r, s) in face order;
    and the designed crossings, one index pair per face, its two diagonals."""
    m = len(q_edges)
    edges = list(q_edges)
    for p, q, r, s in faces:
        edges += ((p, r), (q, s))
    return edges, frozenset((m + 2 * i, m + 2 * i + 1) for i in range(len(faces)))


# ---------------------------------------------------------------------------
# Quadrangulation-plus-diagonals family (4n-8 edges, combinatorial output)

def quad_extremal_parts(n: int):
    """Quadrangulation skeleton for the 4n-8 family: (Q edges, faces).

    Faces are 4-tuples in cyclic order.  n = 8 uses nested squares; even
    n >= 10 uses two poles and an equatorial zig-zag; odd n >= 11 splits
    the north pole of the even construction one size down.
    """
    if not (n == 8 or n >= 10):
        raise ValueError(
            f"no fan-crossing free graph with 4n-8 edges exists for n={n}; "
            "the family is defined for n = 8 and n >= 10"
        )
    if n == 8:
        a = [0, 1, 2, 3]
        b = [4, 5, 6, 7]
        q_edges = [(a[i], a[(i + 1) % 4]) for i in range(4)]
        q_edges += [(b[i], b[(i + 1) % 4]) for i in range(4)]
        q_edges += [(a[i], b[i]) for i in range(4)]
        faces = [(a[i], a[(i + 1) % 4], b[(i + 1) % 4], b[i]) for i in range(4)]
        faces.append((b[0], b[1], b[2], b[3]))
        faces.append((a[0], a[1], a[2], a[3]))
        return q_edges, faces
    if n % 2 == 0:
        t = (n - 2) // 2
        N, S = 0, 1
        u = [2 + 2 * i for i in range(t)]
        w = [3 + 2 * i for i in range(t)]
        q_edges = [(N, u[i]) for i in range(t)]
        q_edges += [(S, w[i]) for i in range(t)]
        q_edges += [(u[i], w[i]) for i in range(t)]
        q_edges += [(w[i], u[(i + 1) % t]) for i in range(t)]
        faces = [(N, u[i], w[i], u[(i + 1) % t]) for i in range(t)]
        faces += [(S, w[i], u[(i + 1) % t], w[(i + 1) % t]) for i in range(t)]
        return q_edges, faces
    # odd n: even construction on n-1 vertices, then split the north pole
    t = (n - 3) // 2
    N1, S, N2 = 0, 1, n - 1
    u = [2 + 2 * i for i in range(t)]
    w = [3 + 2 * i for i in range(t)]
    c = 2  # u[c] and u[0] stay shared between the two pole copies
    q_edges = [(N1, u[i]) for i in range(c + 1)]
    q_edges += [(N2, u[i]) for i in range(c, t)] + [(N2, u[0])]
    q_edges += [(S, w[i]) for i in range(t)]
    q_edges += [(u[i], w[i]) for i in range(t)]
    q_edges += [(w[i], u[(i + 1) % t]) for i in range(t)]
    faces = [(N1, u[i], w[i], u[i + 1]) for i in range(c)]
    faces += [(N2, u[i], w[i], u[(i + 1) % t]) for i in range(c, t)]
    faces += [(S, w[i], u[(i + 1) % t], w[(i + 1) % t]) for i in range(t)]
    faces.append((N1, u[c], N2, u[0]))
    return q_edges, faces


def gen_quad_extremal(n: int) -> AbstractDrawing:
    """Fan-crossing free drawing with exactly 4n-8 edges (n = 8 or n >= 10):
    a quadrilateral-faced skeleton plus both diagonals of every face, drawn
    so that the only crossings are the diagonal pairs inside each face."""
    q_edges, faces = quad_extremal_parts(n)
    edges, pairs = _with_diagonals(q_edges, faces)
    _check(len(edges) == 4 * n - 8, f"quad-extremal n={n} edge count")
    _check(len(faces) == n - 2, f"quad-extremal n={n} face count")
    _check(len(q_edges) == 2 * n - 4, f"quad-extremal n={n} skeleton size")
    _check(is_bipartite(n, q_edges), f"quad-extremal n={n} skeleton not bipartite")
    d = AbstractDrawing(
        Graph(n, tuple(edges)), CrossingRelation(pairs),
        provenance=f"quad-extremal(n={n})",
    )
    return _verified(d, 2, f"quad-extremal n={n}")


# ---------------------------------------------------------------------------
# Straight-line family (4n-9 edges, exact coordinates)

# gadgets filling the innermost triangle for n = 1, 2 (mod 3); coordinates
# live inside the size-16 base triangle (0,16), (-16,-16), (16,-16)
_GADGET4_COORDS = [(0, 6), (-6, -6), (6, -6), (4, 0)]  # D0 D1 D2 E
_GADGET5_COORDS = [(0, 6), (-6, -6), (5, -7), (4, -3), (4, 0)]  # C0..C4


def _straight_parts(n: int):
    """Skeleton Q of the straight-line family: integer points, edges, and
    the quadrilateral faces (triangle faces carry no diagonals)."""
    if n < 6:
        raise ValueError(f"the straight-line family needs n >= 6, got {n}")
    r = n % 3
    levels = {0: n // 3, 1: (n - 4) // 3, 2: (n - 5) // 3}[r]
    points: list[tuple[int, int]] = []
    for j in range(levels):
        scale = 4**j
        points.extend((x * scale, y * scale) for x, y in ((0, 16), (-16, -16), (16, -16)))
    edges = []
    quads = []
    for j in range(levels):
        v = [3 * j, 3 * j + 1, 3 * j + 2]
        edges += [(v[0], v[1]), (v[1], v[2]), (v[0], v[2])]
    for j in range(levels - 1):
        inner = [3 * j, 3 * j + 1, 3 * j + 2]
        outer = [3 * j + 3, 3 * j + 4, 3 * j + 5]
        edges += [(inner[i], outer[i]) for i in range(3)]
        quads += [
            (outer[i], outer[(i + 1) % 3], inner[(i + 1) % 3], inner[i])
            for i in range(3)
        ]
    b = [0, 1, 2]  # innermost level hosts the gadget
    if r == 1:
        d0, d1, d2, e = range(3 * levels, 3 * levels + 4)
        points.extend(_GADGET4_COORDS)
        edges += [(d0, d1), (d1, d2), (d2, e), (e, d0)]
        edges += [(b[0], d0), (b[1], d1), (b[2], d2), (b[0], e)]
        quads += [
            (d0, d1, d2, e),
            (b[0], b[1], d1, d0),
            (b[1], b[2], d2, d1),
            (b[2], b[0], e, d2),
        ]
    elif r == 2:
        c0, c1, c2, c3, c4 = range(3 * levels, 3 * levels + 5)
        points.extend(_GADGET5_COORDS)
        edges += [(c0, c1), (c1, c2), (c2, c3), (c3, c4), (c4, c0), (c0, c3)]
        edges += [(b[0], c0), (b[1], c1), (b[2], c2), (b[2], c4)]
        quads += [
            (c0, c1, c2, c3),
            (b[0], b[1], c1, c0),
            (b[1], b[2], c2, c1),
            (b[2], c4, c3, c2),
            (b[2], b[0], c0, c4),
        ]
    return points, edges, quads


def gen_straight_extremal(n: int) -> StraightLineDrawing:
    """Straight-line fan-crossing free drawing with exactly 4n-9 edges
    (n >= 6): nested triangles whose annuli are strictly convex
    quadrilaterals, both diagonals added to every quadrilateral face."""
    points, q_edges, quads = _straight_parts(n)
    edges, pairs = _with_diagonals(q_edges, quads)
    _check(len(edges) == 4 * n - 9, f"straight-extremal n={n} edge count")
    d = StraightLineDrawing(Graph(n, tuple(edges)), tuple(points))
    return _verified(d, 2, f"straight-extremal n={n}", pairs)


# ---------------------------------------------------------------------------
# Integer grid with a symmetric short-vector stencil (k >= 3 lower bound)

def grid_stencil(k: int) -> list[tuple[int, int]]:
    """The k-1 shortest primitive vectors with angle in [0, pi), ordered by
    (squared length, angle).  Connecting every grid vertex along these (and
    implicitly their negations) gives degree 2(k-1) away from the border."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    # equal lengths on the upper half-plane: ccw angle order is descending dx
    reach = 1
    while True:
        cands = sorted(
            (
                (dx, dy)
                for dx in range(-reach, reach + 1)
                for dy in range(reach + 1)
                if (dy > 0 or dx > 0) and gcd(abs(dx), dy) == 1
            ),
            key=lambda v: (v[0] * v[0] + v[1] * v[1], -v[0]),
        )
        # a vector outside the box is longer than reach, so once the
        # (k-1)-th candidate is no longer than that, the first k-1 are final
        if len(cands) >= k - 1:
            dx, dy = cands[k - 2]
            if dx * dx + dy * dy <= reach * reach:
                return cands[: k - 1]
        reach += 1


def _stencil_grid(rows: int, cols: int, stencil):
    """The rows x cols integer grid, vertex y * cols + x at (x, y), and the
    edge from every vertex along each stencil vector that stays in the
    grid, in (vertex, stencil) order."""
    points = tuple((x, y) for y in range(rows) for x in range(cols))
    edges = [
        (y * cols + x, (y + dy) * cols + x + dx)
        for y in range(rows)
        for x in range(cols)
        for dx, dy in stencil
        if 0 <= x + dx < cols and 0 <= y + dy < rows
    ]
    return points, edges


def gen_grid(side: int, k: int) -> StraightLineDrawing:
    """side x side integer grid, every vertex joined to its stencil
    neighbors; verified k-fan-crossing free."""
    if side < 4:
        raise ValueError(f"side must be >= 4, got {side}")
    points, edges = _stencil_grid(side, side, grid_stencil(k))
    d = StraightLineDrawing(Graph(side * side, tuple(edges)), points)
    return _verified(d, k, f"grid side={side} k={k}")


# ---------------------------------------------------------------------------
# Complete graph with every edge subdivided into three (fan-crossing free)

def gen_kq_subdivision(q: int) -> StraightLineDrawing:
    """K_q with each edge split u-x-y-v by two vertices close to the hubs;
    fan-crossing free because no two crossable segments share an endpoint."""
    if not (3 <= q <= 12):
        raise ValueError(f"q must be in [3, 12], got {q}")
    hubs = []
    for i in range(q):
        t = Fraction(2 * i - (q - 1), 2)
        den = 1 + t * t
        hubs.append(((1 - t * t) / den, 2 * t / den))
    chords = [(i, j) for i in range(q) for j in range(i + 1, q)]
    n = q + 2 * len(chords)
    eps = Fraction(1, 8 * q * q)
    coords = list(hubs)
    edges = []
    for u, v in chords:
        (ux, uy), (vx, vy) = hubs[u], hubs[v]
        x_id = len(coords)
        coords.append((ux + eps * (vx - ux), uy + eps * (vy - uy)))
        y_id = len(coords)
        coords.append((vx + eps * (ux - vx), vy + eps * (uy - vy)))
        edges += [(u, x_id), (x_id, y_id), (y_id, v)]
    d = StraightLineDrawing.from_coords(Graph(n, tuple(edges)), coords)
    _check(len(edges) == 3 * len(chords), "subdivision edge count")
    return _verified(d, 2, f"kq-subdivision q={q}")


# ---------------------------------------------------------------------------
# Triangulation plus duals (4-fan-crossing free, about 6n-12 edges)

def gen_tri_plus_dual(rows: int, cols: int) -> StraightLineDrawing:
    """Grid-strip triangulation plus, for every pair of adjacent triangles,
    the edge joining their two unshared vertices; verified 4-fan-free.  It
    is the stencil grid along ``grid_stencil(7)``: the triangulation is
    (1, 0), (0, 1), (1, 1), and the duals across a cell diagonal, an
    interior vertical and an interior horizontal edge are (-1, 1), (2, 1),
    (1, 2)."""
    if rows < 3 or cols < 3:
        raise ValueError("rows and cols must be >= 3")
    n = rows * cols
    points, edges = _stencil_grid(rows, cols, grid_stencil(7))
    edges = tuple(sorted(edges))
    _check(len(edges) <= 6 * n - 12, "tri-plus-dual exceeds 6n-12 edges")
    return _verified(StraightLineDrawing(Graph(n, edges), points), 4, "tri-plus-dual")
