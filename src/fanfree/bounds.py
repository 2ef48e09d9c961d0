"""Closed-form edge bounds for k-fan-crossing free graphs, the exact
extremal value per n for k = 2, and the machine-checked arithmetic behind
the n = 7 and n = 9 nonexistence results."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import SCHEMA_VERSION, AbstractDrawing, Graph, StraightLineDrawing, check_ints
from .crossings import find_k_fans


def upper_bound(n: int, k: int, straight: bool = False) -> int:
    """Maximum edge count: 4n-8 (k=2, topological), 4n-9 (k=2, straight
    edges), 3(k-1)(n-2) for k >= 3.  An ``n`` or ``k`` that is not an int
    (a bool included) raises TypeError."""
    check_ints(n=n, k=k)
    if n < 3:
        raise ValueError(f"bounds are stated for n >= 3, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k == 2:
        return 4 * n - 9 if straight else 4 * n - 8
    return 3 * (k - 1) * (n - 2)


def edge_limit(n: int, k: int, straight: bool = False) -> int:
    """The proven edge limit: ``upper_bound``, lowered at k = 2 to the exact
    maximum ``exact_extremal_k2``, which holds for every drawing,
    straight-line or not."""
    bound = upper_bound(n, k, straight)
    return min(bound, exact_extremal_k2(n)[0]) if k == 2 else bound


REASON_SMALL = "K_n is fan-crossing free for n <= 6, so the complete graph is extremal"
REASON_7 = (
    "a 4n-8 graph needs a quadrilateral-faced skeleton Q with 2n-4 = 10 edges; "
    "average degree 20/7 < 3 forces a degree-2 vertex, whose two faces would "
    "repeat a diagonal; extremal graphs have 4n-9 edges instead"
)
REASON_9 = (
    "a 4n-8 skeleton Q has total degree 28 and, barring a degree-2 vertex, "
    "degree sequence (4, 3x8); Q is bipartite, and equal side degrees force "
    "4 + 3k = 3(8-k), i.e. 6k = 20, which has no integer solution; extremal "
    "graphs have 4n-9 edges instead"
)
REASON_GENERIC = "the 4n-8 bound is attained (quadrangulation plus diagonals)"


def exact_extremal_k2(n: int) -> tuple[int, str]:
    """Exact maximum edge count of a fan-crossing free graph on n vertices.
    An ``n`` that is not an int (a bool included) raises TypeError."""
    check_ints(n=n)
    if n < 3:
        raise ValueError(f"defined for n >= 3, got {n}")
    if n <= 6:
        return n * (n - 1) // 2, REASON_SMALL
    if n == 7:
        return 4 * n - 9, REASON_7
    if n == 9:
        return 4 * n - 9, REASON_9
    return 4 * n - 8, REASON_GENERIC


def nonexistence_argument(n: int) -> dict:
    """The arithmetic facts ruling out a 4n-8 graph for n in {7, 9}, each
    recomputed rather than quoted."""
    if n not in (7, 9):
        raise ValueError(f"the nonexistence argument covers n in (7, 9), got {n}")
    quad_edges = 2 * n - 4
    total_degree = 2 * quad_edges
    if n == 7:
        avg = Fraction(total_degree, n)
        return {
            "n": n,
            "quad_edges": quad_edges,
            "total_degree": total_degree,
            "avg_degree": avg,
            "avg_below_3": avg < 3,
            "degree2_forced": avg < 3,
        }
    # n = 9: no degree-2 vertex leaves one vertex of degree 4 and eight of
    # degree 3; bipartiteness then needs an integer k with 4+3k = 3(8-k)
    assert total_degree == 28
    forced = 28 - 3 * 9 == 1
    solutions = [k for k in range(0, 9) if 4 + 3 * k == 3 * (8 - k)]
    return {
        "n": n,
        "quad_edges": quad_edges,
        "total_degree": total_degree,
        "degree_sequence_forced": forced,
        "bipartition_equation": "4 + 3k = 24 - 3k",
        "integer_solutions": solutions,
        "contradiction": not solutions,
    }


class BoundReport(NamedTuple):
    n: int
    k: int
    straight: bool
    edges: int | None
    bound: int
    exact_extremal: int | None
    verdict: str
    fan_free_checked: bool
    falsification: bool
    reason: str


def check_graph_against_bounds(
    obj: Graph | StraightLineDrawing | AbstractDrawing,
    k: int = 2,
    straight: bool | None = None,
) -> BoundReport:
    """Compare an input's edge count with the proven bounds; drawings are
    additionally fan-checked, and a verified fan-free drawing above a
    proven bound is flagged as a falsification."""
    if straight is None:
        straight = isinstance(obj, StraightLineDrawing)
    g = obj if isinstance(obj, Graph) else obj.graph
    bound = upper_bound(g.n, k, straight)
    exact = exact_extremal_k2(g.n)[0] if k == 2 else None
    limit = edge_limit(g.n, k, straight)
    m = len(g.edges)
    fan_free = None if isinstance(obj, Graph) else not find_k_fans(g, obj.crossings, k)
    falsification = bool(fan_free) and m > limit
    if falsification:
        verdict = "falsification"
        reason = (
            f"a verified {k}-fan-crossing free drawing with {m} edges exceeds "
            f"the proven limit {limit}; this cannot happen unless the bound is wrong"
        )
    elif fan_free is False:
        verdict = "has-fan-crossing"
        reason = f"the drawing contains a {k}-fan crossing"
    elif m > limit:
        verdict = "cannot-be-fan-crossing-free"
        reason = f"{m} edges exceed the limit {limit} for n={g.n}"
    elif m == limit:
        verdict = "extremal"
        reason = f"edge count meets the exact limit {limit}"
    else:
        verdict = "below-bound"
        reason = f"{m} edges within the limit {limit}"
    return BoundReport(
        n=g.n,
        k=k,
        straight=bool(straight),
        edges=m,
        bound=bound,
        exact_extremal=exact,
        verdict=verdict,
        fan_free_checked=fan_free is not None,
        falsification=falsification,
        reason=reason,
    )


def report_to_json(rep: BoundReport) -> dict:
    return {"schema": SCHEMA_VERSION, **rep._asdict()}
