import random
from fractions import Fraction

import pytest

from fanfree.crossings import is_k_fan_free
from fanfree.model import Graph, StraightLineDrawing
from fanfree.star import StarConfig, legal_exit, star_drawing


def F(x, y):
    return (Fraction(x), Fraction(y))


def big_affine(d):
    """d under a positive affine map with a 100-bit scale, offset and
    denominator: every answer is kept, and every integer point is several
    machine words long."""
    big = 2**100 + 7
    return StraightLineDrawing.from_coords(
        d.graph,
        tuple(
            (Fraction(big * x + 3**70, 2**90 + 1), Fraction(big * y - 5**40, 3**55))
            for x, y in d.coords
        ),
    )


@pytest.fixture
def fan_fixture():
    """v at the origin with spokes to a and b, both cut by the vertical
    edge cd: the canonical 2-fan."""
    g = Graph(5, ((0, 1), (0, 2), (3, 4)))  # va, vb, cd
    coords = (F(0, 0), F(2, 2), F(2, -2), F(1, 3), F(1, -3))
    return StraightLineDrawing.from_coords(g, coords)


@pytest.fixture
def triangle():
    return StraightLineDrawing.from_coords(
        Graph(3, ((0, 1), (1, 2), (0, 2))), (F(0, 0), F(4, 0), F(0, 4))
    )


def random_star(rng: random.Random, m: int, k: int, attempts: int = 30) -> StarConfig:
    """Random fan-free star built by rejection: insert random arrows at
    random slots, keep an insertion only if the config stays fan-free."""
    per_edge: dict[int, list[int]] = {e: [] for e in range(m)}

    def materialize():
        return StarConfig.from_orders(m, per_edge)

    for _ in range(attempts):
        s = rng.randrange(m)
        e = rng.randrange(m)
        if not legal_exit(m, s, e):
            continue
        pos = rng.randint(0, len(per_edge[e]))
        per_edge[e].insert(pos, s)
        if not is_k_fan_free(star_drawing(materialize()), k):
            per_edge[e].pop(pos)
    return materialize()
