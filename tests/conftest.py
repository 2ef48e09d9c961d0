import functools
import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from fanfree.model import Graph, StraightLineDrawing
from fanfree.star import (
    StarConfig,
    classify_vertices,
    is_fan_free,
    legal_exit,
    legal_pairs,
)


def F(x, y):
    return (Fraction(x), Fraction(y))


@pytest.fixture
def fan_fixture():
    """v at the origin with spokes to a and b, both cut by the vertical
    edge cd: the canonical 2-fan."""
    g = Graph(5, ((0, 1), (0, 2), (3, 4)))  # va, vb, cd
    coords = (F(0, 0), F(2, 2), F(2, -2), F(1, 3), F(1, -3))
    return StraightLineDrawing(g, coords)


@pytest.fixture
def triangle():
    return StraightLineDrawing(
        Graph(3, ((0, 1), (1, 2), (0, 2))), (F(0, 0), F(4, 0), F(0, 4))
    )


def random_star(rng: random.Random, m: int, k: int, attempts: int = 30) -> StarConfig:
    """Random fan-free star built by rejection: insert random arrows at
    random slots, keep an insertion only if the config stays fan-free."""
    per_edge: list[list[int]] = [[] for _ in range(m)]

    def materialize():
        arrows = []
        for e in range(m):
            for rank, s in enumerate(per_edge[e]):
                arrows.append((s, e, rank))
        return StarConfig(m, tuple(sorted(arrows)))

    for _ in range(attempts):
        s = rng.randrange(m)
        e = rng.randrange(m)
        if not legal_exit(m, s, e):
            continue
        pos = rng.randint(0, len(per_edge[e]))
        per_edge[e].insert(pos, s)
        if not is_fan_free(materialize(), k):
            per_edge[e].pop(pos)
    return materialize()


@functools.cache
def brute_class_table(m: int, k: int) -> dict[tuple[int, int, int], int]:
    """Exact per-class maxima by enumerating every multiset of legal arrow
    pairs and every slot ordering; completely independent of the search.

    The arrow count grows until no star of that count is fan-free.  Removing
    an arrow keeps a star fan-free, so no larger count can have one either.
    Cached, since the 4-gon at k = 3 takes seconds and several tests read
    it; callers must not mutate the returned dict.
    """
    pairs = legal_pairs(m)
    best = {}

    def slot_assignments(multiset):
        per = defaultdict(list)
        for i, (s, e) in enumerate(multiset):
            per[e].append(i)
        edges = sorted(per)

        def rec(ei):
            if ei == len(edges):
                yield {}
                return
            for perm in itertools.permutations(range(len(per[edges[ei]]))):
                for rest in rec(ei + 1):
                    d = dict(rest)
                    for slot, which in zip(perm, per[edges[ei]]):
                        d[which] = slot
                    yield d

        yield from rec(0)

    for total in itertools.count():
        found = False
        for multiset in itertools.combinations_with_replacement(pairs, total):
            if any(multiset.count(p) > k - 1 for p in set(multiset)):
                continue
            seen = set()
            for slots in slot_assignments(multiset):
                arrows = tuple(
                    sorted((multiset[i][0], multiset[i][1], slots[i]) for i in range(total))
                )
                if arrows in seen:
                    continue
                seen.add(arrows)
                cfg = StarConfig(m, arrows)
                if is_fan_free(cfg, k):
                    found = True
                    cls = classify_vertices(cfg).counts
                    if cls not in best or total > best[cls]:
                        best[cls] = total
        if not found:
            return best
