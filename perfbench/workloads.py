"""The benchmark's workloads: their inputs, one pass of operations, and the
check of every answer.

A workload is built by ``WORKLOADS[name](ff, seed, tiny)`` where ``ff`` is
the imported ``fanfree`` package and ``tiny`` selects the smoke-test sizes.  Operations look up library functions
through ``ff`` at call time, so a traced run sees them through its patches.
Each operation returns the library's raw result; ``canon`` turns it into a
plain, comparable answer outside the timed region, and ``verify`` checks
that answer against a reference that does not come from the code under
test, except where noted.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, ff):
        self.ff = ff
        self.ops: list[tuple[str, object]] = []  # (label, zero-argument call)
        self.drawings_per_pass = 0
        self.input_digest = ""

    def canon(self, label: str, result):
        raise NotImplementedError

    def verify(self, label: str, answer) -> str | None:
        """None if ``answer`` is right, else why it is wrong."""
        raise NotImplementedError

    @staticmethod
    def step_name(label: str) -> str | None:
        """Name under which the best time of this label is printed on a
        report line, or None when the labels are too many to print."""
        kind, _, case = label.partition(".")
        return f"{kind}_s.{case}"


# ---------------------------------------------------------------------------
# audit-large


def straight_quads(n: int) -> int:
    """Quadrilateral faces of the nested-triangle family on n vertices: three
    per annulus plus those of the gadget that fills in n mod 3."""
    r = n % 3
    levels = {0: n // 3, 1: (n - 4) // 3, 2: (n - 5) // 3}[r]
    return 3 * (levels - 1) + {0: 0, 1: 4, 2: 5}[r]


# the four shortest primitive directions, which gen_grid uses for k = 5
GRID_K5_STENCIL = ((1, 0), (0, 1), (1, 1), (-1, 1))


class AuditLarge(Workload):
    name = "audit-large"

    SHORT_REPEATS = 3

    def __init__(self, ff, seed, tiny):
        super().__init__(ff)
        # Every op stays near a second or below so that a run makes several
        # passes and each op's best time is steady; n = 400 alone would take
        # 15 s or more and leave one sample per run.  The smallest case runs
        # SHORT_REPEATS times, so the median op is one of its short, often
        # sampled audits rather than whichever two large ops sit mid-pass.
        self.ns = (12, 20) if tiny else (60, 120)
        self.grid = (6, 5) if tiny else (12, 5)
        drawings = {}

        def gen_straight(n):
            drawings[n] = ff.constructions.gen_straight_extremal(n)
            return drawings[n]

        def gen_grid(side, k):
            drawings["grid"] = ff.constructions.gen_grid(side, k)
            return drawings["grid"]

        plan = []
        for n in self.ns:
            for _ in range(self.SHORT_REPEATS if n == self.ns[0] else 1):
                self.ops.append((f"gen.n{n}", lambda n=n: gen_straight(n)))
                self.ops.append((f"audit.n{n}", lambda n=n: ff.decompose.audit(drawings[n], 2)))
                plan.append(f"gen_straight_extremal({n});audit(k=2)")
        side, k = self.grid
        case = f"grid{side}k{k}"
        self.ops.append((f"gen.{case}", lambda: gen_grid(side, k)))
        self.ops.append((f"audit.{case}", lambda: ff.decompose.audit(drawings["grid"], k)))
        plan.append(f"gen_grid({side},{k});audit(k={k})")
        self.drawings_per_pass = len(plan)
        self.input_digest = sha256("\n".join(plan))

    def canon(self, label, result):
        if label.startswith("gen."):
            g = result.graph
            coords = [(x.numerator, x.denominator, y.numerator, y.denominator)
                      for x, y in result.coords]
            return ("gen", g.n, len(g.edges), sha256(repr((g.edges, coords))))
        hits = tuple(sorted((a.edge, a.start, a.first_hit) for a in result.arrows))
        return ("audit", result.ok, len(result.h_edges), len(result.k_edges),
                result.faces, hits)

    def verify(self, label, answer):
        kind, _, case = label.partition(".")
        if kind == "gen":
            _, n, edges = answer[:3]
            if case.startswith("grid"):
                side = self.grid[0]
                want_n = side * side
                want_e = sum((side - abs(dx)) * (side - abs(dy)) for dx, dy in GRID_K5_STENCIL)
            else:
                want_n = int(case[1:])
                want_e = 4 * want_n - 9
            if (n, edges) != (want_n, want_e):
                return f"{n} vertices and {edges} edges, expected {want_n} and {want_e}"
            return None
        _, ok, _h, k_edges, _faces, hits = answer
        if not ok:
            return "audit reports a falsification"
        if len(hits) != 2 * k_edges:
            return f"{len(hits)} arrows for {k_edges} excluded edges"
        if case.startswith("grid"):
            return None
        # one crossing pair per quadrilateral: each excluded diagonal first
        # hits its partner from both ends, and no edge is in two pairs
        partner: dict[int, int] = {}
        for edge, _start, hit in hits:
            if partner.setdefault(edge, hit) != hit:
                return f"excluded edge {edge} first hits two different H edges"
        kept = list(partner.values())
        quads = straight_quads(int(case[1:]))
        if len(partner) != quads or len(set(kept)) != quads:
            return f"{len(partner)} crossing pairs for {quads} quadrilaterals"
        if set(kept) & set(partner):
            return "an edge belongs to two crossing pairs"
        return None


# ---------------------------------------------------------------------------
# check-small


def random_drawing_json(rng: random.Random) -> str:
    """A small drawing in the interchange format.  Points are drawn on a
    coarse grid often enough that some drawings have collinear or coincident
    vertices, which the checker must reject as not simple."""
    n = rng.randint(4, 12)
    den = rng.choice((1, 1, 2, 3))
    reach = rng.choice((4, 8, 40))
    pts = [
        (Fraction(rng.randint(-reach, reach), den), Fraction(rng.randint(-reach, reach), den))
        for _ in range(n)
    ]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = sorted(pairs[: rng.randint(3, min(20, len(pairs)))])
    return json.dumps(
        {
            "schema": 1,
            "n": n,
            "edges": [list(e) for e in edges],
            "coords": [[x.numerator, x.denominator, y.numerator, y.denominator] for x, y in pts],
        },
        separators=(",", ":"),
    )


def _orient(a, b, c) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _dot(p, a, b):
    return (a[0] - p[0]) * (b[0] - p[0]) + (a[1] - p[1]) * (b[1] - p[1])


def reference_crossings(n, edges, pts):
    """Crossing pairs of a simple drawing, or None if it is not simple,
    decided directly on the rational points."""
    if len(set(pts)) != n:
        return None
    for u, v in edges:
        for w in range(n):
            if w not in (u, v) and _orient(pts[u], pts[v], pts[w]) == 0 \
                    and _dot(pts[w], pts[u], pts[v]) < 0:
                return None
    pairs = set()
    for i, (a1, b1) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            a2, b2 = edges[j]
            shared = {a1, b1} & {a2, b2}
            if shared:
                (s,) = shared
                o1, o2 = pts[a1 + b1 - s], pts[a2 + b2 - s]
                if _orient(pts[s], o1, o2) == 0 and _dot(pts[s], o1, o2) > 0:
                    return None
                continue
            p, q, r, t = pts[a1], pts[b1], pts[a2], pts[b2]
            if _orient(p, q, r) * _orient(p, q, t) < 0 and _orient(r, t, p) * _orient(r, t, q) < 0:
                pairs.add((i, j))
    return pairs


class CheckSmall(Workload):
    name = "check-small"

    def __init__(self, ff, seed, tiny):
        super().__init__(ff)
        rng = random.Random(seed)
        self.texts = [random_drawing_json(rng) for _ in range(60 if tiny else 2000)]
        self.ops = [
            (f"d{i}", lambda text=text: self.check_one(text))
            for i, text in enumerate(self.texts)
        ]
        self.drawings_per_pass = len(self.texts)
        self.input_digest = sha256("\n".join(self.texts))
        self._expected: dict[str, tuple] = {}

    def check_one(self, text):
        """The path of ``fanfree check`` followed by ``fanfree audit``."""
        ff = self.ff
        d = ff.model.from_json_dict(json.loads(text))
        if not ff.crossings.validate_simplicity(d).ok:
            return ("non-simple",)
        rel = ff.crossings.compute_crossings(d)
        fans = ff.crossings.find_k_fans(d.graph, rel, 2)
        if fans:
            return ("fan", rel, fans)
        return ("fan-free", rel, ff.decompose.audit(d, 2))

    @staticmethod
    def step_name(label):
        return None

    def canon(self, label, result):
        if result[0] == "non-simple":
            return result
        kind, rel, extra = result
        pairs = tuple(sorted(rel.pairs))
        if kind == "fan":
            return (kind, pairs, tuple(sorted({(w.crosser, w.apex) for w in extra})))
        return (kind, pairs, extra.ok, len(extra.h_edges), extra.faces)

    def expected(self, label):
        """Kind, crossing pairs and witness set.  Simplicity and crossings
        are decided here; the witnesses come from the package's brute-force
        oracle, which shares no code with ``find_k_fans``."""
        if label not in self._expected:
            data = json.loads(self.texts[int(label[1:])])
            n = data["n"]
            edges = [tuple(e) for e in data["edges"]]
            pts = [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in data["coords"]]
            pairs = reference_crossings(n, edges, pts)
            if pairs is None:
                self._expected[label] = ("non-simple", None, None)
            else:
                model = self.ff.model
                wit = self.ff.repro.naive_fan_oracle(
                    model.Graph(n, tuple(edges)),
                    model.CrossingRelation(frozenset(pairs)),
                    2,
                )
                kind = "fan" if wit else "fan-free"
                self._expected[label] = (kind, tuple(sorted(pairs)), tuple(sorted(wit)))
        return self._expected[label]

    def verify(self, label, answer):
        kind, pairs, wit = self.expected(label)
        if answer[0] != kind:
            return f"verdict {answer[0]}, expected {kind}"
        if kind == "non-simple":
            return None
        if answer[1] != pairs:
            return "crossing pairs differ from the reference"
        if kind == "fan":
            return None if answer[2] == wit else "witness set differs from the naive oracle"
        return None if answer[2] else "audit of a fan-free drawing reports a falsification"


# ---------------------------------------------------------------------------
# star-search

# Maxima and node counts recorded at the baseline; a search change that
# alters the node count on purpose has to update them with its reason.
STAR_EXPECTED = {
    (7, 2): (8, 8895),
    (5, 3): (10, 14637),
    (6, 2): (6, 664),
    (4, 3): (6, 182),
}
# verify_base_cases(3) as the exhaustive search gives it today.  The three
# C3 rows that disagree with the published table are the documented,
# machine-verified discrepancy, not failures.
BASE_CASES_K3 = (3, 2, None, 6, 6, 5, 4, 5, 4)


class StarSearch(Workload):
    name = "star-search"

    def __init__(self, ff, seed, tiny):
        super().__init__(ff)
        # m = 7 rather than 8 at k = 2: m = 8 takes 8 s or more, which leaves
        # two or three samples per run.
        searches = ((6, 2), (4, 3)) if tiny else ((7, 2), (5, 3))
        for m, k in searches:
            self.ops.append((f"search.m{m}k{k}", lambda m=m, k=k: ff.star.max_arrows(m, k)))
        self.ops.append(("base.k3", lambda: ff.star.verify_base_cases(3)))
        plan = [f"max_arrows({m},{k})" for m, k in searches] + ["verify_base_cases(3)"]
        self.input_digest = sha256("\n".join(plan))

    def canon(self, label, result):
        if label.startswith("search."):
            return ("search", result.maximum, result.nodes)
        return ("base", tuple(row.searched for row in result))

    def verify(self, label, answer):
        if label == "base.k3":
            ok = answer[1] == BASE_CASES_K3
            return None if ok else f"base cases {answer[1]}, expected {BASE_CASES_K3}"
        m, k = (int(x) for x in label[len("search.m"):].split("k"))
        want = ("search",) + STAR_EXPECTED[(m, k)]
        return None if answer == want else f"maximum and nodes {answer[1:]}, expected {want[1:]}"


WORKLOADS = {w.name: w for w in (AuditLarge, CheckSmall, StarSearch)}
