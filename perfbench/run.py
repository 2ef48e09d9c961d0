"""Benchmark of the fanfree library, driven from one process by one client
in a closed loop: one library call at a time, no threads, no worker pool.

    python3 perfbench/run.py --workload audit-large --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory.  The run
makes whole passes over the workload's operations until the next pass would
end after ``--seconds``; there is always at least one.  Set-up (a fresh
import and the seeded inputs) is done again before every plain pass, and
the pass runs on what it built; ``setup_s`` is the fastest of these
set-ups.  Every answer is checked after its pass, outside the timed region;
a wrong answer or an exception counts as failed.

Times are taken at their best: each op of a pass counts with the fastest
time of its label (the same call on the same input) in the run's plain
passes; ``pass_s`` is their sum, and ``op_p50_s`` and ``op_p99_s`` are their
median and nearest-rank p99.
On a shared host whose speed swings by a fifth within seconds, the median
of a run's samples jumps between the host's slow and fast phases, while the
best time is the steadiest estimate of what the code costs (the advice of
``timeit``).  Set-ups are spread over the run, not made back to back, for
the same reason: the fastest of them then comes from the host's fast phase.
The garbage of the previous pass or set-up is collected before each one,
outside the timed region.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` plain and traced passes alternate (at least one of each): the
traced ones wrap the library's layer functions from outside (see
``tracing.py``) and give the per-layer metrics, each the least over traced
passes of its per-pass value, and ``trace.overhead_pct`` compares the
fastest traced with the fastest plain pass.  The spans of the last traced
pass are written to ``perfbench/out/``.

Lines before the last are for people: the input and answer digests, the
failed ratio, and per-operation timings of the workload.  The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, sha256

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_p99_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "crossings.compute_crossings.s": "s",
    "crossings.compute_crossings.calls": "calls/drawing",
    "crossings.validate_simplicity.s": "s",
    "crossings.find_k_fans.s": "s",
    "crossings.pairs_found": "count",
    "crossings.edge_pairs": "count",
    "decompose.maximal_plane_subgraph.s": "s",
    "decompose.trace_faces.s": "s",
    "decompose.arrowize.s": "s",
    "decompose.audit.s": "s",
    "constructions.gen_straight_extremal.s": "s",
    "constructions.gen_grid.s": "s",
    "model.from_json_dict.s": "s",
    "star.nodes.m7k2": "count",
    "star.nodes.m5k3": "count",
    "star.us_per_node.m7k2": "us",
    "star.us_per_node.m5k3": "us",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
STAR_CASES = ((7, 2), (5, 3))


def import_fanfree():
    """Import the package afresh from ``src/`` (and nowhere else)."""
    for key in [k for k in sys.modules if k == "fanfree" or k.startswith("fanfree.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ff = importlib.import_module("fanfree")
    importlib.import_module("fanfree.repro")
    if Path(ff.__file__).resolve().parent != SRC / "fanfree":
        raise ImportError(f"fanfree was imported from {ff.__file__}, not from {SRC}")
    return ff


def set_up(name, seed, tiny):
    gc.collect()
    t0 = time.perf_counter()
    workload = WORKLOADS[name](import_fanfree(), seed, tiny)
    return workload, time.perf_counter() - t0


class Answers:
    """Checks each pass's answers.  The first pass is verified against the
    workload's references; every later pass must repeat it exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.first: list | None = None
        self.reasons: list = []
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def _canon(self, label, result):
        if isinstance(result, Exception):
            return ("error", type(result).__name__, str(result))
        try:
            return self.workload.canon(label, result)
        except Exception as exc:  # a result of the wrong shape is a failure too
            return ("error", type(exc).__name__, str(exc))

    def _verify(self, label, answer):
        if answer[0] == "error":
            return f"{answer[1]}: {answer[2]}"
        return self.workload.verify(label, answer)

    def check(self, results):
        labels = [label for label, _call in self.workload.ops]
        answers = [self._canon(label, r) for label, r in zip(labels, results)]
        if self.first is None:
            self.first = answers
            self.reasons = [self._verify(label, a) for label, a in zip(labels, answers)]
        for label, answer, first, reason in zip(labels, answers, self.first, self.reasons):
            if answer != first:
                reason = "answer differs from the first pass"
            if reason:
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{label}: {reason}")
        self.attempted += len(answers)
        return answers

    def digest(self) -> str:
        return sha256(repr(self.first))


def run_pass(workload, tracer=None):
    times, results = [], []
    start = time.perf_counter()
    for label, call in workload.ops:
        t0 = time.perf_counter()
        try:
            result = call() if tracer is None else tracer.call(label, call)
        except Exception as exc:
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, times, results


def layer_metrics(workload, tracer, answers) -> dict[str, float]:
    own = tracer.self_times()
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":  # "<span>.s" is the self time of span <span>
            out[name] = own.get(name[: -len(".s")], (0.0, 0))[0]
    calls = own.get("crossings.compute_crossings", (0.0, 0))[1]
    drawings = workload.drawings_per_pass
    out["crossings.compute_crossings.calls"] = calls / drawings if drawings else 0
    out["crossings.pairs_found"] = tracer.counts["crossings.pairs_found"]
    out["crossings.edge_pairs"] = tracer.counts["crossings.edge_pairs"]
    for m, k in STAR_CASES:
        label = f"search.m{m}k{k}"
        answer = next((a for (lb, _call), a in zip(workload.ops, answers) if lb == label), None)
        nodes = answer[2] if answer and answer[0] == "search" else 0
        busy = tracer.child_self_time(label, "star.max_arrows")
        out[f"star.nodes.m{m}k{k}"] = nodes
        out[f"star.us_per_node.m{m}k{k}"] = busy / nodes * 1e6 if nodes else 0
    out["trace.spans"] = len(tracer.spans)
    return out


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload on small inputs, for the smoke test")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    try:
        workload, setup = set_up(args.workload, args.seed, args.size == "tiny")
    except ImportError as exc:
        print(f"cannot import fanfree from {SRC}: {exc}", file=sys.stderr)
        return 2

    setups = [setup]
    answers = Answers(workload)
    tracer = Tracer() if args.trace else None
    modes = [False, True] if args.trace else [False]
    walls = {False: [], True: []}
    op_times: list[list[float]] = []  # per plain pass
    layers: list[dict] = []
    while True:
        traced = modes[(len(walls[False]) + len(walls[True])) % len(modes)]
        if not traced and walls[False]:
            # the traced passes patch the modules of the latest import, so
            # every later pass runs on the workload built with it
            workload, setup = set_up(args.workload, args.seed, args.size == "tiny")
            setups.append(setup)
            answers.workload = workload
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, times, results = run_pass(workload, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        pass_answers = answers.check(results)
        walls[traced].append(wall)
        if traced:
            layers.append(layer_metrics(workload, tracer, pass_answers))
        else:
            op_times.append(times)
        done = len(walls[False]) + len(walls[True])
        if done >= len(modes) and time.perf_counter() - start + setup + wall > args.seconds:
            break

    plain_wall = min(walls[False])
    ops = len(workload.ops)
    fastest: dict[str, float] = {}
    for (label, _call), *ts in zip(workload.ops, *op_times):
        fastest[label] = min(fastest.get(label, math.inf), *ts)
    best = sorted(fastest[label] for label, _call in workload.ops)
    print(f"# fanfree benchmark: workload {workload.name}, seed {args.seed}, "
          f"size {args.size}, trace {args.trace}")
    print(f"inputs sha256:{workload.input_digest}")
    print(f"answers sha256:{answers.digest()}")
    print(f"ops {answers.attempted} in {len(walls[False])} plain and {len(walls[True])} "
          f"traced passes of {ops}; failed {answers.failed}, "
          f"failed_ratio {answers.failed / answers.attempted}")
    for example in answers.examples:
        print(f"FAILED {example}")
    for label, t in fastest.items():
        step = workload.step_name(label)
        if step:
            print(f"step {step} {t} s")
    if workload.drawings_per_pass:
        print(f"step drawings_per_s {workload.drawings_per_pass / plain_wall} 1/s")

    if args.trace:
        metrics = {name: min(p[name] for p in layers) for name in PER_LAYER
                   if name != "trace.overhead_pct"}
        traced_wall = min(walls[True])
        metrics["trace.overhead_pct"] = (traced_wall - plain_wall) / plain_wall * 100
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans of the last traced pass: {spans.relative_to(HERE.parent)}")
    else:
        metrics = {
            "setup_s": min(setups),
            "pass_s": sum(best),
            "op_p50_s": statistics.median(best),
            "op_p99_s": percentile(best, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"setup_s is the fastest of {len(setups)} set-ups")
        print(f"op_p50_s and op_p99_s over {len(best)} ops, each at the best of its "
              f"label over {len(op_times)} passes; "
              f"{len(best) - math.ceil(0.99 * len(best))} ops are above op_p99_s")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(json.dumps({
        "correct": answers.failed == 0,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
