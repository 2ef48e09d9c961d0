"""Run the benchmark over seeds 1-10 and summarize its run-to-run spread.

    python3 perfbench/collect.py [--out perfbench/baseline.json]

Every workload of ``BENCHMARK.json`` is run once per seed untraced and once
traced, one run after another, with its ``command`` and ``run_seconds``.
For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
marked ``!`` when the spread reaches a third of the metric's bound; for
each per-layer metric, the median over the traced runs.  ``--out`` writes
all of it, with the machine it ran on, as the baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    steps = {}
    digests = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "step":
            steps[parts[1]] = float(parts[2])
        elif parts[0] in ("inputs", "answers"):
            digests[parts[0]] = parts[1]
    return result, steps, digests


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": SEEDS,
               "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        steps: dict[str, list[float]] = {}
        digests: dict[str, set] = {"inputs": set(), "answers": set()}
        failed = attempted = 0
        for seed in SEEDS:
            result, run_steps, run_digests = run_once(spec, name, seed, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for step, v in run_steps.items():
                steps.setdefault(step, []).append(v)
            for kind, digest in run_digests.items():
                digests[kind].add(digest)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {},
                 "steps_median": {s: statistics.median(v) for s, v in steps.items()},
                 "inputs_sha256": sorted(digests["inputs"]),
                 "answers_sha256": sorted(digests["answers"])}
        print(f"{name}: attempted {attempted}, failed {failed}; "
              f"{len(digests['inputs'])} input and {len(digests['answers'])} answer digests")
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "!" if spread >= bounds[metric] / 3 else " "
            print(f"  {flag} {metric:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[metric]}")
            entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        layers: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, _steps, _digests = run_once(spec, name, seed, 1)
            for metric, v in result["metrics"].items():
                layers.setdefault(metric, []).append(v["value"])
        entry["per_layer_median"] = {m: statistics.median(v) for m, v in layers.items()}
        for metric, v in entry["per_layer_median"].items():
            print(f"    {metric:40s} {v:.6g}")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
