"""Repeat the benchmark over seeds and summarise the run-to-run spread.

Usage::

    python3 bench/collect.py --seeds 1-10 [--workloads fan-checks ...]
                             [--trace-runs 1] [--label seed] [--out FILE]

Each run is ``bench/run.py`` with ``run_seconds`` from ``BENCHMARK.json``.
For every end-to-end metric of every workload it prints the median over
runs, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread (q3 - q1) / median next to a third of the metric's bound.  With
``--out`` it also writes all runs and the environment as JSON.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()
    result = {
        "label": args.label,
        "commit": commit(),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        traced = [run_once(workload, s, spec["run_seconds"], 1)
                  for s in args.seeds[:args.trace_runs]]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[m["name"]] = {"median": statistics.median(values), "q1": q1,
                                  "q3": q3, "spread": spread, "unit": m["unit"]}
            ok = spread < m["bound"] / 3
            steady = steady and (ok or m["name"] == "setup_s")
            print(f"{workload:<14} {m['name']:<14} median {statistics.median(values):10.5g}"
                  f" {m['unit']:<4} spread {spread:6.3f}  bound/3 {m['bound'] / 3:.3f}"
                  f"  {'ok' if ok else 'WIDE'}")
        failed = sum(r["failed"] for r in runs + traced)
        print(f"{workload:<14} failed jobs {failed} of {sum(r['attempted'] for r in runs + traced)}")
        result["workloads"][workload] = {
            "seeds": args.seeds,
            "summary": summary,
            "runs": runs,
            "traced_runs": traced,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
