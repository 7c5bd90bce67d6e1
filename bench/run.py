"""loghilb benchmark: real CLI jobs, each in a fresh process, timed end to end.

Usage::

    python3 bench/run.py --workload fan-checks --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Jobs run one at a time (closed loop, one
client), each as ``python3 bench/job.py`` calling ``loghilb.cli.main`` with
the job's arguments and ``--format json``, so import cost and memory are
paid per job and no cache carries over between jobs.  A pass runs every
job of the workload once, in an order drawn from the seed.  Every job's
output is checked against ``bench/reference.json``.

With ``--trace 0`` passes repeat, skipping any job predicted to end after
``--seconds``, until none fits; a job's time is the median of its samples
and the end-to-end metrics of ``BENCHMARK.json`` combine those medians
(``wall_s`` sums them, ``slowest_job_s`` takes the largest).  With
``--trace 1`` one untraced pass is followed by whole traced passes while
they fit; the per-layer metrics come from the traced passes, and
``trace.overhead_s`` is traced minus untraced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
job's samples and each metric's spread and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import gate
from jobs import WORKLOADS, JobOrder, argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB_SCRIPT = BENCH / "job.py"

JOB_LIMIT_S = 60.0
# every job must end within this many seconds of the run's start
RUN_LIMIT_S = 150.0


@dataclass
class JobResult:
    job: str
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mib: float
    stdout: bytes
    layers: Optional[Dict[str, float]]
    failure: Optional[str]


def job_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_job(
    job: str,
    workdir: Path,
    job_id: int,
    trace: bool,
    limit_s: float,
    reference: Dict[str, dict],
) -> JobResult:
    """Run one job in a fresh process and check its output."""
    out_path = workdir / f"{job_id}.out"
    info_path = workdir / f"{job_id}.info"
    cmd = [sys.executable, str(JOB_SCRIPT), str(info_path), str(job_id),
           "1" if trace else "0", "--", *argv(job)]
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(workdir / f"{job_id}.err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=job_env(), cwd=ROOT)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    try:
        with open(info_path, encoding="utf-8") as fh:
            info = json.load(fh)
    except (OSError, ValueError):
        info = {}
    failure = gate.check(job, proc.returncode, timed_out.is_set(), stdout, reference)
    if failure is None and "imported" not in info:
        failure = "job process wrote no set-up time"
    if failure is None and trace and "layers" not in info:
        failure = "traced job wrote no spans"
    return JobResult(
        job=job,
        wall_s=ended - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        setup_s=info.get("imported", ended) - spawned,
        rss_mib=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        layers=info.get("layers"),
        failure=failure,
    )


class Runner:
    """Runs passes of one workload inside a scratch directory."""

    def __init__(self, workdir: Path, reference: Dict[str, dict], started: float):
        self.workdir = workdir
        self.reference = reference
        self.deadline = started + RUN_LIMIT_S
        self.jobs_run = 0
        self.failures: List[str] = []  # one entry per failed job
        self.problems: List[str] = []  # failed checks that are not one job's

    def run_one(self, job: str, trace: bool) -> JobResult:
        limit = max(0.1, min(JOB_LIMIT_S, self.deadline - time.monotonic()))
        result = run_job(job, self.workdir, self.jobs_run, trace, limit, self.reference)
        self.jobs_run += 1
        if result.failure is not None:
            self.failures.append(f"{job}: {result.failure}")
        return result

    def run_pass(self, order: List[str], trace: bool) -> List[JobResult]:
        return [self.run_one(job, trace) for job in order]


def sample_jobs(runner: Runner, order: JobOrder, seconds: float) -> Dict[str, List[JobResult]]:
    """Untraced samples of every job, taken pass by pass.

    After the first pass a job is skipped when its median time would take
    the run past ``seconds``; sampling stops when a pass runs nothing.  Using
    the whole budget gives the long jobs as many samples as fit.
    """
    started = time.monotonic()
    samples: Dict[str, List[JobResult]] = {}
    while True:
        ran = False
        for job in order.next_pass():
            done = samples.setdefault(job, [])
            left = seconds - (time.monotonic() - started)
            if done and statistics.median(r.wall_s for r in done) > left:
                continue
            done.append(runner.run_one(job, trace=False))
            ran = True
            if runner.failures:
                return samples
        if not ran:
            return samples


def job_metrics(samples: Dict[str, List[JobResult]]) -> Dict[str, float]:
    """End-to-end metrics from each job's median over its samples."""
    med = {
        field: [statistics.median(getattr(r, field) for r in runs) for runs in samples.values()]
        for field in ("wall_s", "cpu_s", "setup_s", "rss_mib")
    }
    return {
        "wall_s": sum(med["wall_s"]),
        "cpu_s": sum(med["cpu_s"]),
        "slowest_job_s": max(med["wall_s"]),
        "setup_s": sum(med["setup_s"]),
        "peak_rss_mib": max(med["rss_mib"]),
    }


def layer_metrics(results: List[JobResult]) -> Dict[str, float]:
    """Per-layer totals of one traced pass: maxima for max_* fields, else sums."""
    out: Dict[str, float] = {}
    for r in results:
        for key, value in (r.layers or {}).items():
            if ".max_" in key:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    out["cli.out_bytes"] = sum(len(r.stdout) for r in results)
    out["trace.wall_s"] = sum(r.wall_s for r in results)
    return out


def describe(name: str, values: List[float], unit: str) -> str:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = f"q1 {q1:.6g}  q3 {q3:.6g}"
    else:
        spread = "single sample"
    return f"{name:<32} median {med:.6g} {unit}  {spread}  n={len(values)}"


def measure(runner: Runner, order: JobOrder, seconds: float, trace: bool) -> List[List[JobResult]]:
    """Run passes until the next one would end after ``seconds``."""
    started = time.monotonic()
    passes = []
    while True:
        passes.append(runner.run_pass(order.next_pass(), trace))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(passes) > seconds or runner.failures:
            return passes


def untraced_run(runner, order, seconds, spec) -> Dict[str, dict]:
    samples = sample_jobs(runner, order, seconds)
    for job, runs in samples.items():
        print(describe(job, [r.wall_s for r in runs], "s"))
    values = job_metrics(samples)
    counts = sorted(len(runs) for runs in samples.values())
    metrics = {}
    for m in spec["end_to_end"]:
        value = values[m["name"]]
        print(f"{m['name']:<32} {value:.6g} {m['unit']}  from job medians over "
              f"{counts[0]}-{counts[-1]} samples each")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def traced_run(runner, order, seconds, spec) -> Dict[str, dict]:
    started = time.monotonic()
    plain = runner.run_pass(order.next_pass(), trace=False)
    untraced_wall = sum(r.wall_s for r in plain)
    stdout_of = {r.job: r.stdout for r in plain}
    left = seconds - (time.monotonic() - started)
    passes = measure(runner, order, left, trace=True)
    for result in (r for p in passes for r in p):
        if result.failure is None and result.stdout != stdout_of[result.job]:
            runner.failures.append(f"{result.job}: traced output differs from untraced")
    per_pass = [layer_metrics(p) for p in passes]
    for p in per_pass:
        p["trace.overhead_s"] = p["trace.wall_s"] - untraced_wall
    metrics = {}
    for m in spec["per_layer"]:
        values = [p.get(m["name"], 0) for p in per_pass]
        if m["unit"] != "s" and len(set(values)) > 1:
            runner.problems.append(f"{m['name']} differs between traced passes: {values}")
        print(describe(m["name"], values, m["unit"]))
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics


def prepare() -> Optional[str]:
    """Byte-compile the package and import it once; None when that worked."""
    if not (SRC / "loghilb" / "cli.py").is_file():
        return f"no loghilb package under {SRC}"
    steps = (
        [sys.executable, "-m", "compileall", "-q", str(SRC / "loghilb")],
        [sys.executable, "-c", "import loghilb.cli"],
    )
    for cmd in steps:
        done = subprocess.run(cmd, env=job_env(), cwd=ROOT, capture_output=True)
        if done.returncode != 0:
            return f"{' '.join(cmd[1:])} failed: {done.stderr.decode(errors='replace')}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    problem = prepare()
    if problem is not None:
        print(f"benchmark cannot run: {problem}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        runner = Runner(workdir, gate.load_reference(), started)
        order = JobOrder(args.workload, args.seed)
        print(f"workload {args.workload}  seed {args.seed}  "
              f"jobs {len(WORKLOADS[args.workload])}  trace {args.trace}")
        if args.trace:
            metrics = traced_run(runner, order, args.seconds, spec)
        else:
            metrics = untraced_run(runner, order, args.seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    for failure in runner.failures + runner.problems:
        print(f"FAILED {failure}")
    print(f"{'fail_frac':<32} {failed}/{runner.jobs_run} jobs")
    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": runner.jobs_run,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
