"""The benchmark's correctness gate, run in the test suite.

``bench/run.py`` checks the JSON output of every job against
``bench/reference.json`` with ``bench/gate.check``, and a run with a wrong
output is not correct.  Here each job of ``bench/jobs.py`` ``WORKLOADS`` runs
in process through ``cli.main`` with the same arguments, so a change that
moves a benchmark answer fails here first.  Nothing under ``bench/`` is
written.
"""

import importlib.util
from pathlib import Path

import pytest

from loghilb.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """A module of ``bench/``, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobs = load_bench_module("jobs")
gate = load_bench_module("gate")
JOBS = [job for workload in jobs.WORKLOADS.values() for job in workload]


def test_every_job_has_a_reference():
    assert sorted(gate.load_reference()) == sorted(JOBS)


@pytest.mark.parametrize("job", JOBS)
def test_bench_job_passes_the_gate(capsys, job):
    code = main(jobs.argv(job))
    out = capsys.readouterr().out
    assert gate.check(job, code, False, out.encode(), gate.load_reference()) is None
