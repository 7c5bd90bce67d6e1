"""Tests of the benchmark itself: gate, span arithmetic, job order, tracing.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from jobs import WORKLOADS, JobOrder  # noqa: E402

REFERENCE = gate.load_reference()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP_JOB = "chow keel --n 4 --i 1 --groups"


def _run(job, tmp_path, trace=False, limit_s=60.0, reference=REFERENCE, job_id=0):
    return run.run_job(job, tmp_path, job_id, trace, limit_s, reference)


def _poly(coeffs, var="L"):
    """Term map of sum(coeffs[k] * var^k)."""
    return {(f"{var}^{k}" if k else "1"): c for k, c in enumerate(coeffs) if c}


# -- correctness gate -------------------------------------------------------


def test_every_job_has_a_reference():
    jobs = {job for w in WORKLOADS.values() for job in w}
    assert jobs == set(REFERENCE)


def test_gate_passes_the_seed_output_and_ignores_layout(tmp_path):
    result = _run(CHEAP_JOB, tmp_path)
    assert result.failure is None
    payload = json.loads(result.stdout)
    payload["checks"] = {"all": True, "moved": payload.pop("checks")}
    payload["schema_version"] = 2
    relaid = json.dumps(payload, indent=None).encode()
    assert gate.check(CHEAP_JOB, 0, False, relaid, REFERENCE) is None


def test_gate_rejects_a_tampered_reference_value(tmp_path):
    result = _run(CHEAP_JOB, tmp_path)
    tampered = json.loads(json.dumps(REFERENCE))
    tampered[CHEAP_JOB]["graded_groups"][3][1] += 1
    failure = gate.check(CHEAP_JOB, 0, False, result.stdout, tampered)
    assert failure is not None and "graded_groups" in failure


def test_gate_rejects_a_tampered_series_coefficient():
    job = "motive --ell 3 --N 10"
    row = REFERENCE[job]["rows"][4]
    payload = {"rows": [
        {"n": n, "coefficient": _to_string(terms), "verified": ok}
        for n, terms, ok in REFERENCE[job]["rows"]
    ]}
    assert gate.check(job, 0, False, json.dumps(payload).encode(), REFERENCE) is None
    payload["rows"][4]["coefficient"] = _to_string({**row[1], "L^1": row[1]["L^1"] + 1})
    assert "rows" in gate.check(job, 0, False, json.dumps(payload).encode(), REFERENCE)


def _to_string(terms):
    return " + ".join(f"{c}*{m}" for m, c in terms.items())


def test_gate_rejects_a_nonzero_exit(tmp_path):
    job = "chow sr --n 9 --i 1 --groups"  # over the size cap: exit 2
    result = _run(job, tmp_path, reference={job: {}})
    assert result.failure == "exit code 2"


def test_gate_rejects_a_job_over_the_time_limit(tmp_path):
    result = _run("fan --n 6 --i 1", tmp_path, limit_s=0.3)
    assert result.failure == "over the time limit"
    assert result.wall_s < 5


def test_poly_terms_ignore_term_order():
    assert gate.poly_terms("L^2 + 2*L + 1") == gate.poly_terms("1 + L*2 + L^2")
    assert gate.poly_terms("u*v^2 - u - 1") == {"u^1*v^2": 1, "u^1": -1, "1": -1}
    assert gate.poly_terms("0") == {}


# -- reference cross-checks against independent oracles ---------------------


def test_fan_reference_matches_closed_forms_for_i_1():
    ref = REFERENCE["fan --n 6 --i 1"]
    assert ref["census"] == [comb(6, k) * 2 ** k for k in range(7)]
    assert ref["motive"] == _poly([comb(6, k) for k in range(7)])


@pytest.mark.parametrize("job", [j for j in REFERENCE if j.startswith("fan ")])
def test_fan_references_satisfy_dehn_sommerville_and_euler(job):
    ref = REFERENCE[job]
    dim = len(ref["census"]) - 1
    coeffs = [ref["motive"].get(f"L^{k}" if k else "1", 0) for k in range(dim + 1)]
    assert coeffs == coeffs[::-1]
    assert sum((-1) ** k * c for k, c in enumerate(ref["census"])) == (-1) ** dim


def test_sr_ranks_match_fan_motive_coefficients():
    from loghilb.fan import fan_motive, hilb_fan

    for job, n, i in (("chow sr --n 5 --i 4 --groups --force", 5, 4),
                      ("chow sr --n 4 --i 1 --groups", 4, 1)):
        ranks = [rank for _, rank, _ in REFERENCE[job]["graded_groups"]]
        motive = gate.poly_terms(fan_motive(hilb_fan(n, i)).to_string())
        assert ranks == [motive.get(f"L^{k}" if k else "1", 0) for k in range(n + 1)]
    assert [r for _, r, _ in REFERENCE["chow sr --n 5 --i 4 --groups --force"]
            ["graded_groups"]] == [1, 2, 2, 2, 2, 1]
    assert [r for _, r, _ in REFERENCE["chow sr --n 4 --i 1 --groups"]
            ["graded_groups"]] == [comb(4, k) for k in range(5)]


def test_three_chow_routes_agree_at_n_4():
    sr = REFERENCE["chow sr --n 4 --i 1 --groups"]["graded_groups"]
    assert REFERENCE["chow keel --n 4 --i 1 --groups"]["graded_groups"] == sr
    thmd = REFERENCE["chow thmD --n 4 --i 1 --compare-sr"]
    assert thmd["graded_groups"] == sr
    for key, entry in (("sr_comparison", thmd),
                       ("report", REFERENCE["chow compare --n 4 --i 1"])):
        assert entry[key]["source"] == sr and entry[key]["target"] == sr


def test_strata_total_matches_the_series_and_rows_are_verified():
    rows = REFERENCE["motive --ell 3 --N 10"]["rows"]
    assert REFERENCE["strata --n 8 --ell 3"]["total"] == rows[8][1]
    for job in ("motive --ell 3 --N 10", "motive --mode hodge --g 1 --ell 2 --N 10"):
        assert all(ok for _, _, ok in REFERENCE[job]["rows"])


# -- spans ------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ("cli.cmd", 0.0, 10.0, -1, 7),
        ("fan.build", 1.0, 4.0, 0, 7),
        ("linalg.det", 1.5, 2.0, 1, 7),
        ("fan.build", 5.0, 9.0, 0, 7),
        ("fan.build", 6.0, 8.0, 3, 7),  # recursion: not counted twice in .s
        ("linalg.det", 6.5, 7.0, 4, 7),
    ]
    out = spans.aggregate(tree)
    assert out["cli.cmd.s"] == 10.0 and out["cli.cmd.self_s"] == 3.0
    assert out["fan.build.calls"] == 3
    assert out["fan.build.s"] == 7.0
    assert out["fan.build.self_s"] == 2.5 + 2.0 + 1.5
    assert out["linalg.det.calls"] == 2 and out["linalg.det.s"] == 1.0
    total_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert total_self == 10.0


TRACE_JOBS = (
    "fan --n 4 --i 1",
    "fan --n 4 --i 1 --markings 0+inf",
    "chow compare --n 3 --i 1",
    "chow keel --n 3 --i 1 --groups",
    "motive --ell 2 --N 4",
    "strata --n 4 --ell 2",
)


def test_traced_jobs_match_untraced_and_repeat_their_counts(tmp_path):
    produced = {"cli.out_bytes", "trace.wall_s", "trace.overhead_s"}
    for k, job in enumerate(TRACE_JOBS):
        plain = _run(job, tmp_path, reference={}, job_id=3 * k)
        first = _run(job, tmp_path, trace=True, reference={}, job_id=3 * k + 1)
        second = _run(job, tmp_path, trace=True, reference={}, job_id=3 * k + 2)
        assert first.stdout == plain.stdout == second.stdout
        counts = [{key: v for key, v in r.layers.items() if not key.endswith(("_s", ".s"))}
                  for r in (first, second)]
        assert counts[0] == counts[1]
        assert counts[0][f"cli.cmd_{job.split()[0]}.calls"] == 1
        produced |= set(first.layers)
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing


# -- job order ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_any_seed_gives_the_same_jobs_in_another_order(workload):
    orders = set()
    for seed in range(20):
        order = JobOrder(workload, seed)
        again = JobOrder(workload, seed)
        for _ in range(3):
            jobs = order.next_pass()
            assert jobs == again.next_pass()
            assert sorted(jobs) == sorted(WORKLOADS[workload])
            orders.add(tuple(jobs))
    assert len(orders) > 1


# -- benchmark contract -------------------------------------------------------


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fan-checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == b""
