"""Tests for the command-line interface: formats, determinism, exit codes."""

import json

import pytest

from loghilb import cli
from loghilb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    main,
)
from loghilb.fan import StackyFan, hilb_fan
from loghilb.poly import ZERO, TruncSeries
from test_fan import pentagram_fan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_basic(capsys):
    code, out, _ = run(capsys, "fan", "--n", "2", "--i", "1", "--census")
    assert code == EXIT_OK
    assert "census: [1, 4, 4]" in out


def test_fan_json_schema_version(capsys):
    code, out, _ = run(capsys, "fan", "--n", "2", "--i", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert {r["label"] for r in doc["fan"]["rays"]} == {
        "sigma_1",
        "sigma_2",
        "tau",
        "rho_2",
    }


def test_fan_projective_space(capsys):
    code, out, _ = run(capsys, "fan", "--n", "3", "--i", "3", "--census")
    assert code == EXIT_OK
    assert "census: [1, 4, 6, 4]" in out


def test_fan_two_sided_cross_check(capsys):
    code, out, _ = run(capsys, "fan", "--n", "2", "--i", "1", "--markings", "0+inf")
    assert code == EXIT_OK
    assert "'motive_matches_two_marking_series': True" in out
    assert "'euler_characteristic': True" in out


def test_fan_deterministic_output(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(
            ["fan", "--n", "3", "--i", "1", "--format", "json", "--output", str(p)]
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fan_cli_uses_the_local_check(capsys, monkeypatch):
    def oracle(self):
        raise AssertionError("pairwise check called")

    monkeypatch.setattr(StackyFan, "check_intersections_are_faces", oracle)
    code, out, _ = run(capsys, "fan", "--n", "3", "--i", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["intersections_are_faces"] is True


def test_fan_failed_check_names_the_cone(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hilb_fan", lambda n, i: pentagram_fan())
    argv = ("fan", "--n", "2", "--i", "1", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CHECK_FAILED
    checks = json.loads(out)["checks"]
    assert checks["intersections_are_faces"] is False
    assert checks["complete"] is True
    assert "cone {p0, p2}" in err
    assert run(capsys, *argv) == (code, out, err)


def test_incomplete_fan_reports_its_checks(capsys, monkeypatch):
    base = hilb_fan(2, 1)
    fan = StackyFan(2, base.rays, base.max_cones[1:])
    monkeypatch.setattr(cli, "hilb_fan", lambda n, i: fan)
    code, out, err = run(capsys, "fan", "--n", "2", "--i", "1", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["checks"] == {
        "complete": False,
        "intersections_are_faces": False,
        "motive_palindromic": False,
    }
    assert "facet {sigma_1} bounds 1 of the maximal cones, not 2" in err


def test_fan_motive_palindromic_check(capsys):
    for markings in (("0",), ("0+inf", "--i-inf", "2")):
        argv = ("fan", "--n", "3", "--i", "1", "--format", "json", "--markings")
        code, out, _ = run(capsys, *argv, *markings)
        assert code == EXIT_OK
        assert json.loads(out)["checks"]["motive_palindromic"] is True


def test_fan_cap_and_force(capsys, monkeypatch):
    code, _, err = run(capsys, "fan", "--n", "7", "--i", "1")
    assert code == EXIT_USAGE
    assert "safety cap" in err
    monkeypatch.setenv("LOGHILB_MAX_N", "7")
    code, _, _ = run(capsys, "fan", "--n", "7", "--i", "7")
    assert code == EXIT_OK


def test_fan_invalid_params(capsys):
    code, _, err = run(capsys, "fan", "--n", "2", "--i", "5")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_chow_sr_groups(capsys):
    code, out, _ = run(capsys, "chow", "sr", "--n", "2", "--i", "1", "--groups")
    assert code == EXIT_OK
    lines = [l.split() for l in out.splitlines() if l and l[0].isdigit()]
    assert [l[1] for l in lines] == ["1", "2", "1"]


def test_chow_thmD_compare_sr(capsys):
    code, out, _ = run(
        capsys, "chow", "thmD", "--n", "3", "--i", "1", "--compare-sr", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["sr_comparison"]["pass"] is True


def test_chow_compare_subcommand(capsys):
    code, out, _ = run(capsys, "chow", "compare", "--n", "3", "--i", "2")
    assert code == EXIT_OK
    assert "pass" not in out or "False" not in out


def test_chow_keel_cross_check(capsys):
    code, out, _ = run(capsys, "chow", "keel", "--n", "3", "--i", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["checks"]["matches_direct_presentation"] is True


def test_chow_symbolic_two_markings(capsys):
    code, out, _ = run(
        capsys,
        "chow", "thmD", "--n", "3", "--i", "0",
        "--curve", "symbolic", "--ell", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    gens = [g["name"] for g in doc["presentation"]["generators"]]
    assert any(g.endswith("_2") for g in gens)


def test_chow_rejects_compare_sr_on_sr(capsys):
    code, _, err = run(capsys, "chow", "sr", "--n", "2", "--i", "1", "--compare-sr")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "extra",
    [
        ("thmD", "--curve", "symbolic", "--groups"),
        ("thmD", "--curve", "symbolic", "--compare-sr"),
        ("thmD", "--curve", "symbolic", "--ell", "0"),
        ("keel", "--curve", "symbolic"),
        ("keel", "--ell", "2"),
    ],
)
def test_chow_parameter_errors(capsys, extra):
    code, _, err = run(capsys, "chow", extra[0], "--n", "2", "--i", "1", *extra[1:])
    assert code == EXIT_USAGE
    assert "error:" in err


def test_chow_sr_ignores_curve(capsys):
    code, out, _ = run(
        capsys, "chow", "sr", "--n", "2", "--i", "1", "--curve", "symbolic", "--groups"
    )
    assert code == EXIT_OK
    assert "degree" in out


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(pres):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "graded_groups", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["chow", "sr", "--n", "2", "--i", "1", "--groups"])


def test_motive_single_marking(capsys):
    code, out, _ = run(capsys, "motive", "--mode", "motivic-p1", "--ell", "1", "--N", "6")
    assert code == EXIT_OK
    assert "'strata_sum_matches_series': True" in out
    assert "L^2 + 2*L + 1" in out


def test_motive_euler_genus_one(capsys):
    code, out, _ = run(capsys, "motive", "--mode", "euler", "--g", "1", "--ell", "1", "--N", "4")
    assert code == EXIT_OK
    rows = [l.split() for l in out.splitlines() if l and l[0].isdigit()]
    assert [r[1] for r in rows] == ["1", "0", "1", "2", "4"]


def test_motive_euler_two_markings(capsys):
    code, out, _ = run(capsys, "motive", "--mode", "euler", "--g", "0", "--ell", "2", "--N", "3")
    assert code == EXIT_OK
    rows = [l.split() for l in out.splitlines() if l and l[0].isdigit()]
    assert [r[1] for r in rows] == ["1", "2", "5", "12"]


def test_motive_mode_validation(capsys):
    code, _, err = run(capsys, "motive", "--mode", "motivic-p1", "--g", "1", "--ell", "1", "--N", "2")
    assert code == EXIT_USAGE


def test_strata_listing(capsys):
    code, out, _ = run(capsys, "strata", "--n", "2", "--ell", "1")
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if l.startswith(("0;", "1;", "2;"))]
    assert len(rows) == 4
    assert "total: L^2 + 2*L + 1" in out
    assert "checks: {'total_matches_series': True}" in out


def test_strata_trivial_case(capsys):
    code, out, _ = run(capsys, "strata", "--n", "0", "--ell", "3")
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if l.startswith("0;")]
    assert len(rows) == 1


def test_strata_single_profile(capsys):
    code, out, _ = run(
        capsys, "strata", "--n", "5", "--ell", "3", "--profile", "1;(1,2);();(1)"
    )
    assert code == EXIT_OK
    assert "eps1_3*eps2_1*eps3_1" in out


def test_strata_profile_mismatch(capsys):
    code, _, err = run(
        capsys, "strata", "--n", "4", "--ell", "3", "--profile", "1;(1,2);();(1)"
    )
    assert code == EXIT_USAGE


def test_csv_output(capsys):
    code, out, _ = run(capsys, "motive", "--ell", "1", "--N", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["n", "coefficient", "verified"]
    assert len(lines) == 4


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED) == (0, 2, 3)


# every command reports its verdicts in one ``checks`` map, and the exit
# code is 3 exactly when one of them is false

SMALL_RUNS = {
    ("fan", "--n", "3", "--i", "1"): {
        "complete", "intersections_are_faces", "motive_palindromic"
    },
    ("chow", "sr", "--n", "2", "--i", "1", "--groups"): set(),
    ("chow", "thmD", "--n", "3", "--i", "1", "--compare-sr"): {"sr_comparison"},
    ("chow", "keel", "--n", "3", "--i", "1"): {"matches_direct_presentation"},
    ("chow", "compare", "--n", "3", "--i", "1"): {"sr_comparison"},
    ("motive", "--ell", "1", "--N", "4"): {"strata_sum_matches_series"},
    ("strata", "--n", "3", "--ell", "2"): {"total_matches_series"},
    ("strata", "--n", "5", "--ell", "3", "--profile", "1;(1,2);();(1)"): set(),
}


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    checks = doc["checks"]
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    assert isinstance(checks, dict)
    assert all(type(v) is bool for v in checks.values())
    assert code == (EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED)
    return code, doc


@pytest.mark.parametrize("argv", list(SMALL_RUNS), ids=" ".join)
def test_every_command_reports_checks(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert set(doc["checks"]) == SMALL_RUNS[argv]
    assert not {"all_verified", "total_matches_series"} & set(doc)


def test_failed_strata_sum_exits_with_check_failed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "strata_sum", lambda n, ell, mode: ZERO)
    code, doc = run_json(capsys, "motive", "--ell", "1", "--N", "3")
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == {"strata_sum_matches_series": False}
    assert [row["verified"] for row in doc["rows"]] == [False] * 4


def test_failed_strata_total_exits_with_check_failed(capsys, monkeypatch):
    closed_form = cli.closed_form

    def off_by_one(mode, ell, order):
        series = closed_form(mode, ell, order)
        return TruncSeries(series.order, [c + 1 for c in series.coeffs])

    monkeypatch.setattr(cli, "closed_form", off_by_one)
    code, doc = run_json(capsys, "strata", "--n", "3", "--ell", "2")
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == {"total_matches_series": False}
    assert doc["total"] == "L^3 + 5*L^2 + 5*L + 1"


@pytest.mark.parametrize("subcommand", [("compare",), ("thmD", "--compare-sr")])
def test_failed_sr_comparison_exits_with_check_failed(capsys, monkeypatch, subcommand):
    compare = cli.compare_presentations
    monkeypatch.setattr(
        cli, "compare_presentations", lambda *a: {**compare(*a), "pass": False}
    )
    argv = ("chow", subcommand[0], "--n", "2", "--i", "1", *subcommand[1:])
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == {"sr_comparison": False}
