"""Tests for the command-line interface: formats, determinism, exit codes."""

import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from loghilb import chow, cli, strata
from loghilb.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    main,
)
from loghilb.fan import StackyFan, hilb_fan
from loghilb.poly import MultiPoly, ZERO, TruncSeries
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


@pytest.mark.parametrize("levels", [(0, 0), (0, 1), (1, 0), (2, 1), (1, 2)])
def test_fan_series_checks_wherever_both_levels_are_at_most_one(capsys, levels):
    # level 0 is level 1, so (0, 0) and (0, 1) build the fully subdivided fan
    i, i_inf = map(str, levels)
    argv = ["fan", "--n", "3", "--i", i, "--markings", "0+inf", "--i-inf", i_inf]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    series = {"motive_matches_two_marking_series", "euler_characteristic"}
    if max(levels) <= 1:
        assert all(checks[key] for key in series)
    else:
        assert not series & checks.keys()


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
    fan = StackyFan(base.rays, base.max_cones[1:])
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


def test_fan_cap_and_force(capsys):
    code, _, err = run(capsys, "fan", "--n", "10", "--i", "1")
    assert code == EXIT_USAGE
    assert err == (
        "error: fan: n = 10 exceeds the safety cap 9 (pass --force to override)\n"
    )
    code, _, _ = run(capsys, "fan", "--n", "10", "--i", "10", "--force")
    assert code == EXIT_OK


def test_motive_errors_name_the_N_flag(capsys):
    # motive takes its size as --N, so its errors say N, not n
    over = cli.MAX_N_MOTIVE + 1
    code, out, err = run(capsys, "motive", "--N", str(over))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: motive: N = {over} exceeds the safety cap {cli.MAX_N_MOTIVE}"
        " (pass --force to override)\n"
    )
    code, out, err = run(capsys, "motive", "--N", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: motive: N must be non-negative\n"


def test_caps_ignore_the_environment(capsys, monkeypatch):
    # no environment variable moves a cap, up or down
    monkeypatch.setenv("LOGHILB_MAX_N", "1")
    code, _, err = run(capsys, "motive", "--N", "3")
    assert code == EXIT_OK
    assert err == ""


def test_chow_groups_cap(capsys):
    code, _, _ = run(capsys, "chow", "sr", "--n", "7", "--i", "7", "--groups")
    assert code == EXIT_OK
    code, _, err = run(capsys, "chow", "sr", "--n", "8", "--i", "8", "--groups")
    assert code == EXIT_USAGE
    assert "safety cap" in err


P1_ONE_MARKING = "error: chow: the p1 base supports a single marking"
SYMBOLIC_UNGRADED = "error: chow thmD: --groups and --compare-sr need --curve p1"


def unrecognized(command, *flags):
    """The last line of argparse's refusal of flags a command does not declare:
    the command's own parser refuses them, and names the command."""
    return f"loghilb {command}: error: unrecognized arguments: {' '.join(flags)}"


@pytest.mark.parametrize(
    "extra",
    [
        (("thmD", "--ell", "2", "--groups"), P1_ONE_MARKING),
        (("thmD", "--ell", "2", "--compare-sr"), P1_ONE_MARKING),
        (("thmD", "--curve", "symbolic", "--ell", "2", "--groups"), SYMBOLIC_UNGRADED),
        (("keel", "--ell", "2", "--groups"), unrecognized("chow keel", "--ell", "2")),
    ],
)
def test_chow_graded_jobs_take_one_marking(capsys, extra):
    # the chow cap on n was measured with one marking; a multi-marking graded
    # job at the cap would have far wider relation matrices
    (command, *flags), message = extra
    n = str(cli.MAX_N_GROUPS)
    code, out, err = run(capsys, "chow", command, "--n", n, "--i", "0", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == message
    assert "safety cap" not in err


def test_fan_invalid_params(capsys):
    code, _, err = run(capsys, "fan", "--n", "2", "--i", "5")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_fan_i_inf_needs_two_markings(capsys):
    code, out, err = run(capsys, "fan", "--n", "3", "--i", "1", "--i-inf", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: fan: --i-inf needs --markings 0+inf\n"


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "motive", "--N", "3", "--output", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert not path.exists()


def test_unwritable_output_fails_before_computing(capsys, monkeypatch, tmp_path):
    def closed_form(*args):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr(cli, "closed_form", closed_form)
    (tmp_path / "plain").write_text("")
    (tmp_path / "folder").mkdir()
    missing, plain = tmp_path / "missing" / "x.json", tmp_path / "plain" / "x.json"
    for path in (missing, plain, tmp_path / "folder"):
        with pytest.raises(OSError) as caught:
            open(path, "w").close()
        argv = ("motive", "--ell", "3", "--N", "9", "--output", str(path))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        # the reason open() gives at write time
        assert err == f"error: cannot write {path}: {caught.value.strerror}\n"


def test_empty_output_path_is_refused_before_computing(capsys, monkeypatch):
    # an unset shell variable gives --output '': refused, not written to stdout
    def keel(*args):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr(cli, "iterated_keel", keel)
    argv = ("chow", "keel", "--n", "6", "--i", "1", "--groups", "--output", "")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: cannot write : No such file or directory\n"


def deny_write(monkeypatch, denied):
    """Make ``os.access`` refuse write access to ``denied`` only, as it would
    for a user other than root."""
    access = cli.os.access

    def fake(path, mode, **kwargs):
        if str(path) == str(denied) and mode & cli.os.W_OK:
            return False
        return access(path, mode, **kwargs)

    monkeypatch.setattr(cli.os, "access", fake)


def test_writable_output_file_in_read_only_folder(capsys, monkeypatch, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    deny_write(monkeypatch, tmp_path)
    code, out, err = run(capsys, "motive", "--N", "3", "--output", str(path))
    assert (code, out, err) == (EXIT_OK, "", "")
    assert path.read_text().startswith("n  ")


def test_read_only_output_file_is_refused(capsys, monkeypatch, tmp_path):
    def closed_form(*args):
        raise AssertionError("computed before checking --output")

    monkeypatch.setattr(cli, "closed_form", closed_form)
    path = tmp_path / "out.txt"
    path.write_text("old")
    deny_write(monkeypatch, path)
    code, out, err = run(capsys, "motive", "--N", "3", "--output", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: cannot write {path}: Permission denied\n"
    assert path.read_text() == "old"


def test_cli_import_leaves_optional_modules_unloaded():
    # -S: the interpreter's site hooks may import anything; they are not ours
    src = Path(__file__).resolve().parents[1] / "src"
    lazy = ["dataclasses", "inspect", "fractions", "decimal", "csv"]
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import loghilb.cli; "
        "print(*[m for m in sys.argv[2:] if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(src), *lazy],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


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
    code, out, err = run(capsys, "chow", "sr", "--n", "2", "--i", "1", "--compare-sr")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == unrecognized("chow sr", "--compare-sr")


@pytest.mark.parametrize(
    "extra",
    [
        (("thmD", "--curve", "symbolic", "--groups"), SYMBOLIC_UNGRADED),
        (("thmD", "--curve", "symbolic", "--compare-sr"), SYMBOLIC_UNGRADED),
        (
            ("thmD", "--curve", "symbolic", "--ell", "0"),
            "error: chow thmD: need at least one marking",
        ),
        (("keel", "--curve", "symbolic"), unrecognized("chow keel", "--curve", "symbolic")),
        (("keel", "--ell", "2"), unrecognized("chow keel", "--ell", "2")),
        (
            ("compare", "--curve", "symbolic", "--ell", "3"),
            unrecognized("chow compare", "--curve", "symbolic", "--ell", "3"),
        ),
        (("compare", "--ell", "3"), unrecognized("chow compare", "--ell", "3")),
    ],
)
def test_chow_parameter_errors(capsys, extra):
    (command, *flags), message = extra
    code, out, err = run(capsys, "chow", command, "--n", "2", "--i", "1", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == message


def test_chow_compare_needs_the_p1_base(capsys):
    # compare reads no base: it always works over p1 with one marking
    code, out, err = run(
        capsys, "chow", "compare", "--n", "2", "--i", "1",
        "--curve", "symbolic", "--ell", "3",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == unrecognized(
        "chow compare", "--curve", "symbolic", "--ell", "3"
    )
    # the report already holds the graded groups and the SR comparison, so
    # compare takes neither flag
    code, out, err = run(
        capsys, "chow", "compare", "--n", "2", "--i", "1", "--groups", "--compare-sr"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == unrecognized("chow compare", "--groups", "--compare-sr")


def test_chow_sr_refuses_curve(capsys):
    # sr reads the ring off the fan, which has no curve and one marking
    code, out, err = run(
        capsys, "chow", "sr", "--n", "2", "--i", "1", "--curve", "symbolic", "--groups"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1] == unrecognized("chow sr", "--curve", "symbolic")


# the flags each chow subcommand reads, besides --n, --i and the common ones
CHOW_FLAGS = {
    "sr": {"--groups"},
    "thmD": {"--curve", "--ell", "--groups", "--compare-sr"},
    "keel": {"--groups", "--compare-sr"},
    "compare": set(),
}
# each flag the four once shared, with a value every subcommand reading it takes
SHARED_FLAGS = {
    "--curve": ("--curve", "p1"),
    "--ell": ("--ell", "1"),
    "--groups": ("--groups",),
    "--compare-sr": ("--compare-sr",),
}


@pytest.mark.parametrize("command", CHOW_FLAGS)
def test_chow_subcommands_refuse_flags_they_do_not_read(capsys, command):
    for flag, tokens in SHARED_FLAGS.items():
        argv = ("chow", command, "--n", "2", "--i", "1", *tokens)
        code, out, err = run(capsys, *argv)
        if flag in CHOW_FLAGS[command]:
            assert code == EXIT_OK, argv
        else:
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert err.splitlines()[-1] == unrecognized(f"chow {command}", *tokens), argv


@pytest.mark.parametrize("command", CHOW_FLAGS)
def test_chow_subcommand_help_lists_only_its_flags(capsys, command):
    code, out, _ = run(capsys, "chow", command, "--help")
    assert code == EXIT_OK
    common = {"--help", "--n", "--i", "--format", "--output", "--force"}
    assert set(re.findall(r"--[a-z-]+", out)) == CHOW_FLAGS[command] | common


def test_chow_options_follow_the_subcommand(capsys):
    code, out, err = run(capsys, "chow", "--n", "2", "--i", "1", "sr")
    assert (code, out) == (EXIT_USAGE, "")
    assert "invalid choice" in err


# a valid command line of each leaf command, which an unknown flag then spoils
LEAF_COMMANDS = {
    "fan": ("--n", "2", "--i", "1"),
    "chow sr": ("--n", "2", "--i", "1"),
    "chow thmD": ("--n", "2", "--i", "1"),
    "chow keel": ("--n", "2", "--i", "1"),
    "chow compare": ("--n", "2", "--i", "1"),
    "motive": ("--N", "2"),
    "strata": ("--n", "2", "--ell", "1"),
}


@pytest.mark.parametrize("command", LEAF_COMMANDS)
def test_unknown_flag_is_refused_by_its_command(capsys, command):
    for spoiler in (("--bogus",), ("--bogus", "3"), ("stray",)):
        argv = (*command.split(), *LEAF_COMMANDS[command], *spoiler)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith(f"usage: loghilb {command} [-h]"), argv
        assert err.splitlines()[-1] == unrecognized(command, *spoiler), argv


@pytest.mark.parametrize(
    "argv, refused_by, spoilers",
    [
        # a flag before the command name is met by the top-level parser
        (("--bogus", "fan", "--n", "2", "--i", "1"), "", ("--bogus",)),
        (("chow", "--bogus", "sr", "--n", "3", "--i", "1"), " chow", ("--bogus",)),
        # the leaf parses first, so it refuses its own before the top level
        (("--bogus", "fan", "--n", "2", "--i", "1", "--also"), " fan", ("--also",)),
    ],
    ids=["top-level", "chow", "leaf-first"],
)
def test_unknown_flag_is_refused_by_the_parser_that_meets_it(
    capsys, argv, refused_by, spoilers
):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"usage: loghilb{refused_by} [-h]")
    last = f"loghilb{refused_by}: error: unrecognized arguments: {' '.join(spoilers)}"
    assert err.splitlines()[-1] == last


def readme_command_lines():
    """The lines of the shell block under "Command line", split as sh would."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line]


def test_readme_has_command_lines():
    assert len(readme_command_lines()) >= 10


@pytest.mark.parametrize("line", readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(capsys, line):
    program, *argv = line
    assert program == "loghilb"
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK, err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(pres):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "graded_groups", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["chow", "sr", "--n", "2", "--i", "1", "--groups"])


def test_profile_error_past_the_refusals_is_internal(monkeypatch):
    # cmd_strata turns every ProfileError of its input into a usage error, so
    # one that reaches main is a fault: it propagates (exit 1, a traceback)
    def broken(*args):
        raise strata.ProfileError("internal fault")

    monkeypatch.setattr(cli, "strata_classes", broken)
    with pytest.raises(strata.ProfileError, match="internal fault"):
        main(["strata", "--n", "3", "--ell", "2"])


def test_fan_error_is_an_internal_error():
    # parameters are validated before a fan is built, so a FanError is a bug:
    # exit 1 with a traceback, not the failed-check code 3
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from loghilb import cli, fan\n"
        "def broken(n, i): raise fan.FanError('internal fault')\n"
        "cli.hilb_fan = broken\n"
        "sys.exit(cli.main(['fan', '--n', '2', '--i', '1']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(src)], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert "Traceback" in done.stderr
    assert done.stderr.endswith("loghilb.fan.FanError: internal fault\n")


@pytest.mark.parametrize(
    "mode, g", [("euler", 300), ("poincare", 150), ("hodge", 80)], ids=str
)
def test_motive_series_cost_does_not_grow_with_genus(mode, g):
    # each power of a factor is expanded only to the order read, so a large
    # genus at N = 4 takes well under a second
    src = Path(__file__).resolve().parents[1] / "src"
    script = "import sys; sys.path.insert(0, sys.argv[1]); from loghilb import cli\n"
    script += "sys.exit(cli.main(sys.argv[2:]))"
    argv = ["motive", "--mode", mode, "--g", str(g), "--N", "4", "--format", "json"]
    done = subprocess.run(
        [sys.executable, "-c", script, str(src), *argv],
        capture_output=True,
        text=True,
        timeout=15,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["checks"]["strata_sum_matches_series"]


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


def test_strata_with_many_markings_exits_cleanly(capsys):
    # the profile enumeration once recursed once per marking: ell = 600 ran
    # past the interpreter's recursion limit and exited 1
    code, doc = run_json(capsys, "strata", "--n", "1", "--ell", "600")
    assert code == EXIT_OK
    assert doc["checks"] == {"total_matches_series": True}


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


@pytest.mark.parametrize(
    "profile, reason",
    [
        ("3;(0)", "every bubble must support positive length"),
        ("-1;(1)", "interior length must be non-negative"),
        ("x;(1)", "bad interior length 'x'"),
        ("1;[1]", "bad composition '[1]'"),
    ],
)
def test_strata_bad_profile_names_command_and_profile(capsys, profile, reason):
    code, out, err = run(
        capsys, "strata", "--n", "3", "--ell", "1", f"--profile={profile}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: strata: profile {profile!r}: {reason}\n"


def test_strata_listing_expands_the_interior_series_once(capsys, monkeypatch):
    calls = []
    expand = strata.interior_sym_coefficients

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(strata, "interior_sym_coefficients", counted)
    code, doc = run_json(capsys, "strata", "--n", "4", "--ell", "2")
    assert code == EXIT_OK
    assert len(doc["rows"]) == 48
    assert len(calls) == 1


def test_csv_output(capsys):
    code, out, _ = run(capsys, "motive", "--ell", "1", "--N", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["n", "coefficient", "verified"]
    assert len(lines) == 4


def test_motive_and_strata_cap_the_profiles_by_markings(capsys, monkeypatch):
    def computed(*args):
        raise AssertionError("computed past the profile cap")

    monkeypatch.setattr(cli, "closed_form", computed)
    monkeypatch.setattr(cli, "enumerate_profiles", computed)
    code, out, err = run(capsys, "motive", "--ell", "6", "--N", "12")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: motive: N = 12 with ell = 6 fills 25459200 composition slots, above"
        " the safety cap 638976 of N = 12 with ell = 3 (pass --force to override)\n"
    )
    code, out, err = run(capsys, "strata", "--n", "9", "--ell", "6")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: strata: n = 9 with ell = 6 fills 804288 composition slots, above"
        " the safety cap 362496 of n = 12 with ell = 3 (pass --force to override)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("strata", "--n", "2", "--ell", "400"),
        ("strata", "--n", "2", "--ell", "89"),
        ("motive", "--N", "2", "--ell", "400"),
        ("motive", "--ell", "6", "--N", "9"),
    ],
    ids=" ".join,
)
def test_many_markings_are_refused_before_computing(capsys, monkeypatch, argv):
    # few profiles, but each walks ell compositions: the cap counts the slots
    def computed(*args):
        raise AssertionError("computed past the composition-slot cap")

    monkeypatch.setattr(cli, "closed_form", computed)
    monkeypatch.setattr(cli, "enumerate_profiles", computed)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "composition slots, above the safety cap" in err


class Computed(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ("motive", "--ell", "3", "--N", "12"),
        ("motive", "--ell", "6", "--N", "8"),
        ("strata", "--n", "2", "--ell", "88"),
        ("motive", "--mode", "hodge", "--g", "1", "--ell", "2", "--N", "10"),
        ("strata", "--n", "12", "--ell", "3"),
        ("strata", "--n", "8", "--ell", "5"),
        ("motive", "--ell", "6", "--N", "12", "--force"),
    ],
    ids=" ".join,
)
def test_profile_cap_lets_through(monkeypatch, argv):
    # runs at or inside the cap, or forced, pass every refusal and compute
    def computed(*args):
        raise Computed

    monkeypatch.setattr(cli, "closed_form", computed)
    monkeypatch.setattr(cli, "enumerate_profiles", computed)
    with pytest.raises(Computed):
        main(list(argv))


def test_symbolic_markings_are_capped_before_computing(capsys, monkeypatch):
    # at n = 7, i = 0 a marking fills 28 relation slots; three fill the cap
    def computed(*args):
        raise Computed

    monkeypatch.setattr(cli, "thmD_presentation", computed)
    argv = ["chow", "thmD", "--n", "7", "--i", "0", "--curve", "symbolic", "--ell"]
    with pytest.raises(Computed):
        main(argv + ["3"])
    code, out, err = run(capsys, *argv, "4")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: chow thmD: n = 7 with ell = 4 fills 112 relation slots, above the"
        " safety cap 84 of n = 7 with ell = 3 (pass --force to override)\n"
    )
    with pytest.raises(Computed):
        main(argv + ["4", "--force"])


def test_symbolic_marking_cap_counts_the_relations(capsys, monkeypatch):
    # a marking fills one slot and one per relation it adds to the presentation
    symbolic = chow.BaseRing.symbolic(1)
    sizes = {
        (n, i): 1 + len(chow.thmD_presentation(n, [i], symbolic).relations)
        for n in range(1, 8)
        for i in range(n + 1)
    }
    assert sizes[7, 0] * 3 == 84

    def computed(*args):
        raise Computed

    monkeypatch.setattr(cli, "thmD_presentation", computed)
    for (n, i), size in sizes.items():
        most = 84 // size
        argv = ["chow", "thmD", "--n", str(n), "--i", str(i), "--curve", "symbolic"]
        with pytest.raises(Computed):
            main(argv + ["--ell", str(most)])
        assert main(argv + ["--ell", str(most + 1)]) == EXIT_USAGE
    assert "fills 85 relation slots" in capsys.readouterr().err


def test_symbolic_marking_cap_runs_up_to_its_boundaries(capsys):
    # the cap is three markings of the relations thmD_presentation states at
    # n = 7, i = 0, each marking filling one slot more; at n = 1 a marking
    # adds no relation, so 84 markings fill the cap
    symbolic = chow.BaseRing.symbolic
    assert 84 == 3 * (1 + len(chow.thmD_presentation(7, [0], symbolic(1)).relations))
    assert chow.thmD_presentation(1, [0], symbolic(1)).relations == ()
    for n, most in ((7, 3), (1, 84)):
        argv = ("chow", "thmD", "--n", str(n), "--i", "0", "--curve", "symbolic")
        code, out, err = run(capsys, *argv, "--ell", str(most), "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        assert most + len(json.loads(out)["presentation"]["relations"]) == 84
        code, out, err = run(capsys, *argv, "--ell", str(most + 1))
        assert (code, out) == (EXIT_USAGE, "")
        assert "above the safety cap 84 of n = 7 with ell = 3" in err


def test_motive_modes_are_the_specialization_table(capsys):
    # one vocabulary: --mode offers the modes strata specializes, in its order
    code, out, _ = run(capsys, "motive", "--help")
    assert code == EXIT_OK
    offered = re.search(r"--mode \{([^}]*)\}", out).group(1).split(",")
    assert offered == list(strata.SPECIALIZATIONS)


def test_one_profile_fills_ell_slots(capsys, monkeypatch):
    # with --profile the cap counts one profile, so ell may reach the 362496
    # slots of n = 12 with three markings whatever n is
    def computed(*args):
        raise Computed

    monkeypatch.setattr(cli, "parse_profile", computed)
    argv = ["strata", "--n", "12", "--profile", "12;()", "--ell"]
    with pytest.raises(Computed):
        main(argv + ["362496"])
    code, out, err = run(capsys, *argv, "362497")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: strata: n = 12 with ell = 362497 fills 362497 composition slots,"
        " above the safety cap 362496 of n = 12 with ell = 3"
        " (pass --force to override)\n"
    )


def test_one_profile_keeps_the_size_cap(capsys):
    code, out, err = run(capsys, "strata", "--n", "13", "--ell", "1", "--profile", "13;()")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: strata: n = 13 exceeds the safety cap 12 (pass --force to override)\n"
    )


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED) == (0, 2, 3)


# every command reports its verdicts in one ``checks`` map, and the exit
# code is 3 exactly when one of them is false

SMALL_RUNS = {
    ("fan", "--n", "3", "--i", "1"): {
        "complete", "intersections_are_faces", "motive_palindromic"
    },
    ("chow", "sr", "--n", "2", "--i", "1", "--groups"): {"ranks_match_motive"},
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


@pytest.mark.parametrize("argv", [
    ("chow", "thmD", "--n", "4", "--i", "1", "--compare-sr"),
    ("chow", "keel", "--n", "3", "--i", "1", "--groups", "--compare-sr"),
], ids=" ".join)
def test_compare_sr_computes_each_group_once(capsys, monkeypatch, argv):
    group = chow.graded_group
    calls = Counter()

    def counted(pres, degree):
        calls[pres, degree] += 1
        return group(pres, degree)

    monkeypatch.setattr(chow, "graded_group", counted)
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert calls and set(calls.values()) == {1}
    # the groups printed are the comparison's source column
    source = [entry["source"] for entry in doc["sr_comparison"]["graded"]]
    assert doc["graded_groups"] == source


def test_motive_checks_hold_for_any_name_of_the_affine_line(capsys, monkeypatch):
    # the fan's motive and the SR ranks name L through affine_line_class, as
    # the series do, so the checks read one variable, whatever it is called
    monkeypatch.setitem(strata.SPECIALIZATIONS["motivic-p1"], "u", MultiPoly.var("M"))
    for argv in (("fan", "--n", "2", "--i", "1", "--markings", "0+inf"),
                 ("chow", "sr", "--n", "3", "--i", "1", "--groups")):
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert doc["checks"] and all(doc["checks"].values())
    assert run_json(capsys, "fan", "--n", "1", "--i", "1")[1]["motive"] == "M + 1"


def test_sr_ranks_off_the_motive_exit_with_check_failed(capsys, monkeypatch):
    group = chow.graded_group

    def one_rank_more(pres, degree):
        piece = group(pres, degree)
        return piece._replace(rank=piece.rank + 1)

    monkeypatch.setattr(chow, "graded_group", one_rank_more)
    code, doc = run_json(capsys, "chow", "sr", "--n", "2", "--i", "1", "--groups")
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == {"ranks_match_motive": False}
    assert [g["rank"] for g in doc["graded_groups"]] == [2, 3, 2]


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
        return TruncSeries([c + 1 for c in series.coeffs])

    monkeypatch.setattr(cli, "closed_form", off_by_one)
    code, doc = run_json(capsys, "strata", "--n", "3", "--ell", "2")
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == {"total_matches_series": False}
    assert doc["total"] == "L^3 + 5*L^2 + 5*L + 1"


SR_COMPARISONS = [("compare",), ("thmD", "--compare-sr"), ("keel", "--compare-sr")]


def failed_sr_checks(subcommand, direct=True):
    """The checks of a run whose SR comparison failed; keel also checks its
    presentation against thmD's."""
    checks = {"sr_comparison": False}
    if subcommand[0] == "keel":
        checks["matches_direct_presentation"] = direct
    return checks


@pytest.mark.parametrize("subcommand", SR_COMPARISONS)
def test_failed_sr_comparison_exits_with_check_failed(capsys, monkeypatch, subcommand):
    compare = cli.compare_presentations
    monkeypatch.setattr(
        cli, "compare_presentations", lambda *a: {**compare(*a), "pass": False}
    )
    argv = ("chow", subcommand[0], "--n", "2", "--i", "1", *subcommand[1:])
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_CHECK_FAILED
    assert doc["checks"] == failed_sr_checks(subcommand)


@pytest.mark.parametrize("subcommand", SR_COMPARISONS)
def test_failed_sr_comparison_names_the_relation(capsys, monkeypatch, subcommand):
    member = chow.ideal_member
    monkeypatch.setattr(
        chow,
        "ideal_member",
        lambda pres, poly: poly.degree() != 2 and member(pres, poly),
    )
    argv = ("chow", subcommand[0], "--n", "3", "--i", "1", *subcommand[1:])
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_CHECK_FAILED
    # the patched membership also fails keel's check against thmD
    assert json.loads(out)["checks"] == failed_sr_checks(subcommand, direct=False)
    # the first relation of degree 2 in thmD_presentation(3, [1], p1), and
    # in iterated_keel(3, 1, p1)
    assert err == (
        "sr comparison failed: relation H*eps3_1 of degree 2 "
        "is not in the Stanley-Reisner ideal\n"
    )


@pytest.mark.parametrize("subcommand", SR_COMPARISONS[:2])
def test_failed_sr_comparison_names_the_monomial_left(capsys, monkeypatch, subcommand):
    thmd = cli.thmD_presentation

    def corrupted(*args):
        # relation 1 is H*eps3_1; H^2 maps to tau^2, which is not in the ideal
        pres = thmd(*args)
        relations = list(pres.relations)
        relations[1] = relations[1] + MultiPoly.var("H") ** 2
        return pres._replace(relations=tuple(relations))

    monkeypatch.setattr(cli, "thmD_presentation", corrupted)
    argv = ("chow", subcommand[0], "--n", "3", "--i", "1", *subcommand[1:])
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    report = doc["report"] if subcommand[0] == "compare" else doc["sr_comparison"]
    assert [entry["member"] for entry in report["relations"]] == [
        True, False, True, True, True
    ]
    assert report["relations"][1] == {"relation": "H^2 + H*eps3_1", "member": False}
    # the residue is written in the solved SR variables (tau, rho_3, rho_2),
    # its terms in the order of the degree-2 monomial basis
    assert err == (
        "sr comparison failed: relation H^2 + H*eps3_1 of degree 2 is not in the "
        "Stanley-Reisner ideal; the first monomial left after reduction is "
        "-6*rho_3^2\n"
    )


def test_sr_culprit_keeps_variables_the_map_leaves_alone():
    # the map sends H and eps2_1 only; sigma_1 is shared with the SR ring, so
    # compare_presentations tests the relation as it stands, and so must the
    # culprit (a full substitution would find no image for sigma_1)
    sr = chow.sr_presentation(hilb_fan(2, 1))
    sigma = MultiPoly.var("sigma_1")
    pres = chow.GradedPresentation(chow.BaseRing.p1(2), ("sigma_1",), (sigma,), 2)
    gen_map = chow.sr_generator_map(2, 1)
    report = chow.compare_presentations(pres, sr, gen_map)
    assert report["relations"] == [{"relation": "sigma_1", "member": False}]
    assert cli._sr_culprit(pres, sr, gen_map, report) == (
        "relation sigma_1 of degree 1 is not in the Stanley-Reisner ideal; "
        "the first monomial left after reduction is tau"
    )


@pytest.mark.parametrize("subcommand", SR_COMPARISONS)
def test_failed_sr_comparison_names_the_degree(capsys, monkeypatch, subcommand):
    group = chow.graded_group

    def wrong_sr_torsion(pres, degree):
        piece = group(pres, degree)
        if pres.base.kind == "integers" and degree == 3:
            return piece._replace(torsion=(4,))
        return piece

    monkeypatch.setattr(chow, "graded_group", wrong_sr_torsion)
    argv = ("chow", subcommand[0], "--n", "3", "--i", "1", *subcommand[1:])
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["checks"] == failed_sr_checks(subcommand)
    assert err == (
        "sr comparison failed: degree 3: blow-up rank 1, torsion [2, 2]; "
        "SR rank 1, torsion [4]\n"
    )
