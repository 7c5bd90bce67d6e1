"""Pin the command line's outputs: write ``tests/cli_outputs.json``.

The file maps each command line of ``GRID`` to the sha256 of its exit code,
stdout and stderr, run through ``cli.main`` in this process.
``test_cli_outputs.py`` replays the grid and names every line whose digest
changed.  Rewrite the file only when a change of output is intended, and
record which lines changed; the script prints each line whose digest
changed, was added or was dropped:

    PYTHONPATH=src python3 tests/pin_cli_outputs.py

The grid covers ``fan`` for n <= 5 with one and two markings and with
``--census``; every ``chow`` subcommand and flag for n <= 4; ``motive`` in all
four modes for N <= 6; ``strata`` with and without ``--profile``; ``fan`` and
``chow`` at their size caps; refusals of each command; the three formats;
and the ``fan-checks`` and ``chow-groups`` jobs of ``bench/jobs.py`` with the
``--format json`` the benchmark adds (``test_bench_gate.py`` checks every
job, the ``strata-series`` ones too, against the benchmark's reference
answers).  The refusals are those ``main`` writes itself: an argparse refusal
prints a usage text wrapped to the terminal's width, so it is left out.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

from loghilb.cli import main

PINNED = Path(__file__).with_name("cli_outputs.json")
JOBS = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"


def _fan() -> Iterator[List[str]]:
    for n in range(1, 6):
        for i in range(n + 1):
            yield ["fan", "--n", str(n), "--i", str(i)]
            yield ["fan", "--n", str(n), "--i", str(i), "--census"]
            yield ["fan", "--n", str(n), "--i", str(i), "--markings", "0+inf"]
        yield ["fan", "--n", str(n), "--i", "1", "--markings", "0+inf", "--i-inf", "0"]
        yield ["fan", "--n", str(n), "--i", "0", "--markings", "0+inf",
               "--i-inf", str(n), "--census"]


def _chow() -> Iterator[List[str]]:
    for n in range(1, 5):
        for i in range(n + 1):
            size = ["--n", str(n), "--i", str(i)]
            yield ["chow", "sr", *size]
            yield ["chow", "sr", *size, "--groups"]
            for flags in ([], ["--groups"], ["--compare-sr"], ["--groups", "--compare-sr"]):
                yield ["chow", "thmD", *size, *flags]
                yield ["chow", "keel", *size, *flags]
            for ell in range(1, 4):
                yield ["chow", "thmD", *size, "--curve", "symbolic", "--ell", str(ell)]
            yield ["chow", "compare", *size]


def _motive() -> Iterator[List[str]]:
    for mode, g in (("motivic-p1", 0), ("hodge", 0), ("hodge", 1),
                    ("poincare", 2), ("euler", 1)):
        for ell in range(1, 4):
            for N in range(7):
                yield ["motive", "--mode", mode, "--g", str(g),
                       "--ell", str(ell), "--N", str(N)]


def _strata() -> Iterator[List[str]]:
    for ell in range(1, 4):
        for n in range(6):
            yield ["strata", "--n", str(n), "--ell", str(ell)]
    for n, ell, profile in ((0, 1, "0;()"), (3, 1, "1;(2)"), (4, 2, "0;(1,1);(2)"),
                            (5, 3, "1;(1,2);();(1)"), (6, 3, "0;(3);(1,1);(1)")):
        yield ["strata", "--n", str(n), "--ell", str(ell), "--profile", profile]


# at the size caps, or with many markings, in text format only
LARGE = [
    ["fan", "--n", "9", "--i", "1"],
    ["fan", "--n", "9", "--i", "1", "--markings", "0+inf"],
    ["chow", "sr", "--n", "7", "--i", "1", "--groups"],
    ["chow", "thmD", "--n", "7", "--i", "0", "--curve", "symbolic", "--ell", "3"],
    ["strata", "--n", "1", "--ell", "700", "--profile", "1" + ";()" * 700],
]


# each refused by ``main`` with exit code 2 and one line on stderr
REFUSALS = [
    ["fan", "--n", "10", "--i", "1"],
    ["fan", "--n", "0", "--i", "0"],
    ["fan", "--n", "3", "--i", "4"],
    ["fan", "--n", "3", "--i", "1", "--i-inf", "1"],
    ["fan", "--n", "3", "--i", "1", "--markings", "0+inf", "--i-inf", "5"],
    ["chow", "sr", "--n", "8", "--i", "1"],
    ["chow", "keel", "--n", "3", "--i", "-1"],
    ["chow", "thmD", "--n", "3", "--i", "1", "--ell", "2"],
    ["chow", "thmD", "--n", "3", "--i", "1", "--ell", "0"],
    ["chow", "thmD", "--n", "3", "--i", "1", "--curve", "symbolic", "--groups"],
    ["chow", "compare", "--n", "-1", "--i", "0"],
    ["chow", "thmD", "--n", "7", "--i", "0", "--curve", "symbolic", "--ell", "4"],
    ["chow", "thmD", "--n", "2", "--i", "0", "--curve", "symbolic", "--ell", "20000"],
    ["chow", "thmD", "--n", "1", "--i", "0", "--curve", "symbolic", "--ell", "2000000"],
    ["motive", "--N", "13"],
    ["motive", "--N", "-1"],
    ["motive", "--ell", "0", "--N", "3"],
    ["motive", "--mode", "motivic-p1", "--g", "1", "--N", "3"],
    ["motive", "--mode", "hodge", "--g", "-1", "--N", "3"],
    ["motive", "--ell", "6", "--N", "12"],
    ["strata", "--n", "13", "--ell", "1"],
    ["strata", "--n", "3", "--ell", "0"],
    ["strata", "--n", "9", "--ell", "6"],
    ["strata", "--n", "3", "--ell", "2", "--profile", "x;()"],
    ["strata", "--n", "3", "--ell", "2", "--profile", "1;(0);(2)"],
    ["strata", "--n", "3", "--ell", "2", "--profile", "1;(2)"],
    ["strata", "--n", "4", "--ell", "1", "--profile", "1;(2)"],
]


def _bench() -> List[List[str]]:
    """The command lines of the ``fan-checks`` and ``chow-groups`` jobs,
    read from ``bench/jobs.py`` without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [jobs.argv(job) for workload in ("fan-checks", "chow-groups")
            for job in jobs.WORKLOADS[workload]]


def grid() -> List[List[str]]:
    """Every pinned command line: each computed one in text format, the
    small ones also in json and csv, the large ones, the refusals, and the
    benchmark's jobs."""
    lines = []
    for argv in (*_fan(), *_chow(), *_motive(), *_strata()):
        lines.append(argv)
        if argv[argv.index("--n" if "--n" in argv else "--N") + 1] in ("1", "2"):
            lines.append(argv + ["--format", "json"])
            lines.append(argv + ["--format", "csv"])
    return lines + LARGE + REFUSALS + _bench()


def replay(argv: List[str]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(argv: List[str]) -> str:
    """sha256 of the replayed exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps(replay(argv)).encode("utf-8")).hexdigest()


def pins() -> dict:
    """{command line: digest} over the grid, in grid order."""
    return {shlex.join(argv): digest(argv) for argv in grid()}


def changes(old: dict, new: dict) -> List[str]:
    """One line per command line whose digest changed, was added or was
    dropped between two pin maps, in the order of ``new`` then ``old``."""
    lines = [
        f"changed {line} ({old[line][:8]}… → {new[line][:8]}…)"
        if line in old else f"added {line} ({new[line][:8]}…)"
        for line in new
        if old.get(line) != new[line]
    ]
    return lines + [f"dropped {line} ({old[line][:8]}…)" for line in old if line not in new]


if __name__ == "__main__":
    old = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    new = pins()
    PINNED.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(*changes(old, new), sep="\n")
    print(f"wrote {PINNED}")
