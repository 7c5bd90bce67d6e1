"""Command-line front end.

Subcommands expose the fan constructions, the Chow-ring presentations with
their graded groups, the strata enumeration and the generating-function
tables, each with JSON, CSV or aligned-text output.  Each ``chow`` subcommand
declares only the flags it reads besides ``--n``, ``--i``, ``--format``,
``--output`` and ``--force``: ``sr`` takes ``--groups``; ``thmD`` ``--curve``,
``--ell``, ``--groups`` and ``--compare-sr``; ``keel`` ``--groups`` and
``--compare-sr``; ``compare`` none.  With ``--compare-sr``, ``graded_groups``
is the comparison's source column, so each degree's group is computed once.
Every command is deterministic and returns its payload and table rows to
``main``; the payload's ``checks`` map holds the verdict of each cross-check
the command ran, by name.  ``main`` writes the output once and returns the
exit code: 0 for success, 2 for invalid parameters (an argument a parser
cannot read, refused with the usage of the parser that meets it and
``loghilb [<command>]: error: unrecognized arguments``; an ``n``, or a job's
slots, above its size cap without ``--force``; and an ``--output`` path that
is empty or cannot be written, which is checked before computing), 3 when
any entry of ``checks`` is false.  Any other error is internal and exits 1
with a traceback.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chow import (
    BaseRing,
    compare_presentations,
    graded_groups,
    ideal_residue,
    ideals_equal,
    iterated_keel,
    sr_generator_map,
    sr_presentation,
    stratum_cycle_class,
    thmD_presentation,
)
from .fan import blowup_levels, fan_motive, hilb_fan, hilb_fan_two_sided, is_palindromic
from .poly import MultiPoly
from .strata import (
    MOTIVIC_P1,
    SPECIALIZATIONS,
    ProfileError,
    ZetaMode,
    affine_line_class,
    closed_form,
    enumerate_profiles,
    parse_profile,
    profile_count,
    strata_classes,
    strata_sum,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3

# size caps, which only --force lifts, set from single runs on a shared 2-core
# machine with Python 3.11 (README "Size caps" gives the runs and their times).
# Graded groups are computed only over the p1 base, which takes one marking
# (only thmD reads --ell), so MAX_N_GROUPS bounds every graded job.  Without
# --force, motive and strata also bound the composition slots their oracle
# fills, and thmD over the symbolic curve the relation slots of its markings
# (``_check_series``).
MAX_N_FAN = 9
MAX_N_GROUPS = 7
MAX_N_MOTIVE = 12


# the slots a job fills for each marking, as a function of its size and ell
Count = Callable[[int, int], int]


class UsageError(ValueError):
    """Invalid parameter combination detected after parsing."""


def _check_cap(args: argparse.Namespace, cap: int, what: str, flag: str = "n") -> None:
    """Refuse a negative size, or one above its cap without --force; the size
    is the argument of its flag (``n``, or ``N`` for motive)."""
    n = getattr(args, flag)
    if n < 0:
        raise UsageError(f"{what}: {flag} must be non-negative")
    if n > cap and not args.force:
        raise UsageError(
            f"{what}: {flag} = {n} exceeds the safety cap {cap}"
            " (pass --force to override)"
        )


def _check_size(args: argparse.Namespace, what: str, cap: int) -> None:
    """The refusals fan and chow share: ``n`` within its cap, at least 1, and
    ``0 <= i <= n``."""
    _check_cap(args, cap, what)
    if args.n < 1:
        raise UsageError(f"{what}: need n >= 1")
    if not 0 <= args.i <= args.n:
        raise UsageError(f"{what}: need 0 <= i <= n")


def _check_series(
    args: argparse.Namespace, what: str, flag: str, count: Count,
    largest: Optional[Count] = None, top: int = MAX_N_MOTIVE, unit: str = "composition",
) -> None:
    """The refusals of the commands that take markings: the value n of
    ``flag`` within the size cap ``top`` (``_check_cap``), at least one
    marking, and, without --force, no more slots (``count(n, ell)`` per
    marking) than the largest job of size ``top`` with three markings fills
    (``largest(top, 3)`` each; ``largest`` is ``count`` unless the job is
    smaller than the largest of its size)."""
    _check_cap(args, top, what, flag)
    if args.ell < 1:
        raise UsageError(f"{what}: need at least one marking")
    if args.force:
        return
    cap = (largest or count)(top, 3) * 3
    n = getattr(args, flag)
    wanted = count(n, args.ell) * args.ell
    if wanted > cap:
        raise UsageError(
            f"{what}: {flag} = {n} with ell = {args.ell} fills {wanted} {unit}"
            f" slots, above the safety cap {cap} of {flag} = {top} with ell = 3"
            " (pass --force to override)"
        )


def _words(values) -> str:
    """A list of integers as words, ``-`` when empty."""
    return " ".join(map(str, values)) or "-"


def _check_output(path: str) -> None:
    """Before any computation, refuse with ``open``'s reason an ``--output``
    that is empty, a directory, an unwritable file, or a new file in a missing
    or unwritable directory; ``_emit`` reports any other failure to write."""
    folder = os.path.dirname(path) or "."
    if not path:  # an unset shell variable, say: no file, not stdout
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):  # opened, not created: the folder's mode is moot
        if os.access(path, os.W_OK):
            return
        code = errno.EACCES
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _emit(payload: dict, rows: List[dict], args: argparse.Namespace) -> None:
    """Write the command result in the requested format.

    ``payload`` is the full JSON document; ``rows`` is its flat tabular
    part, used for CSV and aligned text.
    """
    fmt = args.format
    if fmt == "json":
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        import csv  # only this format needs it; keeps start-up short

        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = []
        if rows:
            headers = list(rows[0].keys())
            table = [headers] + [[str(r[h]) for h in headers] for r in rows]
            widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
            for r in table:
                lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        for key, value in payload.items():
            if key != "rows":
                lines.append(f"{key}: {value}")
        text = "\n".join(lines) + "\n"
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            raise UsageError(f"cannot write {args.output}: {reason}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, rows), and payload["checks"] maps the
# name of every cross-check it ran to its verdict

Result = Tuple[dict, List[dict]]


def cmd_fan(args: argparse.Namespace) -> Result:
    _check_size(args, "fan", MAX_N_FAN)
    if args.markings == "0" and args.i_inf is not None:
        raise UsageError("fan: --i-inf needs --markings 0+inf")
    checks: Dict[str, bool] = {}
    if args.markings == "0":
        fan = hilb_fan(args.n, args.i)
    else:
        i_inf = args.i_inf if args.i_inf is not None else args.i
        if not 0 <= i_inf <= args.n:
            raise UsageError("fan: need 0 <= i-inf <= n")
        fan = hilb_fan_two_sided(args.n, args.i, i_inf)
    motive = fan_motive(fan)
    if args.markings != "0" and args.i <= 1 and i_inf <= 1:
        # the motive of the fully subdivided two-marking fan (level 0 is
        # level 1) must agree with the two-marking generating function, in
        # particular at L=1
        expected = closed_form(MOTIVIC_P1, 2, args.n).coeffs[args.n]
        checks["motive_matches_two_marking_series"] = motive == expected
        euler = sum(motive.terms.values())
        checks["euler_characteristic"] = euler == sum(expected.terms.values())
    checks["complete"] = fan.is_complete()
    defect = fan.fan_defect()
    checks["intersections_are_faces"] = defect is None
    checks["motive_palindromic"] = is_palindromic(motive)
    if defect is not None:
        print(f"fan check failed: {defect}", file=sys.stderr)
    census = fan.census()
    payload = {
        "command": "fan",
        "n": args.n,
        "i": args.i,
        "markings": args.markings,
        "fan": fan.to_json_dict(),
        "census": list(census),
        "motive": motive.to_string(),
        "checks": checks,
    }
    rows = [
        {"dimension": d, "cones": c} for d, c in enumerate(census)
    ] if args.census else [
        {"ray": ray.label, "vector": " ".join(map(str, ray.vector))}
        for ray in fan.rays
    ]
    return payload, rows


def cmd_chow(args: argparse.Namespace) -> Result:
    """Every chow subcommand: the refusals they share, then its handler."""
    _check_size(args, "chow", MAX_N_GROUPS)
    return args.handler(args)


def _chow_sr(args: argparse.Namespace) -> Result:
    """Stanley-Reisner presentation of the fan"""
    fan = hilb_fan(args.n, args.i)
    payload, rows = _presentation_result(args, sr_presentation(fan), {})
    if args.groups:
        # the rank in degree k is the coefficient of L^(n-k) in the motive
        L = affine_line_class(MOTIVIC_P1)
        ranks = MultiPoly.sum(r["rank"] * L ** (args.n - r["degree"]) for r in rows)
        payload["checks"]["ranks_match_motive"] = ranks == fan_motive(fan)
    return payload, rows


def _chow_thmD(args: argparse.Namespace) -> Result:
    """blow-up presentation, all centres at once"""
    if args.curve == "p1" and args.ell > 1:
        raise UsageError("chow: the p1 base supports a single marking")

    def slots(n: int, i: int) -> int:
        # a marking fills one slot, and one per relation: n - j + 2 at level j
        return 1 + sum(n - j + 2 for j in blowup_levels(n, i))

    _check_series(
        args, "chow thmD", "n", lambda n, ell: slots(n, args.i),
        largest=lambda n, ell: slots(n, 0), top=MAX_N_GROUPS, unit="relation",
    )
    if args.curve == "symbolic" and (args.groups or args.compare_sr):
        raise UsageError("chow thmD: --groups and --compare-sr need --curve p1")
    base = BaseRing.p1(args.n) if args.curve == "p1" else BaseRing.symbolic(args.ell)
    pres = thmD_presentation(args.n, [args.i] * args.ell, base)
    return _presentation_result(args, pres, {})


def _chow_keel(args: argparse.Namespace) -> Result:
    """blow-up presentation, one weighted blow-up at a time, checked against thmD"""
    base = BaseRing.p1(args.n)
    pres = iterated_keel(args.n, args.i, base)
    direct = thmD_presentation(args.n, [args.i], base)
    checks = {"matches_direct_presentation": ideals_equal(pres, direct)}
    return _presentation_result(args, pres, checks)


def _presentation_result(args: argparse.Namespace, pres, checks: dict) -> Result:
    """The relations, or the graded groups once they are computed, and the
    SR comparison with --compare-sr, whose source column is then the graded
    groups: each degree's group is computed once."""
    payload = {
        "command": f"chow {args.subcommand}",
        "n": args.n,
        "i": args.i,
        "presentation": pres.to_json_dict(),
        "checks": checks,
    }
    rows = [
        {"relation": rel.to_string(), "degree": rel.degree()}
        for rel in pres.all_relations()
    ]
    report = _sr_comparison(args.n, args.i, pres) if args.compare_sr else None
    if args.groups or report:
        summary = [entry["source"] for entry in report["graded"]] if report else [
            g.to_json_dict() for g in graded_groups(pres)
        ]
        payload["graded_groups"] = summary
        rows = [
            {"degree": g["degree"], "rank": g["rank"], "torsion": _words(g["torsion"])}
            for g in summary
        ]
    if report:
        payload["sr_comparison"] = report
        checks["sr_comparison"] = report["pass"]
    return payload, rows


def _sr_comparison(n: int, i: int, pres) -> dict:
    """Compare a blow-up presentation with the SR ring of ``hilb_fan(n, i)``;
    on failure, name the culprit on stderr."""
    sr = sr_presentation(hilb_fan(n, i))
    gen_map = sr_generator_map(n, i)
    report = compare_presentations(pres, sr, gen_map)
    if not report["pass"]:
        culprit = _sr_culprit(pres, sr, gen_map, report)
        print(f"sr comparison failed: {culprit}", file=sys.stderr)
    return report


def _sr_culprit(pres, sr, gen_map: Dict[str, MultiPoly], report: dict) -> str:
    """The first relation outside the SR ideal, with the first monomial its
    image leaves after reduction, else the first degree whose rank or torsion
    differs."""
    for rel, entry in zip(pres.relations, report["relations"]):
        if not entry["member"]:
            left = ideal_residue(sr, rel.specialize(gen_map))
            first = ""
            if not left.is_zero():
                exp, c = next(iter(left.terms.items()))
                monomial = MultiPoly(left.vars, {exp: c}).to_string()
                first = f"; the first monomial left after reduction is {monomial}"
            return (
                f"relation {entry['relation']} of degree {rel.degree()} "
                f"is not in the Stanley-Reisner ideal{first}"
            )
    for entry in report["graded"]:
        if not entry["match"]:
            src, dst = entry["source"], entry["target"]
            return (
                f"degree {entry['degree']}: blow-up rank {src['rank']}, "
                f"torsion {src['torsion']}; SR rank {dst['rank']}, "
                f"torsion {dst['torsion']}"
            )
    return "the report names no relation or degree"


def _chow_compare(args: argparse.Namespace) -> Result:
    """blow-up presentation against the Stanley-Reisner ring, degree by degree"""
    pres = thmD_presentation(args.n, [args.i], BaseRing.p1(args.n))
    report = _sr_comparison(args.n, args.i, pres)
    payload = {
        "command": "chow compare",
        "n": args.n,
        "i": args.i,
        "report": report,
        "checks": {"sr_comparison": report["pass"]},
    }
    rows = [
        {
            "degree": entry["degree"],
            "rank_blowup": entry["source"]["rank"],
            "rank_sr": entry["target"]["rank"],
            "torsion_blowup": _words(entry["source"]["torsion"]),
            "torsion_sr": _words(entry["target"]["torsion"]),
            "match": entry["match"],
        }
        for entry in report["graded"]
    ]
    return payload, rows


def cmd_motive(args: argparse.Namespace) -> Result:
    # the oracle enumerates the profiles of every size up to N
    _check_series(
        args, "motive", "N",
        lambda N, ell: sum(profile_count(n, ell) for n in range(N + 1)),
    )
    try:
        mode = ZetaMode(args.mode, args.g)
    except ValueError as exc:
        raise UsageError(f"motive: {exc}") from exc
    series = closed_form(mode, args.ell, args.N)
    rows = [
        {
            "n": n,
            "coefficient": coeff.to_string(),
            "verified": coeff == strata_sum(n, args.ell, mode),
        }
        for n, coeff in enumerate(series.coeffs)
    ]
    payload = {
        "command": "motive",
        "mode": args.mode,
        "g": args.g,
        "ell": args.ell,
        "N": args.N,
        "rows": rows,
        "checks": {
            "strata_sum_matches_series": all(row["verified"] for row in rows)
        },
    }
    return payload, rows


def cmd_strata(args: argparse.Namespace) -> Result:
    # one --profile fills ell slots, but the interior series is still
    # expanded to order n
    count = profile_count if args.profile is None else (lambda n, ell: 1)
    _check_series(args, "strata", "n", count, largest=profile_count)
    if args.profile is not None:
        try:
            profile = parse_profile(args.profile)
        except ProfileError as exc:
            raise UsageError(f"strata: profile {args.profile!r}: {exc}") from None
        if len(profile.nu) != args.ell:
            raise UsageError("strata: profile does not match --ell")
        if profile.total != args.n:
            raise UsageError(
                f"strata: profile totals {profile.total}, expected n = {args.n}"
            )
        profiles = [profile]
    else:
        profiles = enumerate_profiles(args.n, args.ell)
    rows = []

    def listed_classes():
        for profile, cls in strata_classes(args.n, args.ell, MOTIVIC_P1, profiles):
            rows.append(
                {
                    "profile": str(profile),
                    "class": cls.to_string(),
                    "codimension": profile.codimension,
                    "cycle_class": stratum_cycle_class(profile, args.n).to_string(),
                }
            )
            yield cls

    total = MultiPoly.sum(listed_classes())
    checks: Dict[str, bool] = {}
    if args.profile is None:
        expected = closed_form(MOTIVIC_P1, args.ell, args.n).coeffs[args.n]
        checks["total_matches_series"] = total == expected
    payload = {
        "command": "strata",
        "n": args.n,
        "ell": args.ell,
        "rows": rows,
        "total": total.to_string(),
        "checks": checks,
    }
    return payload, rows


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses what it cannot read itself, so the refusal shows its own usage;
    ``add_subparsers`` gives each subparser its parent's class."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--force", action="store_true", help="ignore size caps")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loghilb",
        description="Exact fans, Chow presentations and generating functions "
        "for relative Hilbert schemes of points on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fan = sub.add_parser("fan", help="build a subdivided fan")
    p_fan.add_argument("--n", type=int, required=True)
    p_fan.add_argument("--i", type=int, required=True)
    p_fan.add_argument("--markings", choices=("0", "0+inf"), default="0")
    p_fan.add_argument("--i-inf", type=int, dest="i_inf")
    p_fan.add_argument("--census", action="store_true")
    _add_common(p_fan)
    p_fan.set_defaults(func=cmd_fan)

    p_chow = sub.add_parser("chow", help="Chow-ring presentations")
    # --groups and --compare-sr as a subcommand that does not take them reads them
    p_chow.set_defaults(func=cmd_chow, groups=False, compare_sr=False)
    routes = p_chow.add_subparsers(dest="subcommand", required=True)
    flag_kwargs = {
        "--curve": {"choices": ("p1", "symbolic"), "default": "p1"},
        "--ell": {"type": int, "default": 1},
        "--groups": {"action": "store_true"},
        "--compare-sr": {"action": "store_true"},
    }
    for name, handler, flags in (
        ("sr", _chow_sr, ("--groups",)),
        ("thmD", _chow_thmD, ("--curve", "--ell", "--groups", "--compare-sr")),
        ("keel", _chow_keel, ("--groups", "--compare-sr")),
        ("compare", _chow_compare, ()),
    ):
        p_route = routes.add_parser(name, help=handler.__doc__)
        p_route.add_argument("--n", type=int, required=True)
        p_route.add_argument("--i", type=int, required=True)
        for flag in flags:
            p_route.add_argument(flag, **flag_kwargs[flag])
        _add_common(p_route)
        p_route.set_defaults(handler=handler)

    p_motive = sub.add_parser("motive", help="generating-function table")
    modes = tuple(SPECIALIZATIONS)
    p_motive.add_argument("--mode", choices=modes, default="motivic-p1")
    p_motive.add_argument("--g", type=int, default=0)
    p_motive.add_argument("--ell", type=int, default=1)
    p_motive.add_argument("--N", type=int, required=True)
    _add_common(p_motive)
    p_motive.set_defaults(func=cmd_motive)

    p_strata = sub.add_parser("strata", help="boundary strata listing")
    p_strata.add_argument("--n", type=int, required=True)
    p_strata.add_argument("--ell", type=int, required=True)
    p_strata.add_argument("--profile")
    _add_common(p_strata)
    p_strata.set_defaults(func=cmd_strata)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or argparse refusing the command line
        return exc.code
    try:
        if args.output is not None:
            _check_output(args.output)
        payload, rows = args.func(args)
        _emit(payload, rows, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(payload["checks"].values()) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
