"""Correctness gate: compare the mathematical content of a job's JSON
output with the reference recorded from the seed commit.

Only content is compared (fan census and motive, chow ranks and torsion
per degree, motive series coefficients and verified flags, strata total
and row count), so a change to the payload's layout alone is not a
failure.  Polynomials are compared as term maps, not as strings.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, Optional

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_TERM = re.compile(r"([+-]?)([^+-]+)")


def poly_terms(text: str) -> Dict[str, int]:
    """Parse ``MultiPoly.to_string`` output into {monomial: coefficient}."""
    terms: Dict[str, int] = {}
    for sign, body in _TERM.findall(text.replace(" ", "")):
        coeff = -1 if sign == "-" else 1
        factors = []
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                factors.append((name, int(exp or 1)))
        key = "*".join(f"{v}^{e}" for v, e in sorted(factors)) or "1"
        terms[key] = terms.get(key, 0) + coeff
    return {k: c for k, c in terms.items() if c}


def _groups(pieces: Iterable[dict]) -> list:
    return [[g["degree"], g["rank"], sorted(g["torsion"])] for g in pieces]


def content(job: str, payload: dict) -> dict:
    """The parts of a job's JSON output that the gate compares."""
    command = job.split()[0]
    if command == "fan":
        return {"census": payload["census"], "motive": poly_terms(payload["motive"])}
    if command == "chow":
        out = {}
        if "graded_groups" in payload:
            out["graded_groups"] = _groups(payload["graded_groups"])
        for key in ("report", "sr_comparison"):
            if key in payload:
                graded = payload[key]["graded"]
                out[key] = {
                    "source": _groups(e["source"] for e in graded),
                    "target": _groups(e["target"] for e in graded),
                }
        return out
    if command == "motive":
        return {
            "rows": [
                [r["n"], poly_terms(r["coefficient"]), r["verified"]]
                for r in payload["rows"]
            ]
        }
    if command == "strata":
        return {"total": poly_terms(payload["total"]), "rows": len(payload["rows"])}
    raise ValueError(f"no gate for command {command!r}")


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(
    job: str,
    returncode: int,
    timed_out: bool,
    stdout: bytes,
    reference: Dict[str, dict],
) -> Optional[str]:
    """None when the job passed, otherwise why it failed."""
    if timed_out:
        return "over the time limit"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = content(job, json.loads(stdout))
    except ValueError:
        return "output is not valid JSON"
    except (KeyError, TypeError) as exc:
        return f"output lacks field {exc}"
    want = reference.get(job)
    if want is None:
        return "no reference for this job"
    if got != want:
        fields = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "differs from the reference in " + ", ".join(fields)
    return None
