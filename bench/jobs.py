"""The benchmark's workloads: fixed lists of loghilb CLI jobs.

A job is the argument list a user would type after ``loghilb``; the
benchmark adds ``--format json``.  The workload seed only reorders jobs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS: Dict[str, Tuple[str, ...]] = {
    # almost all time in check_intersections_are_faces: ~16k small dense
    # Fraction solves at n = 6; bypasses chow and strata
    "fan-checks": (
        "fan --n 6 --i 1",
        "fan --n 5 --i 3 --markings 0+inf --i-inf 2",
        "fan --n 4 --i 1 --markings 0+inf",
    ),
    # a few large sparse integer matrices: row-span membership (HNF) in the
    # compare jobs, invariant factors in the n = 5 SR job (past the cap)
    "chow-groups": (
        "chow compare --n 4 --i 1",
        "chow thmD --n 4 --i 1 --compare-sr",
        "chow sr --n 5 --i 4 --groups --force",
        "chow sr --n 4 --i 1 --groups",
        "chow keel --n 4 --i 1 --groups",
    ),
    # MultiPoly products in strata_sum and stratum_class; 0.8 MB listing;
    # three-variable Hodge series; no linalg
    "strata-series": (
        "motive --ell 3 --N 10",
        "strata --n 8 --ell 3",
        "motive --mode hodge --g 1 --ell 2 --N 10",
    ),
}


def argv(job: str) -> List[str]:
    """The exact argument list the CLI receives for a job."""
    return job.split() + ["--format", "json"]


class JobOrder:
    """Seeded source of job orders: each pass gets the next shuffle."""

    def __init__(self, workload: str, seed: int) -> None:
        self.jobs = WORKLOADS[workload]
        self._rng = random.Random(seed)

    def next_pass(self) -> List[str]:
        return self._rng.sample(self.jobs, len(self.jobs))
