"""Exact toric and Chow-ring computations for relative Hilbert schemes of
points on the line, with a stratification oracle for the generating
functions of their motivic classes."""

from .poly import MultiPoly, TruncSeries
from .fan import (
    Ray,
    StackyFan,
    fan_motive,
    hilb_fan,
    hilb_fan_two_sided,
    insert_weighted_ray,
    minimal_cone,
    projective_fan,
    star_subdivide,
)
from .chow import (
    BaseRing,
    GradedPresentation,
    compare_presentations,
    graded_group,
    graded_groups,
    iterated_keel,
    keel_step,
    q_polynomial,
    sr_presentation,
    stratum_cycle_class,
    thmD_presentation,
)
from .strata import (
    StratumProfile,
    ZetaMode,
    closed_form,
    enumerate_profiles,
    stabilizer_bounds,
    strata_sum,
    stratum_class,
    zeta_series,
)

__all__ = [
    "MultiPoly",
    "TruncSeries",
    "Ray",
    "StackyFan",
    "fan_motive",
    "hilb_fan",
    "hilb_fan_two_sided",
    "insert_weighted_ray",
    "minimal_cone",
    "projective_fan",
    "star_subdivide",
    "BaseRing",
    "GradedPresentation",
    "compare_presentations",
    "graded_group",
    "graded_groups",
    "iterated_keel",
    "keel_step",
    "q_polynomial",
    "sr_presentation",
    "stratum_cycle_class",
    "thmD_presentation",
    "StratumProfile",
    "ZetaMode",
    "closed_form",
    "enumerate_profiles",
    "stabilizer_bounds",
    "strata_sum",
    "stratum_class",
    "zeta_series",
]

__version__ = "0.1.0"
