"""Boundary stratification and generating functions of point counts.

The moduli of n points on a curve relative to ell marked points is
stratified by the interior length m together with, per marking, the
ordered lengths of support along the chain of bubbles.  Summing the
classes of these strata in the Grothendieck ring gives an independent
oracle for the closed-form generating function

    Z_C(t) * ((1 - L*t)(1 - t) / (1 - (L+1)*t))^ell,

with Macdonald's Z_C(t) = ((1 - u*t)(1 - v*t))^g / ((1 - t)(1 - L*t)) and
L = u*v (Proc. Cambridge Philos. Soc. 58, 1962).  Its motivic, Hodge-Deligne,
Poincare and Euler modes specialize u and v by one table.  The closed form
is the interior series Z_C(t) * (1 - t)^ell, the classes of the symmetric
powers of the curve minus the markings, times B(t)^ell with
B(t) = (1 - L*t) / (1 - (L+1)*t), the bubble chains of one marking; both
are Z_C(t) times one ell-th power, expanded by one builder (``_series``).
A stratum's class, the interior symmetric power times L^(part - 1) per
bubble, is multiplied out only in ``strata_classes``: the sum, the
one-profile class and the CLI listing all read it.  The sum and the
listing's total add the classes into one term map as they come
(``MultiPoly.sum``), not by one polynomial addition per profile.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product, repeat
from math import comb
from typing import Iterable, Iterator, List, NamedTuple, Tuple

from .poly import ONE, MultiPoly, TruncSeries, monomial_exponents

Composition = Tuple[int, ...]


class ProfileError(ValueError):
    """Invalid stratum profile."""


class StratumProfile(NamedTuple("StratumProfile", [
    ("m", int),
    ("nu", Tuple[Composition, ...]),
])):
    """Interior length plus one composition of bubble supports per marking."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, m: int, nu: Tuple[Composition, ...]):
        if m < 0:
            raise ProfileError("interior length must be non-negative")
        for comp in nu:
            if any(part < 1 for part in comp):
                raise ProfileError("every bubble must support positive length")
        return super().__new__(cls, m, nu)

    @property
    def total(self) -> int:
        return self.m + sum(sum(comp) for comp in self.nu)

    @property
    def codimension(self) -> int:
        return sum(len(comp) for comp in self.nu)

    def __str__(self) -> str:
        comps = ";".join("(" + ",".join(map(str, c)) + ")" for c in self.nu)
        return f"{self.m};{comps}" if self.nu else str(self.m)


# Macdonald's u, v specialized in each mode (``motive --mode``): [A^1] = u*v
SPECIALIZATIONS = {
    "motivic-p1": {"u": MultiPoly.var("L"), "v": 1},
    "hodge": {},
    "poincare": {"u": MultiPoly.var("x"), "v": MultiPoly.var("x")},
    "euler": {"u": 1, "v": 1},
}


class ZetaMode(NamedTuple("ZetaMode", [("kind", str), ("g", int)])):
    """Coefficient ring selector for the generating functions.

    kind "hodge" keeps Macdonald's u and v in Z[u, v]; "motivic-p1" sets
    u = L, v = 1 in Z[L] and requires genus 0; "poincare" sets u = v = x and
    "euler" u = v = 1 (``SPECIALIZATIONS``), both in any genus.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, kind: str, g: int = 0):
        if kind not in SPECIALIZATIONS:
            raise ValueError(f"unknown mode kind {kind!r}")
        if g < 0:
            raise ValueError("genus must be non-negative")
        if kind == "motivic-p1" and g != 0:
            raise ValueError("the motivic mode is only available in genus 0")
        return super().__new__(cls, kind, g)


MOTIVIC_P1 = ZetaMode("motivic-p1", 0)


def affine_line_class(mode: ZetaMode) -> MultiPoly:
    """The class of the affine line in the mode's coefficient ring."""
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    return (u * v).specialize(SPECIALIZATIONS[mode.kind])


def _power(f: MultiPoly, e: int, order: int) -> MultiPoly:
    """f^e up to t^order, for f with constant term 1: t divides f - 1, so the
    terms C(e, k) (f - 1)^k with k <= min(e, order) hold every such power."""
    powers = accumulate(repeat(f - 1, min(e, order)), MultiPoly.__mul__, initial=ONE)
    return MultiPoly.sum(comb(e, k) * power for k, power in enumerate(powers))


def _series(
    mode: ZetaMode, ell: int, order: int, num: MultiPoly, den: MultiPoly
) -> TruncSeries:
    """Z_C(t) * (num / den)^ell up to t^order, with Macdonald's
    Z_C(t) = ((1 - u t)(1 - v t))^g / ((1 - t)(1 - u v t)) specialized for
    the mode; every power is taken after the specialization (``_power``)."""
    if ell < 0:
        raise ValueError("number of markings must be non-negative")
    t, u, v = (MultiPoly.var(name) for name in "tuv")
    substitution = SPECIALIZATIONS[mode.kind]
    zeta_num = ((ONE - u * t) * (ONE - v * t)).specialize(substitution)
    zeta_den = ((ONE - t) * (ONE - u * v * t)).specialize(substitution)
    return TruncSeries.from_rational(
        _power(zeta_num, mode.g, order) * _power(num, ell, order),
        zeta_den * _power(den, ell, order),
        order,
    )


def closed_form(mode: ZetaMode, ell: int, order: int) -> TruncSeries:
    """Truncated generating function of the relative-moduli classes."""
    t, lam = MultiPoly.var("t"), affine_line_class(mode)
    return _series(mode, ell, order, (ONE - lam * t) * (ONE - t), ONE - (lam + 1) * t)


@lru_cache(maxsize=None)
def compositions(total: int) -> Tuple[Composition, ...]:
    """All compositions of total, by length then entries: those of k parts
    are the weak compositions of total - k into k parts, each part plus 1."""
    return tuple(
        tuple(x + 1 for x in e)
        for k in range(total + 1)
        for e in reversed(monomial_exponents(k, total - k))
    )


def _check_sizes(n: int, ell: int) -> None:
    if n < 0 or ell < 1:
        raise ValueError("need n >= 0 and at least one marking")


def enumerate_profiles(n: int, ell: int) -> List[StratumProfile]:
    """All stratum profiles of total length n for ell markings: interior
    length m from n down, then the ell bubble totals in lexicographic order."""
    _check_sizes(n, ell)
    return [
        StratumProfile(m, nu)
        for m in range(n, -1, -1)
        for totals in reversed(monomial_exponents(ell, n - m))
        for nu in product(*map(compositions, totals))
    ]


def profile_count(n: int, ell: int) -> int:
    """``len(enumerate_profiles(n, ell))``, without enumerating.

    The coefficient of t^n in ((1-t)/(1-2t))^ell / (1-t): a profile leaves
    m points in the interior, and its ell compositions of the other k = n - m
    join into one composition of k into p parts, cut into ell runs.
    """
    _check_sizes(n, ell)
    return 1 + sum(
        comb(k - 1, p - 1) * comb(p + ell - 1, p)
        for k in range(1, n + 1)
        for p in range(1, k + 1)
    )


def interior_sym_coefficients(mode: ZetaMode, ell: int, order: int) -> List[MultiPoly]:
    """Classes of symmetric powers of the curve minus the markings.

    Read from the series identity Z_{C minus D}(t) = Z_C(t) * (1-t)^ell.
    """
    return list(_series(mode, ell, order, ONE - MultiPoly.var("t"), ONE).coeffs)


def strata_classes(
    n: int, ell: int, mode: ZetaMode, profiles: Iterable[StratumProfile]
) -> Iterator[Tuple[StratumProfile, MultiPoly]]:
    """Each profile, of total length at most n, in order, with its class.

    The interior series and the powers of L are expanded once, to order n.
    """
    interior = interior_sym_coefficients(mode, ell, n)
    lam = affine_line_class(mode)
    lam_powers = [lam ** k for k in range(n)]
    for profile in profiles:
        if len(profile.nu) != ell:
            raise ProfileError("profile does not match the number of markings")
        cls = interior[profile.m]
        for comp in profile.nu:
            for part in comp:
                cls = cls * lam_powers[part - 1]
        yield profile, cls


def stratum_class(profile: StratumProfile, mode: ZetaMode) -> MultiPoly:
    """Grothendieck-ring class of one locally closed stratum (ell = len(nu))."""
    return next(strata_classes(profile.total, len(profile.nu), mode, [profile]))[1]


def strata_sum(n: int, ell: int, mode: ZetaMode) -> MultiPoly:
    """Brute-force class of the relative moduli space: sum over all strata."""
    classes = strata_classes(n, ell, mode, enumerate_profiles(n, ell))
    return MultiPoly.sum(cls for _, cls in classes)


def parse_profile(text: str) -> StratumProfile:
    """Parse the CLI profile syntax ``m;(a,b,...);();(c)``."""
    pieces = text.split(";")
    try:
        m = int(pieces[0])
    except ValueError as exc:
        raise ProfileError(f"bad interior length {pieces[0]!r}") from exc
    nu = []
    for piece in pieces[1:]:
        piece = piece.strip()
        if not (piece.startswith("(") and piece.endswith(")")):
            raise ProfileError(f"bad composition {piece!r}")
        inner = piece[1:-1].strip()
        if not inner:
            nu.append(())
            continue
        try:
            nu.append(tuple(int(x) for x in inner.split(",")))
        except ValueError as exc:
            raise ProfileError(f"bad composition {piece!r}") from exc
    return StratumProfile(m, tuple(nu))
