"""Tests for the stratification oracle and generating functions."""

from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from loghilb.poly import MultiPoly, TruncSeries, monomial_exponents
from loghilb.strata import (
    MOTIVIC_P1,
    ProfileError,
    StratumProfile,
    ZetaMode,
    affine_line_class,
    closed_form,
    compositions,
    enumerate_profiles,
    interior_sym_coefficients,
    parse_profile,
    profile_count,
    strata_classes,
    strata_sum,
    stratum_class,
)


def test_profile_validation():
    with pytest.raises(ProfileError):
        StratumProfile(-1, ())
    with pytest.raises(ProfileError):
        StratumProfile(0, ((0,),))
    with pytest.raises(ProfileError):
        StratumProfile(m=-2, nu=((1,),))
    with pytest.raises(ProfileError):
        StratumProfile(1, ((1, 2), (), (3, -1)))
    p = StratumProfile(2, ((1, 2), (), (3,)))
    assert p.total == 8
    assert p.codimension == 3


def test_profile_is_an_immutable_value():
    p = StratumProfile(2, ((1, 2), (), (3,)))
    assert p == StratumProfile(m=2, nu=((1, 2), (), (3,)))
    assert hash(p) == hash(StratumProfile(2, ((1, 2), (), (3,))))
    assert repr(p) == "StratumProfile(m=2, nu=((1, 2), (), (3,)))"
    assert str(p) == "2;(1,2);();(3)"
    with pytest.raises(AttributeError):
        p.m = 3


def test_profile_keeps_the_value_contract():
    with pytest.raises(ProfileError) as caught:
        StratumProfile(-1, ())
    assert str(caught.value) == "interior length must be non-negative"
    with pytest.raises(ProfileError) as caught:
        StratumProfile(nu=((2,), (0,)), m=1)
    assert str(caught.value) == "every bubble must support positive length"
    p = StratumProfile(nu=((1, 2),), m=2)
    assert p == (2, ((1, 2),)) and p.total == 5
    q = p._replace(m=0)
    assert type(q) is StratumProfile and q == StratumProfile(0, ((1, 2),))


def test_profile_str_and_parse_roundtrip():
    for text in ("3", "1;(1,2);();(1)", "0;(2)", "2;();()"):
        p = parse_profile(text)
        assert parse_profile(str(p)) == p


def test_parse_profile_errors():
    with pytest.raises(ProfileError):
        parse_profile("x;(1)")
    with pytest.raises(ProfileError):
        parse_profile("1;[1]")
    with pytest.raises(ProfileError):
        parse_profile("1;(a)")


def test_zeta_mode_validation():
    with pytest.raises(ValueError):
        ZetaMode("unknown")
    with pytest.raises(ValueError):
        ZetaMode("motivic-p1", 1)
    with pytest.raises(ValueError):
        ZetaMode("euler", -1)
    with pytest.raises(ValueError):
        ZetaMode(kind="hodge", g=-1)
    with pytest.raises(ValueError):
        ZetaMode(kind="motivic-p1", g=2)
    assert ZetaMode("hodge", 2).g == 2
    assert ZetaMode("motivic-p1") == MOTIVIC_P1 == ZetaMode(kind="motivic-p1", g=0)
    assert hash(ZetaMode("hodge")) == hash(ZetaMode("hodge", 0))
    assert repr(MOTIVIC_P1) == "ZetaMode(kind='motivic-p1', g=0)"


def test_compositions():
    assert compositions(0) == ((),)
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}
    assert len(compositions(5)) == 16  # 2^(5-1)


def test_enumerate_profiles_counts():
    # one marking: sum over m of 2^(n-m-1) compositions, plus the open one
    profiles = enumerate_profiles(3, 1)
    assert len(profiles) == 1 + 1 + 2 + 4
    assert len({str(p) for p in profiles}) == len(profiles)
    assert all(p.total == 3 for p in profiles)


def recursive_compositions(total):
    """The recursive enumeration ``compositions`` replaced: first part
    ascending, then sorted by length and entries."""
    if total == 0:
        return [()]
    out = [
        (first,) + rest
        for first in range(1, total + 1)
        for rest in recursive_compositions(total - first)
    ]
    return sorted(out, key=lambda c: (len(c), c))


def test_compositions_keep_the_recursive_order():
    for total in range(13):
        assert list(compositions(total)) == recursive_compositions(total)


def recursive_splits(total, parts):
    """The recursive enumeration of profile totals before stars and bars:
    first part ascending, then the rest in the same order."""
    if parts == 1:
        return [(total,)]
    return [
        (a,) + rest
        for a in range(total + 1)
        for rest in recursive_splits(total - a, parts - 1)
    ]


def stars_and_bars(total, parts):
    """The enumeration of profile totals that ``monomial_exponents`` replaced:
    one combination of parts - 1 bar positions among total + parts - 1 slots
    each, in lexicographic order."""
    slots = total + parts - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in combinations(range(slots), parts - 1)
    ]


def test_weak_compositions_keep_the_recursive_order():
    # the profile totals are the exponent vectors of poly, reversed
    for total in range(7):
        for parts in range(1, 7):
            totals = list(reversed(monomial_exponents(parts, total)))
            assert totals == stars_and_bars(total, parts)
            assert totals == recursive_splits(total, parts)
    # no recursion: one part per marking, far past the recursion limit
    wide = list(reversed(monomial_exponents(2000, 1)))
    assert wide == stars_and_bars(1, 2000)
    assert len(wide) == 2000 and wide[0] == (0,) * 1999 + (1,)


def test_profiles_keep_their_order():
    # interior length descending, then totals and compositions as the oracles
    for n, ell in [(n, ell) for n in range(7) for ell in range(1, 5)] + [(1, 600)]:
        expected = [
            StratumProfile(m, nu)
            for m in range(n, -1, -1)
            for totals in stars_and_bars(n - m, ell)
            for nu in product(*(recursive_compositions(k) for k in totals))
        ]
        assert enumerate_profiles(n, ell) == expected


def test_profile_count_counts_without_enumerating():
    for n in range(8):
        for ell in range(1, 5):
            assert profile_count(n, ell) == len(enumerate_profiles(n, ell))
    # the coefficient of t^n in ((1-t)/(1-2t))^ell / (1-t)
    assert [profile_count(n, 3) for n in (12, 14)] == [120832, 618496]
    # both refuse a negative length and a count of markings below one
    refusal = "^need n >= 0 and at least one marking$"
    for n, ell in ((-1, 1), (3, 0), (0, 0), (2, -1)):
        for count in (profile_count, enumerate_profiles):
            with pytest.raises(ValueError, match=refusal):
                count(n, ell)


def test_zeta_series_p1():
    s = closed_form(MOTIVIC_P1, 0, 3)
    L = MultiPoly.var("L")
    # symmetric powers of the projective line are projective spaces
    assert s.coeffs[2] == L ** 2 + L + 1
    assert s.coeffs[3] == L ** 3 + L ** 2 + L + 1


def test_interior_sym_coefficients():
    L = MultiPoly.var("L")
    # the line minus one point is the affine line
    coeffs = interior_sym_coefficients(MOTIVIC_P1, 1, 3)
    assert coeffs[1] == L
    assert coeffs[2] == L ** 2
    # minus two points
    coeffs = interior_sym_coefficients(MOTIVIC_P1, 2, 2)
    assert coeffs[1] == L - 1


@pytest.mark.parametrize(
    "mode",
    [MOTIVIC_P1, ZetaMode("hodge", 1), ZetaMode("poincare", 2), ZetaMode("euler", 2)],
    ids=str,
)
def test_closed_form_is_the_interior_series_times_bubble_chains(mode):
    # B(t) = (1 - L t) / (1 - (L+1) t) = 1 + t + (L+1) t^2 + (L+1)^2 t^3 + ...
    top = 8
    lam = stated_affine_line_class(mode)
    bubbles = [MultiPoly.const(1)] + [(lam + 1) ** (k - 1) for k in range(1, top + 1)]
    for ell in range(4):
        expected = interior_sym_coefficients(mode, ell, top)
        for _ in range(ell):
            expected = [
                MultiPoly.sum(expected[i] * bubbles[k - i] for i in range(k + 1))
                for k in range(top + 1)
            ]
        for order in range(top + 1):
            assert list(closed_form(mode, ell, order).coeffs) == expected[: order + 1]


@pytest.mark.parametrize("series", [closed_form, interior_sym_coefficients])
def test_series_refuse_a_negative_number_of_markings(series):
    with pytest.raises(ValueError, match="markings"):
        series(MOTIVIC_P1, -1, 3)


def test_stratum_class_codimension_weight():
    L = MultiPoly.var("L")
    p = StratumProfile(0, ((2,),))
    assert stratum_class(p, MOTIVIC_P1) == L
    p = StratumProfile(0, ((1, 1),))
    assert stratum_class(p, MOTIVIC_P1) == MultiPoly.const(1)


@lru_cache(maxsize=None)
def interior_class(mode, ell, m):
    return interior_sym_coefficients(mode, ell, m)[m]


def per_profile_class(profile, mode, ell):
    """The class of one stratum, with the interior series expanded to its m."""
    cls = interior_class(mode, ell, profile.m)
    for comp in profile.nu:
        for part in comp:
            cls = cls * affine_line_class(mode) ** (part - 1)
    return cls


@pytest.mark.parametrize(
    "mode",
    (MOTIVIC_P1, ZetaMode("hodge", 1), ZetaMode("poincare", 2), ZetaMode("euler", 2)),
    ids=str,
)
def test_strata_classes_match_per_profile_oracle(mode):
    for ell in (1, 2, 3):
        for n in range(7):
            profiles = enumerate_profiles(n, ell)
            pairs = list(strata_classes(n, ell, mode, profiles))
            assert [p for p, _ in pairs] == profiles
            for profile, cls in pairs:
                expected = per_profile_class(profile, mode, ell)
                assert cls == expected
                assert stratum_class(profile, mode) == expected


def test_strata_classes_keep_input_order_and_check_markings():
    profiles = [parse_profile(t) for t in ("0;(2);(1)", "3;();()", "1;(1,1);()")]
    pairs = list(strata_classes(3, 2, MOTIVIC_P1, profiles[::-1]))
    assert [p for p, _ in pairs] == profiles[::-1]
    L = MultiPoly.var("L")
    assert [cls for _, cls in pairs] == [L - 1, L ** 3 - L ** 2, L]
    mismatched = profiles[:1] + [parse_profile("1;(1,1)")]
    classes = strata_classes(3, 2, MOTIVIC_P1, mismatched)
    assert next(classes)[0] == profiles[0]
    with pytest.raises(ProfileError, match="number of markings"):
        next(classes)


def test_strata_sum_adds_no_polynomial_per_profile(monkeypatch):
    calls = []
    add = MultiPoly.__add__

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    expected = closed_form(MOTIVIC_P1, 2, 6).coeffs[6]
    monkeypatch.setattr(MultiPoly, "__add__", counted)
    interior_sym_coefficients(MOTIVIC_P1, 2, 6)
    expansion = len(calls)
    calls.clear()
    # the classes of the 256 profiles go into one streaming sum: every
    # __add__ call left is a subtraction of the interior series' expansion
    assert strata_sum(6, 2, MOTIVIC_P1) == expected
    assert len(calls) == expansion


@pytest.mark.parametrize("ell", (1, 2, 3))
def test_strata_sum_matches_closed_form(ell):
    series = closed_form(MOTIVIC_P1, ell, 10)
    for n in range(11):
        assert strata_sum(n, ell, MOTIVIC_P1) == series.coeffs[n]


@pytest.mark.parametrize("g", (0, 1, 2, 3))
def test_strata_sum_euler_all_genera(g):
    mode = ZetaMode("euler", g)
    for ell in (1, 2, 3):
        series = closed_form(mode, ell, 8)
        for n in range(9):
            assert strata_sum(n, ell, mode) == series.coeffs[n]


def test_single_marking_series_is_geometric():
    L = MultiPoly.var("L")
    series = closed_form(MOTIVIC_P1, 1, 6)
    for n in range(7):
        assert series.coeffs[n] == (L + 1) ** n


def test_two_marking_series_first_coefficients():
    L = MultiPoly.var("L")
    series = closed_form(MOTIVIC_P1, 2, 3)
    assert series.coeffs[1] == L + 1
    assert series.coeffs[2] == L ** 2 + 3 * L + 1


def test_euler_series_examples():
    series = closed_form(ZetaMode("euler", 1), 1, 4)
    assert [c.constant_term() for c in series.coeffs] == [1, 0, 1, 2, 4]
    series = closed_form(ZetaMode("euler", 0), 2, 3)
    assert [c.constant_term() for c in series.coeffs] == [1, 2, 5, 12]


def test_specializations_of_motivic_series():
    u, v, x = MultiPoly.var("u"), MultiPoly.var("v"), MultiPoly.var("x")
    subs = {"hodge": u * v, "poincare": x ** 2, "euler": MultiPoly.const(1)}
    for ell in (1, 2):
        motivic = closed_form(MOTIVIC_P1, ell, 8)
        for kind, image in subs.items():
            target = closed_form(ZetaMode(kind, 0), ell, 8)
            for n in range(9):
                coeff = motivic.coeffs[n]
                sub = {var: image if var == "L" else MultiPoly.var(var) for var in coeff.vars}
                assert coeff.specialize(sub) == target.coeffs[n]


def stated_affine_line_class(mode):
    """[A^1] as each mode states it by hand: the oracle for the Macdonald table."""
    if mode.kind == "motivic-p1":
        return MultiPoly.var("L")
    if mode.kind == "hodge":
        return MultiPoly.var("u") * MultiPoly.var("v")
    if mode.kind == "poincare":
        return MultiPoly.var("x") ** 2
    return MultiPoly.const(1)


def stated_zeta_num_den(mode):
    """Z_C(t) as each mode states it by hand, the Euler one reduced to a
    power of (1 - t) above or below the line by the sign of 2g - 2."""
    t, one = MultiPoly.var("t"), MultiPoly.const(1)
    if mode.kind == "euler":
        e = 2 * mode.g - 2
        return ((one - t) ** e, one) if e >= 0 else (one, (one - t) ** -e)
    if mode.kind == "motivic-p1":
        num = one
    elif mode.kind == "hodge":
        u, v = MultiPoly.var("u"), MultiPoly.var("v")
        num = ((one - u * t) * (one - v * t)) ** mode.g
    else:
        num = (one - MultiPoly.var("x") * t) ** (2 * mode.g)
    return num, (one - t) * (one - stated_affine_line_class(mode) * t)


MODES_UP_TO_GENUS_3 = [MOTIVIC_P1] + [
    ZetaMode(kind, g) for kind in ("hodge", "poincare", "euler") for g in range(4)
]


# exponents far above the order read: g = 8, 12 and ell = 6, to order 4
LARGE_EXPONENTS = [
    pytest.param(ZetaMode(kind, g), (6,), 4, id=f"{ZetaMode(kind, g)}-ell6-order4")
    for kind in ("hodge", "poincare", "euler")
    for g in (8, 12)
]


@pytest.mark.parametrize(
    "mode, ells, max_order",
    [pytest.param(mode, range(4), 10, id=str(mode)) for mode in MODES_UP_TO_GENUS_3]
    + LARGE_EXPONENTS,
)
def test_macdonald_table_matches_the_stated_formulas(mode, ells, max_order):
    t, one = MultiPoly.var("t"), MultiPoly.const(1)
    lam = stated_affine_line_class(mode)
    assert affine_line_class(mode) == lam
    num, den = stated_zeta_num_den(mode)
    for ell in ells:
        closed = (
            num * ((one - lam * t) * (one - t)) ** ell,
            den * (one - (lam + 1) * t) ** ell,
        )
        interior = (num * (one - t) ** ell, den)
        for order in range(max_order + 1):
            expected = TruncSeries.from_rational(*closed, order).coeffs
            assert closed_form(mode, ell, order).coeffs == expected
            expected = list(TruncSeries.from_rational(*interior, order).coeffs)
            assert interior_sym_coefficients(mode, ell, order) == expected


def test_hodge_genus_two_symmetric_square():
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    s = closed_form(ZetaMode("hodge", 2), 0, 2)
    # signed Hodge-Deligne polynomial of a genus-2 curve
    assert s.coeffs[1] == 1 - 2 * u - 2 * v + u * v
    # its Euler specialization u = v = 1 is 2 - 2g = -2
    assert s.coeffs[1].specialize({"u": 1, "v": 1}).constant_term() == -2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=2))
def test_profiles_partition_total_class(n, ell):
    # every stratum contributes once; the sum telescopes to the series
    total = strata_sum(n, ell, MOTIVIC_P1)
    assert total == closed_form(MOTIVIC_P1, ell, n).coeffs[n]
