"""Tests for exact sparse polynomials and truncated power series."""

import pytest
from hypothesis import given, settings, strategies as st

from loghilb.poly import (
    MultiPoly,
    NonUnitDenominatorError,
    TruncSeries,
    ONE,
    ZERO,
)


def test_constants_and_vars():
    assert MultiPoly.const(0) == ZERO
    assert MultiPoly.const(1) == ONE
    x = MultiPoly.var("x")
    assert x.degree() == 1
    assert (x - x) == ZERO
    assert ZERO.vars == ()


def test_constants_hash_like_ints():
    # equal values must hash equally, or sets and dicts keep both
    assert len({MultiPoly.const(1), 1}) == 1
    assert len({MultiPoly.const(0), 0}) == 1
    assert len({ZERO, MultiPoly.var("x") - MultiPoly.var("x"), 0}) == 1
    assert hash(MultiPoly.const(-7)) == hash(-7)
    assert {MultiPoly.const(3): "a"}[3] == "a"


def test_canonical_form_drops_zero_terms_and_unused_vars():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * y - x * y + x
    assert p == x
    assert p.vars == ("x",)


def test_variables_sorted():
    p = MultiPoly.var("b") + MultiPoly.var("a")
    assert p.vars == ("a", "b")


def test_arithmetic_and_powers():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert x ** 0 == ONE


def test_scalar_multiplication_and_negation():
    x = MultiPoly.var("x")
    assert 3 * x == x + x + x
    assert -(x - 1) == 1 - x


def test_specialize():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x ** 2 + y
    assert p.specialize({"x": 2, "y": 3}) == MultiPoly.const(7)
    assert p.specialize({"x": y, "y": ZERO}) == y ** 2
    with pytest.raises(KeyError):
        p.specialize({"x": 1})


def test_rename_injective():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert (x + y).rename({"x": "z"}) == MultiPoly.var("z") + y
    with pytest.raises(ValueError):
        (x + y).rename({"x": "y"})


def test_coefficients_in():
    x, t = MultiPoly.var("x"), MultiPoly.var("t")
    p = x * t ** 2 + 3 * t ** 2 + x - 5
    coeffs = p.coefficients_in("t")
    assert coeffs[2] == x + 3
    assert coeffs[0] == x - 5


def test_sorted_terms_graded_lex():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x + y ** 2 + x * y + 1
    degrees = [sum(e) for e, _ in p.sorted_terms()]
    assert degrees == sorted(degrees, reverse=True)


def test_to_string_deterministic():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = 2 * x ** 2 - y + 1
    assert p.to_string() == (2 * x ** 2 - y + 1).to_string()
    assert ZERO.to_string() == "0"


def test_homogeneity_and_degree():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert (x * y + x ** 2).is_homogeneous()
    assert not (x + 1).is_homogeneous()
    assert (x * y).degree() == 2


small_polys = st.builds(
    lambda terms: sum(
        (
            c * MultiPoly.var("x") ** a * MultiPoly.var("y") ** b
            for (c, a, b) in terms
        ),
        ZERO,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_canonical_form_has_no_zero_coefficients(p):
    assert all(c != 0 for c in p.terms.values())
    used = set()
    for exp in p.terms:
        for v, e in zip(p.vars, exp):
            if e:
                used.add(v)
    assert used == set(p.vars)


def test_series_from_poly_and_truncation():
    t = MultiPoly.var("t")
    s = TruncSeries.from_poly(1 + t + t ** 2, 1)
    assert s.coeffs == (ONE, ONE)


def test_series_geometric_expansion():
    t = MultiPoly.var("t")
    s = TruncSeries.from_rational(ONE, 1 - 2 * t, 5)
    assert [c.terms.get((), 0) for c in s.coeffs] == [1, 2, 4, 8, 16, 32]


def test_series_rational_with_polynomial_coefficients():
    t, L = MultiPoly.var("t"), MultiPoly.var("L")
    s = TruncSeries.from_rational(ONE, 1 - (L + 1) * t, 3)
    assert s.coeffs[2] == (L + 1) ** 2
    assert s.coeffs[3] == (L + 1) ** 3


def test_series_requires_unit_constant_term():
    t = MultiPoly.var("t")
    with pytest.raises(NonUnitDenominatorError):
        TruncSeries.from_rational(ONE, 2 - t, 3)
    with pytest.raises(NonUnitDenominatorError):
        TruncSeries.from_rational(ONE, t, 3)


def test_series_negative_unit_denominator():
    t = MultiPoly.var("t")
    s = TruncSeries.from_rational(ONE, -1 + t, 3)
    assert [c.terms.get((), 0) for c in s.coeffs] == [-1, -1, -1, -1]


def test_series_product():
    t = MultiPoly.var("t")
    a = TruncSeries.from_rational(ONE, 1 - t, 4)
    b = TruncSeries.from_poly(1 - t, 4)
    assert (a * b).coeffs == TruncSeries.from_poly(ONE, 4).coeffs


def test_series_expansion_consistency():
    # (1-t)(1-Lt)/(1-(L+1)t) expanded two ways
    t, L = MultiPoly.var("t"), MultiPoly.var("L")
    num = (1 - t) * (1 - L * t)
    den = 1 - (L + 1) * t
    s = TruncSeries.from_rational(num, den, 6)
    back = s * TruncSeries.from_poly(den, 6)
    expected = TruncSeries.from_poly(num, 6)
    assert back.coeffs == expected.coeffs
