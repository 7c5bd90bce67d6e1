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


def series_from_poly(p: MultiPoly, order: int) -> TruncSeries:
    """The polynomial p in ``t``, truncated at the given order."""
    by_power = p.coefficients_in("t")
    return TruncSeries(order, [by_power.get(k, ZERO) for k in range(order + 1)])


def series_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The product of two truncated series, at the smaller order."""
    order = min(a.order, b.order)
    coeffs = []
    for k in range(order + 1):
        acc = ZERO
        for i in range(k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        coeffs.append(acc)
    return TruncSeries(order, coeffs)


def specialize_term_by_term(p: MultiPoly, substitution) -> MultiPoly:
    """Oracle for ``MultiPoly.specialize``: each term's image built with
    ``MultiPoly`` products and powers, and added up one term at a time."""
    missing = [v for v in p.vars if v not in substitution]
    if missing:
        raise KeyError(f"no substitution for variables {missing}")
    subs = [MultiPoly._coerce(substitution[v]) for v in p.vars]
    total = MultiPoly.const(0)
    for exp, c in p.terms.items():
        term = MultiPoly.const(c)
        for s, e in zip(subs, exp):
            if e:
                term = term * (s ** e)
        total = total + term
    return total


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


def test_specialize_to_constants_and_zero():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert ZERO.specialize({}) == ZERO
    assert MultiPoly.const(5).specialize({}) == MultiPoly.const(5)
    assert (x * y).specialize({"x": ZERO, "y": y}) == ZERO
    assert (x - y).specialize({"x": y, "y": y}) == ZERO
    assert (x * y).specialize({"x": y, "y": x}) == x * y


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
    s = series_from_poly(1 + t + t ** 2, 1)
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
    b = series_from_poly(1 - t, 4)
    assert series_product(a, b).coeffs == series_from_poly(ONE, 4).coeffs


def test_series_expansion_consistency():
    # (1-t)(1-Lt)/(1-(L+1)t) expanded two ways
    t, L = MultiPoly.var("t"), MultiPoly.var("L")
    num = (1 - t) * (1 - L * t)
    den = 1 - (L + 1) * t
    s = TruncSeries.from_rational(num, den, 6)
    back = series_product(s, series_from_poly(den, 6))
    expected = series_from_poly(num, 6)
    assert back.coeffs == expected.coeffs


VARIABLES = ("a", "b", "c", "x", "y")


def sparse_polys(max_exponent, max_terms):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=max_exponent)] * len(VARIABLES)),
        st.integers(min_value=-5, max_value=5),
        max_size=max_terms,
    ).map(lambda terms: MultiPoly(VARIABLES, terms))


@settings(max_examples=80, deadline=None)
@given(
    sparse_polys(3, 5),
    st.dictionaries(st.sampled_from(VARIABLES), sparse_polys(1, 3)),
)
def test_specialize_matches_term_by_term(p, images):
    # variables without an image keep their own name
    substitution = {v: images.get(v, MultiPoly.var(v)) for v in p.vars}
    expected = specialize_term_by_term(p, substitution)
    result = p.specialize(substitution)
    assert result == expected
    assert result.vars == expected.vars
    assert all(c != 0 for c in result.terms.values())
