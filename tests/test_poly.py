"""Tests for exact sparse polynomials and truncated power series."""

import operator
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from loghilb import poly
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
    ``MultiPoly`` products and powers, and added up one term at a time; a
    variable the map does not name stays as it is."""
    subs = [MultiPoly._coerce(substitution.get(v, MultiPoly.var(v))) for v in p.vars]
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


def test_power_makes_no_spare_products(monkeypatch):
    L = MultiPoly.var("L")
    calls = []
    times = poly._times

    def counted(a, b):
        calls.append(1)
        return times(a, b)

    monkeypatch.setattr(poly, "_times", counted)
    assert L ** 0 == 1
    assert calls == []
    # square-and-multiply: no product by 1, and no square after the top bit
    for k, products in ((1, 0), (2, 1), (8, 3)):
        calls.clear()
        assert L ** k == MultiPoly(("L",), {(k,): 1})
        assert len(calls) == products


def test_scalar_multiplication_and_negation():
    x = MultiPoly.var("x")
    assert 3 * x == x + x + x
    assert -(x - 1) == 1 - x


def test_specialize():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x ** 2 + y
    assert p.specialize({"x": 2, "y": 3}) == MultiPoly.const(7)
    assert p.specialize({"x": y, "y": ZERO}) == y ** 2
    # a variable the map does not name stays
    assert p.specialize({"x": 1}) == 1 + y
    # a map that names no variable gives back an equal polynomial
    assert p.specialize({"z": 5}) == p
    assert p.specialize({}) == p


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
    expected = specialize_term_by_term(p, images)
    result = p.specialize(images)
    assert result == expected
    assert result.vars == expected.vars
    assert all(c != 0 for c in result.terms.values())


@settings(max_examples=80, deadline=None)
@given(
    sparse_polys(3, 5),
    st.permutations(VARIABLES + ("d", "z")),
    st.integers(min_value=0, max_value=2),
)
def test_embedded_round_trips(p, order, extra):
    # any variable list that contains p.vars, in any order, with extra names
    order = tuple(v for v in order if v in p.vars or v in ("d", "z")[:extra])
    terms = p.embedded(order)
    assert all(len(exp) == len(order) for exp in terms)
    assert MultiPoly(order, terms) == p


def product_by_names(p: MultiPoly, q: MultiPoly):
    """Oracle for ``MultiPoly.__mul__``: a double loop over the terms, with
    each monomial kept as a map {variable: exponent}."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            mono = dict(zip(p.vars, e1))
            for v, e in zip(q.vars, e2):
                mono[v] = mono.get(v, 0) + e
            key = frozenset((v, e) for v, e in mono.items() if e)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def by_names(p: MultiPoly):
    return {frozenset((v, e) for v, e in zip(p.vars, exp) if e): c
            for exp, c in p.terms.items()}


def polys_over_some_variables(max_exponent, max_terms):
    """Polynomials over a random subset of ``VARIABLES`` plus ``z``."""
    return st.lists(st.sampled_from(VARIABLES + ("z",)), unique=True).flatmap(
        lambda names: st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=max_exponent)] * len(names)),
            st.integers(min_value=-5, max_value=5),
            max_size=max_terms,
        ).map(lambda terms: MultiPoly(names, terms))
    )


@settings(max_examples=80, deadline=None)
@given(polys_over_some_variables(3, 5), polys_over_some_variables(2, 5))
def test_product_matches_double_loop(p, q):
    assert by_names(p * q) == product_by_names(p, q)
    assert by_names(q * p) == product_by_names(p, q)


@settings(max_examples=60, deadline=None)
@given(polys_over_some_variables(2, 3), st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_product(p, k):
    assert p ** k == reduce(operator.mul, [p] * k, ONE)


def sum_by_names(p: MultiPoly, q: MultiPoly):
    """Oracle for ``MultiPoly.__add__``: the terms of both, each monomial kept
    as a set of (variable, exponent) pairs, added one term at a time."""
    out = by_names(p)
    for key, c in by_names(q).items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@settings(max_examples=100, deadline=None)
@given(polys_over_some_variables(3, 5), polys_over_some_variables(3, 5), st.data())
def test_addition_matches_term_by_term(p, q, data):
    # overlapping and disjoint variable lists come from the draws; q takes
    # the negatives of a drawn share of p's terms, so sums cancel, some to zero
    merged = tuple(sorted(set(p.vars) | set(q.vars)))
    terms = q.embedded(merged)
    for exp, c in p.embedded(merged).items():
        if data.draw(st.booleans()):
            terms[exp] = -c
    q = MultiPoly(merged, terms)
    expected = sum_by_names(p, q)
    for total in (p + q, q + p, p - (-q)):
        assert by_names(total) == expected
        assert total.vars == tuple(sorted({v for key in expected for v, _ in key}))
        assert all(c != 0 for c in total.terms.values())
    assert p + (-p) == ZERO and (p + (-p)).vars == ()
    assert by_names(p + 3) == sum_by_names(p, MultiPoly.const(3))
    assert by_names(3 + p) == sum_by_names(p, MultiPoly.const(3))


sum_items = st.one_of(polys_over_some_variables(2, 4), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(st.lists(sum_items, max_size=8), st.lists(st.integers(0, 7), max_size=4))
def test_streaming_sum_matches_repeated_addition(polys, negated):
    # the negatives of some items are appended, so some terms cancel
    polys = polys + [-MultiPoly._coerce(polys[i]) for i in negated if i < len(polys)]
    expected = reduce(operator.add, polys, ZERO)
    result = MultiPoly.sum(p for p in polys)
    assert result == expected
    assert result.vars == expected.vars
    assert all(c != 0 for c in result.terms.values())


def test_streaming_sum_edge_cases():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert MultiPoly.sum([]) == ZERO and MultiPoly.sum([]).vars == ()
    # constants, with vars == (), before and after the variables appear
    assert MultiPoly.sum([MultiPoly.const(3), y, 2, x, -5]) == x + y
    # terms that cancel to zero prune their variables
    cancelled = MultiPoly.sum([x * y, ONE, x, -(x * y), -x])
    assert cancelled == ONE and cancelled.vars == ()
    assert MultiPoly.sum([x, -x]).vars == ()


def test_streaming_sum_reads_a_one_shot_generator_once():
    x = MultiPoly.var("x")
    seen = []

    def items():
        for k in range(5):
            seen.append(k)
            yield x ** k

    gen = items()
    assert MultiPoly.sum(gen) == sum((x ** k for k in range(5)), ZERO)
    assert seen == [0, 1, 2, 3, 4]
    assert next(gen, None) is None


def canonicalize_by_pruning(variables, terms):
    """Oracle for ``poly._canonicalize``: drop zero coefficients, prune the
    unused variables, sort the rest and re-index every exponent, whatever the
    input; the fast path for canonical input is left out."""
    clean = {exp: c for exp, c in terms.items() if c != 0}
    if not clean:
        return (), {}
    kept = [i for i in range(len(variables)) if any(exp[i] != 0 for exp in clean)]
    reindex = sorted(kept, key=lambda i: variables[i])
    return (
        tuple(variables[i] for i in reindex),
        {tuple(exp[i] for i in reindex): c for exp, c in clean.items()},
    )


@st.composite
def raw_term_maps(draw):
    """A variable list, sorted or not, with a term map over it that may have
    zero coefficients and variables that occur in no term."""
    names = draw(st.lists(st.sampled_from(VARIABLES + ("z",)), unique=True, max_size=4))
    if draw(st.booleans()):
        names.sort()
    unused = draw(st.sets(st.integers(0, len(names) - 1))) if names else set()
    exponents = st.tuples(
        *[st.just(0) if i in unused else st.integers(0, 2) for i in range(len(names))]
    )
    terms = draw(st.dictionaries(exponents, st.integers(-2, 2), max_size=6))
    return tuple(names), terms


@settings(max_examples=300, deadline=None)
@given(raw_term_maps())
def test_canonicalize_matches_the_pruning_path(raw):
    variables, terms = raw
    names, result = poly._canonicalize(variables, terms)
    want_names, want = canonicalize_by_pruning(variables, terms)
    assert names == want_names
    # the same terms in the same order, so every printed form is unchanged
    assert list(result.items()) == list(want.items())
    assert result is not terms
