"""Tests for the Chow-ring presentations and their graded groups."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from loghilb import chow, linalg
from loghilb.chow import (
    BaseRing,
    GradedPiece,
    GradedPresentation,
    PresentationError,
    _relation_rows,
    _solved,
    compare_presentations,
    eps_name,
    graded_group,
    graded_groups,
    ideal_member,
    ideals_equal,
    iterated_keel,
    keel_step,
    minimal_nonfaces,
    q_polynomial,
    sr_generator_map,
    sr_presentation,
    stratum_cycle_class,
    thmD_presentation,
)
from loghilb.fan import FanError, fan_motive, hilb_fan
from loghilb.linalg import in_row_span_z, invariant_factors
from loghilb.poly import MultiPoly, ZERO
from loghilb.strata import parse_profile

H = MultiPoly.var("H")
TAU = MultiPoly.var("tau")


def eps(j, r=1):
    return MultiPoly.var(eps_name(j, r))


def rho(j):
    return MultiPoly.var(f"rho_{j}")


def sigma(j):
    return MultiPoly.var(f"sigma_{j}")


# ---------------------------------------------------------------------------
# Q-polynomials


def test_q_formally_zero():
    assert q_polynomial(0, 3, "t") == ZERO
    assert q_polynomial(0, 0, "t") == ZERO


def test_base_ring_validation():
    with pytest.raises(PresentationError):
        BaseRing("bogus")
    with pytest.raises(PresentationError):
        BaseRing(kind="p1", n=2)
    assert BaseRing.p1(3) == BaseRing("trunc_hyperplane", n=3)
    assert BaseRing.p1(3) != BaseRing.p1(4)
    assert repr(BaseRing.integers()) == (
        "BaseRing(kind='integers', n=0, markings=1)"
    )


def test_presentation_validation():
    with pytest.raises(PresentationError, match="duplicate"):
        GradedPresentation(BaseRing.integers(), ("x", "x"), (), 1)
    with pytest.raises(PresentationError, match="clashes"):
        GradedPresentation(BaseRing.p1(2), ("e", "H"), (), 2)
    with pytest.raises(PresentationError, match="clashes"):
        GradedPresentation(
            base=BaseRing.p1(2), generators=("H",), relations=(), top_degree=2
        )
    # H is an ordinary generator name over Z
    assert GradedPresentation(BaseRing.integers(), ("H",), (), 1).generators == ("H",)
    pres = GradedPresentation(BaseRing.p1(2), ("e",), (H * MultiPoly.var("e"),), 2)
    with pytest.raises(AttributeError):
        pres.top_degree = 3


def test_graded_piece_is_a_value():
    piece = GradedPiece(2, 3)
    assert piece.torsion == ()
    assert piece == GradedPiece(degree=2, rank=3, torsion=())
    assert hash(piece) == hash(GradedPiece(2, 3, ()))
    assert repr(piece) == "GradedPiece(degree=2, rank=3, torsion=())"


def test_q_22():
    t, c = MultiPoly.var("t"), MultiPoly.var("H")
    assert q_polynomial(2, 2, "t") == 2 * t ** 2 + 3 * c * t + c ** 2


def test_q_21():
    t, t2, c = MultiPoly.var("t"), MultiPoly.var("t2"), MultiPoly.var("H")
    assert q_polynomial(2, 1, "t", ["t2"]) == t + c - 2 * t2


def test_q_homogeneous():
    for m in range(1, 7):
        for h in range(1, m + 1):
            uppers = [f"u{j}" for j in range(m - h)]
            q = q_polynomial(m, h, "t", uppers)
            assert q.is_homogeneous()
            assert q.degree() == h


def test_q_argument_validation():
    with pytest.raises(PresentationError):
        q_polynomial(2, 3, "t")
    with pytest.raises(PresentationError):
        q_polynomial(3, 1, "t", ["only_one"])


# ---------------------------------------------------------------------------
# Stanley-Reisner presentations


def test_sr_2_1_nonfaces_and_groups():
    fan = hilb_fan(2, 1)
    pres = sr_presentation(fan)
    labels = {
        frozenset(fan.rays[k].label for k in nf) for nf in minimal_nonfaces(fan)
    }
    assert labels == {
        frozenset({"sigma_1", "sigma_2"}),
        frozenset({"tau", "rho_2"}),
    }
    groups = graded_groups(pres)
    assert [g.rank for g in groups] == [1, 2, 1]
    assert all(g.torsion == () for g in groups)


def _expected_monomial_families(fan, n, i):
    """Expected nonface families of the subdivided fans.

    sigma_j * rho_{n-j} while the exceptional ray exists, then the chain
    sigma_{n-i} ... sigma_n with the conventions that index 0 means tau
    and the level-1 exceptional ray coincides with sigma_n.
    """
    def ray(label):
        for k, r in enumerate(fan.rays):
            if r.label == label:
                return k
        raise AssertionError(f"missing ray {label}")

    families = set()
    if i < n:
        families.add(frozenset({ray("tau"), ray(f"rho_{n}")}))
    for j in range(1, n - i):
        families.add(frozenset({ray(f"sigma_{j}"), ray(f"rho_{n - j}")}))
    chain = []
    for j in range(n - i, n + 1):
        if j == 0:
            chain.append(ray("tau"))
        else:
            chain.append(ray(f"sigma_{j}"))
    families.add(frozenset(chain))
    if i == 1 and n >= 2:
        # level-1 ray equals sigma_n, so the j = n-1 pair becomes a chain
        families.add(frozenset({ray(f"sigma_{n - 1}"), ray(f"sigma_{n}")}))
    return families


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_sr_nonfaces_match_expected_families(n):
    for i in range(1, n + 1):
        fan = hilb_fan(n, i)
        computed = {frozenset(nf) for nf in minimal_nonfaces(fan)}
        assert computed == _expected_monomial_families(fan, n, i)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_sr_linear_relations_from_ray_coordinates(n):
    for i in range(1, n + 1):
        fan = hilb_fan(n, i)
        pres = sr_presentation(fan)
        linear = [rel for rel in pres.relations if rel.degree() == 1]
        expected = []
        for j in range(1, n + 1):
            rel = sigma(j) - TAU
            for k in range(max(n - j + 1, i + 1), n + 1):
                rel = rel + (k + j - n) * rho(k)
            expected.append(rel)
        assert {frozenset(r.terms.items()) for r in linear} == {
            frozenset(r.terms.items()) for r in expected
        } or all(ideal_member(pres, r) for r in expected)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_sr_ranks_equal_motive_coefficients(n):
    for i in range(1, n + 1):
        fan = hilb_fan(n, i)
        pres = sr_presentation(fan)
        motive = fan_motive(fan).coefficients_in("L")
        ranks = [g.rank for g in graded_groups(pres)]
        expected = [motive.get(n - k, ZERO).constant_term() for k in range(n + 1)]
        assert ranks == expected


def test_sr_top_degree_nonzero():
    for n, i in [(2, 1), (3, 2), (4, 2), (4, 4)]:
        pres = sr_presentation(hilb_fan(n, i))
        top = graded_group(pres, n)
        assert top.rank + len(top.torsion) > 0


# ---------------------------------------------------------------------------
# blow-up presentations


def test_thmD_top_level_is_symmetric_power():
    pres = thmD_presentation(3, [3], BaseRing.p1(3))
    assert pres.generators == ()
    assert [g.rank for g in graded_groups(pres)] == [1, 1, 1, 1]


def test_thmD_one_step_example():
    # a single blow-up adjoins one generator with two relation families
    pres = thmD_presentation(3, [2], BaseRing.p1(3))
    assert pres.generators == (eps_name(3),)
    e3 = eps(3)
    q33 = (-e3 + H) * (-2 * e3 + H) * (-3 * e3 + H)
    assert any(rel == q33 for rel in pres.relations)
    assert any(rel == H * e3 for rel in pres.relations)


def test_level_zero_equals_level_one():
    base = BaseRing.p1(3)
    a = thmD_presentation(3, [0], base)
    b = thmD_presentation(3, [1], base)
    assert a.generators == b.generators
    assert a.relations == b.relations


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_iterated_keel_matches_direct_presentation(n):
    base = BaseRing.p1(n)
    for i in range(0, n + 1):
        direct = thmD_presentation(n, [i], base)
        stepped = iterated_keel(n, i, base)
        assert set(direct.variables()) == set(stepped.variables())
        assert ideals_equal(direct, stepped)


@pytest.mark.parametrize(
    "n,i",
    [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    + [(5, i) for i in range(1, 6)]
    + [(6, 1)],
)
def test_blowup_presentation_matches_sr(n, i):
    pres = thmD_presentation(n, [i], BaseRing.p1(n))
    sr = sr_presentation(hilb_fan(n, i))
    report = compare_presentations(pres, sr, sr_generator_map(n, i))
    assert report["pass"], report


@pytest.mark.parametrize("n", range(1, 7))
def test_sr_generator_map_matches_both_presentations(n):
    base = BaseRing.p1(n)
    for i in range(n + 1):
        gen_map = sr_generator_map(n, i)
        assert set(gen_map) == set(thmD_presentation(n, [i], base).variables())
        assert set(gen_map) == set(iterated_keel(n, i, base).variables())
        images = {image.to_string() for image in gen_map.values()}
        assert len(images) == len(gen_map)
        assert images <= set(sr_presentation(hilb_fan(n, i)).generators)


def test_out_of_range_level_is_a_fan_error():
    base = BaseRing.p1(3)
    for i in (-1, 4):
        with pytest.raises(FanError, match="stability level"):
            thmD_presentation(3, [i], base)
        with pytest.raises(FanError, match="stability level"):
            thmD_presentation(3, [1, i], BaseRing.symbolic(2))
        with pytest.raises(FanError, match="stability level"):
            iterated_keel(3, i, base)
        with pytest.raises(FanError, match="stability level"):
            sr_generator_map(3, i)
    with pytest.raises(FanError, match="n must be at least 1"):
        thmD_presentation(0, [0], BaseRing.p1(0))


def test_compare_rejects_bad_maps():
    pres = thmD_presentation(3, [1], BaseRing.p1(3))
    sr = sr_presentation(hilb_fan(3, 1))
    good = sr_generator_map(3, 1)
    cases = [
        ({**good, "H": TAU * TAU}, "image of 'H' is not of degree 1"),
        ({**good, "H": MultiPoly.var("bogus")}, "image of 'H' uses unknown variables"),
        (
            {v: p for v, p in good.items() if v != eps_name(3)},
            "no image for variable 'eps3_1' of the source",
        ),
    ]
    for gen_map, message in cases:
        with pytest.raises(PresentationError) as caught:
            compare_presentations(pres, sr, gen_map)
        assert str(caught.value) == message


def test_compare_detects_wrong_map():
    pres = thmD_presentation(3, [1], BaseRing.p1(3))
    sr = sr_presentation(hilb_fan(3, 1))
    bad = sr_generator_map(3, 1)
    bad["H"] = rho(3)
    report = compare_presentations(pres, sr, bad)
    assert not report["pass"]


def test_keel_step_validation():
    base = BaseRing.p1(2)
    pres = GradedPresentation(base, (), (), 2)
    with pytest.raises(PresentationError):
        keel_step(pres, [H + 1], H ** 2, "e")  # inhomogeneous kernel
    stepped = keel_step(pres, [H], q_polynomial(2, 2, "e"), "e")
    with pytest.raises(PresentationError):
        keel_step(stepped, [H], H, "e")  # duplicate generator


def test_symbolic_two_markings_structure():
    base = BaseRing.symbolic(2)
    pres = thmD_presentation(2, [1, 1], base)
    assert set(pres.generators) == {eps_name(2, 1), eps_name(2, 2)}
    # one Q-relation and one kernel relation per marking
    assert len(pres.relations) == 4


def test_ideal_member_basics():
    pres = sr_presentation(hilb_fan(2, 1))
    assert ideal_member(pres, ZERO)
    assert ideal_member(pres, sigma(1) * sigma(2))
    assert not ideal_member(pres, TAU)


def test_graded_group_degree_zero():
    pres = sr_presentation(hilb_fan(3, 2))
    g = graded_group(pres, 0)
    assert g.rank == 1 and g.torsion == ()


# ---------------------------------------------------------------------------
# cycle classes of strata


def test_cycle_class_figure_example():
    profile = parse_profile("1;(1,2);();(1)")
    cls = stratum_cycle_class(profile, 5)
    assert cls == eps(2, 1) * eps(3, 1) * eps(1, 3)
    assert cls.degree() == profile.codimension == 3


def test_cycle_class_single_bubble():
    assert stratum_cycle_class(parse_profile("0;(2)"), 2) == eps(2, 1)
    assert stratum_cycle_class(parse_profile("2;()"), 2) == MultiPoly.const(1)


def test_cycle_class_total_mismatch():
    with pytest.raises(PresentationError):
        stratum_cycle_class(parse_profile("1;(1)"), 5)


# ---------------------------------------------------------------------------
# solved linear relations against the unreduced oracle


@pytest.fixture
def fresh_caches():
    chow._solved.cache_clear()
    chow._reduced.cache_clear()
    yield
    chow._solved.cache_clear()
    chow._reduced.cache_clear()


def test_equal_presentations_hit_the_solved_cache(fresh_caches):
    first = thmD_presentation(4, [1], BaseRing.p1(4))
    second = thmD_presentation(4, [1], BaseRing.p1(4))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    _solved(first)
    before = _solved.cache_info()
    _solved(second)
    after = _solved.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def dense_relation_rows(pres, degree):
    """Monomial basis and the relation matrix of one degree, as dense rows."""
    basis, rows = _relation_rows(pres, degree)
    return basis, [[row.get(j, 0) for j in range(len(basis))] for row in rows]


def oracle_piece(pres, degree):
    """Graded piece from the dense relation matrix, by ``invariant_factors``."""
    basis, rows = dense_relation_rows(pres, degree)
    factors = invariant_factors(rows) if rows else []
    torsion = tuple(f for f in factors if f > 1)
    return GradedPiece(degree, len(basis) - len(factors), torsion)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_graded_groups_match_unreduced_oracle(n):
    base = BaseRing.p1(n)
    presentations = [sr_presentation(hilb_fan(n, i)) for i in range(1, n + 1)]
    for i in range(0, n + 1):
        presentations += [thmD_presentation(n, [i], base), iterated_keel(n, i, base)]
    for pres in presentations:
        # at n = 5 the unreduced SR matrices take a minute, so the oracle
        # runs the dense invariant factors on the solved presentation's matrix
        source = pres if n <= 4 else _solved(pres)[0]
        for d in range(n + 1):
            assert graded_group(pres, d) == oracle_piece(source, d)


@st.composite
def membership_cases(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    i = draw(st.integers(min_value=1, max_value=n))
    sr = sr_presentation(hilb_fan(n, i))
    blowup = thmD_presentation(n, [i], BaseRing.p1(n))
    gen_map = sr_generator_map(n, i)
    images = [
        rel.specialize({v: gen_map[v] for v in rel.vars})
        for rel in blowup.relations
        if rel.degree() <= n
    ]
    image = draw(st.sampled_from(images)) if images else ZERO
    degree = image.degree() if not image.is_zero() else draw(
        st.integers(min_value=0, max_value=n)
    )
    variables = sr.variables()
    basis, rows = dense_relation_rows(sr, degree)
    member = draw(st.booleans())
    if member:
        # an integer combination of (relation x monomial) rows: in the ideal
        picks = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=max(len(rows) - 1, 0)),
                    st.integers(min_value=-3, max_value=3),
                ),
                max_size=6 if rows else 0,
            )
        )
        coefficients = [sum(c * rows[k][j] for k, c in picks) for j in range(len(basis))]
    else:
        coefficients = draw(
            st.lists(
                st.sampled_from((0, 0, 0, 1, -1, 2, 3)),
                min_size=len(basis),
                max_size=len(basis),
            )
        )
    noise = MultiPoly(variables, {e: c for e, c in zip(basis, coefficients) if c})
    scale = draw(st.integers(min_value=-2, max_value=2))
    return sr, scale * image + noise, member


@settings(max_examples=150, deadline=None)
@given(membership_cases())
def test_ideal_member_matches_unreduced_oracle(case):
    pres, poly, member = case
    if poly.is_zero():
        assert ideal_member(pres, poly)
        return
    basis, rows = dense_relation_rows(pres, poly.degree())
    index = {exp: k for k, exp in enumerate(basis)}
    target = [0] * len(basis)
    for exp, c in chow._embed_terms(poly, pres.variables()).items():
        target[index[exp]] = c
    expected = in_row_span_z(rows, target)
    # blow-up relation images lie in the SR ideal for n <= 3, so members stay members
    assert expected or not member
    assert ideal_member(pres, poly) == expected


X = MultiPoly.var("x")
Y = MultiPoly.var("y")


def test_linear_relation_without_unit_coefficient_stays():
    pres = GradedPresentation(BaseRing.integers(), ("x", "y"), (2 * X + 4 * Y,), 1)
    reduced, substitution = _solved(pres)
    assert reduced.relations == (2 * X + 4 * Y,) and not substitution
    assert graded_group(pres, 1) == GradedPiece(1, 1, (2,))


def test_unit_linear_relation_is_solved():
    pres = GradedPresentation(BaseRing.integers(), ("x", "y"), (X + 2 * Y,), 2)
    reduced, substitution = _solved(pres)
    assert reduced.generators == ("y",) and reduced.relations == ()
    assert dict(substitution) == {"x": -2 * Y}
    assert graded_group(pres, 1) == GradedPiece(1, 1)
    assert ideal_member(pres, X * Y + 2 * Y ** 2)
    assert not ideal_member(pres, X * Y)


def test_relation_vanishing_after_substitution_is_dropped():
    pres = GradedPresentation(BaseRing.integers(), ("x", "y"), (X - Y, X ** 2 - X * Y), 2)
    reduced, _ = _solved(pres)
    assert reduced.variables() == ("y",) and reduced.relations == ()
    assert [g.rank for g in graded_groups(pres)] == [1, 1, 1]


def test_ideals_equal_builds_each_matrix_once(monkeypatch, fresh_caches):
    calls = Counter()

    def counting(pres, degree):
        calls[pres, degree] += 1
        return _relation_rows(pres, degree)

    monkeypatch.setattr(chow, "_relation_rows", counting)
    base = BaseRing.p1(4)
    assert ideals_equal(iterated_keel(4, 1, base), thmD_presentation(4, [1], base))
    assert calls and max(calls.values()) == 1


def test_graded_groups_eliminate_on_small_matrices(monkeypatch, fresh_caches):
    # the width of every relation matrix handed to the reduced form; without
    # _solved, SR (5, 4) hands over matrices far wider than 100 columns
    widths = []
    real = chow.reduced_form

    def recording(rows, ncols):
        widths.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(chow, "reduced_form", recording)
    graded_groups(sr_presentation(hilb_fan(5, 4)))
    assert widths and max(widths) <= 100


ENTRY_BITS = 16


@pytest.mark.parametrize("kind", ("sr", "thmD"))
def test_elimination_keeps_entries_small(kind, fresh_caches):
    # Markowitz order keeps fill-in, and so entry growth, down: at degree 6
    # the largest entries have 10 to 12 bits, against 65 to 119 bits when
    # the costliest pivot is taken first
    if kind == "sr":
        pres = sr_presentation(hilb_fan(6, 1))
    else:
        pres = thmD_presentation(6, [0], BaseRing.p1(6))
    _, rows = _relation_rows(_solved(pres)[0], 6)
    pivots, core = linalg.eliminate_unit_pivots(rows)
    hermite = chow._reduced(pres, 6)[1].hermite
    entries = [x for _, row in pivots for x in row.values()]
    entries += [x for row in core for x in row.values()]
    entries += [x for row in hermite for x in row]
    assert core and max(abs(x) for x in entries).bit_length() <= ENTRY_BITS
