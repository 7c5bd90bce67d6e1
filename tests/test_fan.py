"""Tests for stacky fans, star subdivision and fan motives."""

import fractions
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from loghilb import cli, linalg
from loghilb import fan as fan_module
from loghilb.fan import (
    FanError,
    Ray,
    StackyFan,
    blowup_centre,
    blowup_levels,
    fan_motive,
    hilb_fan,
    hilb_fan_two_sided,
    is_palindromic,
    is_primitive,
    projective_fan,
    star_subdivide,
)
from loghilb.poly import MultiPoly
from loghilb.strata import MOTIVIC_P1, closed_form


def test_ray_validation():
    with pytest.raises(FanError):
        Ray("bad", (0, 0))
    with pytest.raises(FanError):
        Ray("bad", (2, 4))
    with pytest.raises(FanError):
        Ray(label="bad", vector=(0, -3))
    assert Ray("ok", (2, 3)).vector == (2, 3)


def test_ray_keeps_the_value_contract():
    with pytest.raises(FanError) as caught:
        Ray("bad", (0, 0))
    assert str(caught.value) == "ray bad has zero vector"
    with pytest.raises(FanError) as caught:
        Ray(vector=(2, 4), label="bad")
    assert str(caught.value) == "ray bad vector (2, 4) is not primitive"
    ray = Ray(vector=[2, 3], label="ok")
    assert ray == ("ok", (2, 3))
    moved = ray._replace(label="moved")
    assert type(moved) is Ray and moved == Ray("moved", (2, 3))


def test_ray_is_an_immutable_value():
    ray = Ray("ok", (2, 3))
    assert ray == Ray(label="ok", vector=(2, 3))
    assert hash(ray) == hash(Ray("ok", (2, 3)))
    assert ray != Ray("ok", (3, 2))
    assert repr(ray) == "Ray(label='ok', vector=(2, 3))"
    with pytest.raises(AttributeError):
        ray.label = "other"


def test_is_primitive():
    assert is_primitive((1, 2, 3))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))


def test_projective_fan_basics():
    fan = projective_fan(3)
    assert fan.census() == (1, 4, 6, 4)
    assert fan.is_complete()
    assert fan.check_intersections_are_faces()


def test_census_counts_the_cones_once(monkeypatch):
    fan = hilb_fan(3, 1)
    calls = []
    build = StackyFan._build_faces

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(StackyFan, "_build_faces", counted)
    assert fan.census() == fan.census() == expected_product_census(3)
    assert len(fan.face_masks()) == sum(expected_product_census(3))
    assert calls == [fan]


@pytest.mark.parametrize("markings", ["0", "0+inf"])
def test_fan_run_builds_facet_opposites_once(monkeypatch, capsys, markings):
    calls = []
    build = StackyFan._build_faces

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(StackyFan, "_build_faces", counted)
    argv = ["fan", "--n", "3", "--i", "1", "--markings", markings]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1


def test_facet_opposites_are_read_only():
    opposites = hilb_fan(3, 1).facet_opposites()
    facet = next(iter(opposites))
    with pytest.raises(TypeError):
        opposites[facet] = (0, 1)
    assert all(isinstance(o, tuple) for o in opposites.values())


def test_max_cones_must_be_full_dimensional():
    rays = [Ray("a", (1, 0)), Ray("b", (0, 1)), Ray("c", (-1, -1))]
    with pytest.raises(FanError):
        StackyFan(rays, [frozenset({0})])
    with pytest.raises(FanError):
        # a, -a are linearly dependent
        StackyFan([Ray("a", (1, 0)), Ray("b", (-1, 0))], [frozenset({0, 1})])


def test_fan_takes_its_dimension_from_its_rays():
    # every one- and two-sided fan, rebuilt from its rays and cones alone
    for n in range(1, 6):
        levels = range(n + 1)
        fans = [hilb_fan(n, i) for i in levels]
        fans += [hilb_fan_two_sided(n, i, j) for i in levels for j in levels]
        for fan in fans:
            rebuilt = StackyFan(fan.rays, fan.max_cones)
            assert same_fan(rebuilt, fan) and rebuilt.dim == fan.dim == n
            assert dict(rebuilt.cone_dets) == dict(fan.cone_dets)
    with pytest.raises(FanError, match="^ray dimension mismatch$"):
        StackyFan([Ray("a", (1, 0)), Ray("b", (0, 1, 0))], [])
    with pytest.raises(FanError, match="^a fan needs at least one ray$"):
        StackyFan([], [])


def test_incomplete_fan_detected():
    rays = [Ray("a", (1, 0)), Ray("b", (0, 1))]
    fan = StackyFan(rays, [frozenset({0, 1})])
    assert not fan.is_complete()


def test_minimal_cone():
    fan = projective_fan(2)
    assert fan.labels(cramer_weights(fan, (1, 1))) == ("sigma_1", "sigma_2")
    assert fan.labels(cramer_weights(fan, (1, 0))) == ("sigma_1",)
    assert fan.labels(cramer_weights(fan, (-2, -2))) == ("tau",)


def test_star_subdivide_interior_point():
    fan = star_subdivide(projective_fan(2), [("sigma_1", 1), ("sigma_2", 1)], "mid")
    assert fan.rays[-1] == Ray("mid", (1, 1))
    assert fan.census() == (1, 4, 4)
    assert fan.is_complete()
    assert fan.check_intersections_are_faces()
    weighted = star_subdivide(projective_fan(2), [("sigma_2", 1), ("tau", 2)], "v")
    assert weighted.rays[-1] == Ray("v", (-2, -1))
    assert_cone_dets_match_det(weighted)


def test_star_subdivide_needs_a_label():
    with pytest.raises(TypeError):
        star_subdivide(projective_fan(2), [("sigma_1", 1), ("sigma_2", 1)])


def test_ray_labels_are_distinct():
    # a later centre naming tau would not know which ray it meant
    with pytest.raises(FanError, match="^two rays are labelled tau$"):
        star_subdivide(projective_fan(2), [("sigma_1", 1), ("sigma_2", 1)], "tau")
    rays = [Ray("a", (1, 0)), Ray("a", (0, 1)), Ray("c", (-1, -1))]
    cones = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    with pytest.raises(FanError, match="^two rays are labelled a$"):
        StackyFan(rays, cones)


@pytest.mark.parametrize(
    "base, centre, message",
    [
        (
            projective_fan(2),
            [("sigma_1", 1), ("rho_9", 1)],
            "centre {sigma_1, rho_9} names no ray rho_9",
        ),
        (
            projective_fan(2),
            [("sigma_1", 1), ("sigma_2", 0)],
            "centre {sigma_1, sigma_2} gives sigma_2 weight 0 < 1",
        ),
        (projective_fan(2), [("tau", -2)], "centre {tau} gives tau weight -2 < 1"),
        (
            projective_fan(2),
            [("sigma_1", 1), ("sigma_2", 1), ("tau", 1)],
            "centre {sigma_1, sigma_2, tau} lies in no maximal cone",
        ),
        # rho_2 subdivided the cone {sigma_1, sigma_2}, so it is a cone no more
        (
            hilb_fan(2, 1),
            [("sigma_1", 1), ("sigma_2", 1)],
            "centre {sigma_1, sigma_2} lies in no maximal cone",
        ),
        (projective_fan(2), [], "the centre names no ray"),
        # a non-primitive weighted sum would be a stacky generator, not the
        # weighted blow-up; dividing out its gcd built a different stack
        (
            projective_fan(2),
            [("sigma_1", 2), ("sigma_2", 2)],
            "centre {sigma_1, sigma_2} has weighted sum (2, 2), not primitive",
        ),
        (
            projective_fan(3),
            [("sigma_1", 2), ("sigma_2", 4), ("sigma_3", 6)],
            "centre {sigma_1, sigma_2, sigma_3} has weighted sum (2, 4, 6), "
            "not primitive",
        ),
        (
            projective_fan(3),
            [("sigma_1", 3), ("sigma_2", 6), ("sigma_3", 9)],
            "centre {sigma_1, sigma_2, sigma_3} has weighted sum (3, 6, 9), "
            "not primitive",
        ),
        # a one-ray centre divides no cone; at weight 3 its weighted blow-up
        # is a root stack, and the weighted sum (-3, -3) is not primitive
        (
            projective_fan(2),
            [("sigma_1", 1)],
            "centre {sigma_1} is one ray; a star subdivision needs two or more",
        ),
        (
            projective_fan(2),
            [("tau", 3)],
            "centre {tau} is one ray; a star subdivision needs two or more",
        ),
        # a ray named twice has no one weight, even when no other ray is named
        (
            projective_fan(2),
            [("sigma_1", 1), ("sigma_1", 2), ("sigma_2", 1)],
            "centre {sigma_1, sigma_1, sigma_2} names ray sigma_1 twice",
        ),
        (
            projective_fan(2),
            [("sigma_1", 1), ("sigma_1", 1)],
            "centre {sigma_1, sigma_1} names ray sigma_1 twice",
        ),
    ],
)
def test_star_subdivide_refusals(base, centre, message):
    with pytest.raises(FanError) as refused:
        star_subdivide(base, centre, "new")
    assert str(refused.value) == message


def test_blowup_centres():
    assert blowup_centre(4, 3, "0") == (
        "rho_3",
        (("sigma_2", 1), ("sigma_3", 2), ("sigma_4", 3)),
    )
    assert blowup_centre(4, 3, "inf") == (
        "rho_inf_3",
        (("sigma_1", 2), ("sigma_2", 1), ("tau", 3)),
    )
    assert blowup_centre(4, 1, "inf") == ("rho_inf_1", (("tau", 1),))
    for n, j, side in ((3, 0, "0"), (3, 4, "inf"), (3, 2, "1")):
        with pytest.raises(FanError):
            blowup_centre(n, j, side)


def test_hilb_fan_2_1_exact_rays():
    fan = hilb_fan(2, 1)
    assert {r.vector for r in fan.rays} == {(1, 0), (0, 1), (-1, -1), (1, 2)}
    assert fan.census() == (1, 4, 4)


def same_fan(a, b):
    """Whether two fans have the same ray vectors and the same maximal cones,
    each read as its set of ray vectors; labels and orders are ignored."""

    def cones(fan):
        return {frozenset(fan.rays[i].vector for i in cone) for cone in fan.max_cones}

    rays_a, rays_b = ({r.vector for r in fan.rays} for fan in (a, b))
    return rays_a == rays_b and cones(a) == cones(b)


def test_fans_compare_by_identity():
    # value equality is the tests' own (``same_fan``); no fan is ever hashed
    assert "__eq__" not in vars(StackyFan) and "__hash__" not in vars(StackyFan)
    assert hilb_fan(2, 1) != hilb_fan(2, 1) and same_fan(hilb_fan(2, 1), hilb_fan(2, 1))
    assert not same_fan(hilb_fan(2, 1), projective_fan(2))
    assert not same_fan(hilb_fan(3, 1), hilb_fan_two_sided(3, 1, 1))
    rays = [Ray("a", (1, 0)), Ray("b", (0, 1)), Ray("c", (-1, 0))]
    assert not same_fan(StackyFan(rays, [{0, 1}]), StackyFan(rays, [{1, 2}]))


def test_hilb_fan_level_zero_equals_level_one():
    for n in (1, 2, 3):
        assert same_fan(hilb_fan(n, 0), hilb_fan(n, 1))


def test_hilb_fan_top_level_is_projective_space():
    for n in (1, 2, 3, 4):
        assert same_fan(hilb_fan(n, n), projective_fan(n))


def test_blowup_levels():
    assert list(blowup_levels(4, 1)) == [4, 3, 2]
    assert blowup_levels(4, 0) == blowup_levels(4, 1)
    assert list(blowup_levels(4, 4)) == list(blowup_levels(1, 0)) == []
    for n, i in ((0, 0), (3, -1), (3, 4)):
        with pytest.raises(FanError):
            blowup_levels(n, i)
        with pytest.raises(FanError):
            hilb_fan(n, i)
        with pytest.raises(FanError):
            hilb_fan_two_sided(n, 1 if n else 0, i)


@pytest.mark.parametrize("n", range(1, 7))
def test_fans_add_one_ray_per_blowup_level(n):
    for i in range(n + 1):
        added = [r.label for r in hilb_fan(n, i).rays[n + 1:]]
        assert added == [f"rho_{j}" for j in blowup_levels(n, i)]
        two_sided = hilb_fan_two_sided(n, i, n - i)
        assert [r.label for r in two_sided.rays[n + 1:]] == added + [
            f"rho_inf_{j}" for j in blowup_levels(n, n - i)
        ]


def test_fan_builders_do_not_call_each_other(monkeypatch):
    # the benchmark times both builders as one layer, fan.build, so a nested
    # call would count that layer twice
    def nested(*args):
        raise AssertionError("one fan builder called the other")

    monkeypatch.setattr(fan_module, "hilb_fan", nested)
    monkeypatch.setattr(fan_module, "hilb_fan_two_sided", nested)
    # this module's names still reach the real builders
    assert hilb_fan(3, 1).census() == (1, 6, 12, 8)
    assert hilb_fan_two_sided(3, 1, 1).census() == (1, 8, 18, 12)


@pytest.mark.parametrize("n", range(1, 6))
def test_census_matches_product_oracle(n):
    fan = hilb_fan(n, 1)
    oracle = product_p1_fan(n)
    assert fan.census() == oracle.census() == expected_product_census(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_hilb_fans_complete(n):
    for i in range(0, n + 1):
        assert hilb_fan(n, i).is_complete()


@pytest.mark.parametrize("n", range(1, 6))
def test_hilb_fans_intersections_are_faces(n):
    for i in range(1, n + 1):
        assert hilb_fan(n, i).check_intersections_are_faces()


@pytest.mark.parametrize("n", range(1, 6))
def test_fan_motive_fully_subdivided(n):
    L = MultiPoly.var("L")
    assert fan_motive(hilb_fan(n, 1)) == (L + 1) ** n


def test_fan_motive_projective_space():
    L = MultiPoly.var("L")
    assert fan_motive(projective_fan(3)) == L ** 3 + L ** 2 + L + 1


# -- the stated centres against the ray formulas they replace ---------------


def rho_vector(n, j):
    """Oracle: the exceptional ray of level j at marking 0, by its formula."""
    return tuple(k + j - n if k >= n - j + 1 else 0 for k in range(1, n + 1))


def invert(v):
    """Oracle: the lattice involution induced by inverting the line's
    coordinate, the adjoint of the map on characters that sends the degree-k
    elementary symmetric function to the degree-(n-k) one over the top one:
    v_k - v_n at place n - k for k < n, and -v_n last."""
    return tuple(x - v[-1] for x in v[-2::-1]) + (-v[-1],)


def ray_vectors(fan):
    return {r.label: r.vector for r in fan.rays}


def test_rho_vectors():
    assert ray_vectors(hilb_fan(4, 1)).items() >= {
        "rho_4": (1, 2, 3, 4),
        "rho_3": (0, 1, 2, 3),
        "rho_2": (0, 0, 1, 2),
    }.items()
    assert rho_vector(4, 1) == (0, 0, 0, 1)


def test_rho_inf_vectors():
    assert ray_vectors(hilb_fan_two_sided(2, 2, 1))["rho_inf_2"] == (-1, -2)
    assert ray_vectors(hilb_fan_two_sided(3, 3, 1)).items() >= {
        "rho_inf_3": (-1, -2, -3),
        "rho_inf_2": (-1, -2, -2),
    }.items()


def centre_grid(n):
    """Every level pair (i, i-inf) up to n = 7; beyond, i, i-inf in
    {0, 1, n // 2, n}."""
    levels = range(n + 1) if n <= 7 else sorted({0, 1, n // 2, n})
    return [(a, b) for a in levels for b in levels]


@pytest.mark.parametrize("n", range(1, 10))
def test_each_level_is_the_weighted_blowup_of_its_cone(n):
    # the search for each level's ray by its formula finds the stated centre,
    # and the ray's coordinates there are the stated weights
    for a, b in centre_grid(n):
        fan = projective_fan(n)
        steps = [("0", j, rho_vector(n, j)) for j in blowup_levels(n, a)]
        steps += [("inf", j, invert(rho_vector(n, j))) for j in blowup_levels(n, b)]
        for side, j, v in steps:
            label, centre = blowup_centre(n, j, side)
            found = cramer_weights(fan, v).keys()
            assert set(fan.labels(found)) == {r for r, _ in centre}
            vectors = {ray.label: ray.vector for ray in fan.rays}
            weighted = [0] * n
            for r, w in centre:
                weighted = [x + w * y for x, y in zip(weighted, vectors[r])]
            # the centre's rays are independent, so these are v's coordinates
            assert tuple(weighted) == v
            fan = star_subdivide(fan, centre, label)
            assert fan.rays[-1] == Ray(label, v)
        built = hilb_fan_two_sided(n, a, b)
        assert fan.rays == built.rays and fan.cone_dets == built.cone_dets
        if b == n:
            assert fan.rays == hilb_fan(n, a).rays


def test_involution_is_an_involution():
    for n in (2, 3, 4, 5):
        for ray in hilb_fan_two_sided(n, 1, 1).rays:
            assert invert(invert(ray.vector)) == ray.vector


def test_involution_swaps_fixed_points():
    # sigma_k <-> sigma_(n-k) for k < n, and sigma_n <-> tau
    n = 4
    e = lambda k: tuple(1 if j == k - 1 else 0 for j in range(n))
    assert invert(e(1)) == e(3) and invert(e(2)) == e(2)
    assert invert(e(4)) == (-1, -1, -1, -1)


@pytest.mark.parametrize("n", range(1, 7))
def test_inf_side_mirrors_the_zero_side(n):
    # the involution maps each one-sided fan onto its mirror at infinity
    for i in range(n + 1):
        zero = hilb_fan(n, i)
        rays = [Ray(ray.label, invert(ray.vector)) for ray in zero.rays]
        assert same_fan(StackyFan(rays, zero.max_cones), hilb_fan_two_sided(n, n, i))


def test_fan_builders_make_no_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("fraction_free_solve called")

    monkeypatch.setattr(fan_module, "fraction_free_solve", no_solve)
    for n in range(1, 7):
        for i in range(n + 1):
            hilb_fan(n, i)
            for k in range(n + 1):
                hilb_fan_two_sided(n, i, k)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_two_sided_fan_motive_matches_series(n):
    fan = hilb_fan_two_sided(n, 1, 1)
    assert fan.is_complete()
    assert fan.check_intersections_are_faces()
    expected = closed_form(MOTIVIC_P1, 2, n).coeffs[n]
    assert fan_motive(fan) == expected


# -- the paper's main theorem: the motive by the weighted blow-up formula ----


@lru_cache(maxsize=None)
def blowup_formula_motive(n, levels):
    """M(n; i) = [P^n] + sum_r sum_j M(n - j; i') * (L + ... + L^(j-1)), the
    motive by the weighted blow-up formula, stated without the fan.

    ``levels`` holds the stability level i_r of each marking, in the order
    they are blown up.  Marking r blows up levels j = n down to
    max(i_r, 1) + 1, at the centre {D >= j p_r} = Sym^(n-j) P^1 with weights
    1..j: its exceptional divisor adds a coarse [P^(j-1)] - 1 over the
    centre.  On the centre, i'_q = min(i_q, n - j) for the markings blown up
    before r, i'_r = 1, and i'_q = n - j (nothing yet) for those after it.
    """
    if n == 0:
        return MultiPoly.const(1)
    L = MultiPoly.var("L")
    motive = MultiPoly.sum(L ** k for k in range(n + 1))
    for r, i_r in enumerate(levels):
        for j in range(n, max(i_r, 1), -1):
            m = n - j
            before = tuple(min(i_q, m) for i_q in levels[:r])
            inner = before + (1,) + (m,) * (len(levels) - r - 1)
            fibre = MultiPoly.sum(L ** k for k in range(1, j))
            motive = motive + blowup_formula_motive(m, inner) * fibre
    return motive


@pytest.mark.parametrize("n", range(1, 7))
def test_fan_motive_is_the_weighted_blowup_formula(n):
    for i in range(n + 1):
        assert fan_motive(hilb_fan(n, i)) == blowup_formula_motive(n, (i,)), i
        for k in range(n + 1):
            expected = blowup_formula_motive(n, (i, k))
            assert fan_motive(hilb_fan_two_sided(n, i, k)) == expected, (i, k)


def test_two_sided_subdivision_order_independent():
    for n in (2, 3):
        fan = projective_fan(n)
        # infinity side first, zero side second
        for side in ("inf", "0"):
            for j in range(n, 1, -1):
                label, centre = blowup_centre(n, j, side)
                fan = star_subdivide(fan, centre, label)
        assert same_fan(fan, hilb_fan_two_sided(n, 1, 1))


def test_two_sided_census_symmetric():
    fan = hilb_fan_two_sided(3, 1, 2)
    swapped = hilb_fan_two_sided(3, 2, 1)
    assert fan.census() == swapped.census()


def test_fan_json_roundtrip_fields():
    fan = hilb_fan(2, 1)
    doc = fan.to_json_dict()
    assert doc["dim"] == 2
    assert len(doc["rays"]) == 4
    assert all(sorted(c) == c for c in doc["max_cones"])


# -- the local fan check against the pairwise oracle ---------------------


def pentagram_fan() -> StackyFan:
    """Five plane cones, each joining a ray to the next-but-one: they wind
    twice around the origin, so every facet test passes on a non-fan."""
    vectors = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
    rays = [Ray(f"p{k}", v) for k, v in enumerate(vectors)]
    return StackyFan(rays, [frozenset({k, (k + 2) % 5}) for k in range(5)])


def product_p1_fan(n: int) -> StackyFan:
    """The fan of the n-fold product of the projective line (census oracle)."""
    rays = []
    for k in range(n):
        plus = tuple(1 if j == k else 0 for j in range(n))
        minus = tuple(-1 if j == k else 0 for j in range(n))
        rays.append(Ray(f"plus_{k + 1}", plus))
        rays.append(Ray(f"minus_{k + 1}", minus))
    cones = [
        frozenset(2 * k + (mask >> k & 1) for k in range(n)) for mask in range(1 << n)
    ]
    return StackyFan(rays, cones)


def expected_product_census(n: int):
    return tuple(comb(n, k) * 2 ** k for k in range(n + 1))


def with_ray(fan: StackyFan, label: str, vector) -> StackyFan:
    rays = [Ray(r.label, vector if r.label == label else r.vector) for r in fan.rays]
    return StackyFan(rays, fan.max_cones)


def oracle_fans(n):
    yield product_p1_fan(n)
    for i in range(n + 1):
        yield hilb_fan(n, i)
        for j in range(n + 1):
            yield hilb_fan_two_sided(n, i, j)


@pytest.mark.parametrize("n", range(1, 5))
def test_fan_defect_agrees_with_pairwise_oracle(n):
    for fan in oracle_fans(n):
        assert fan.fan_defect() is None
        assert fan.check_intersections_are_faces()


@lru_cache(maxsize=None)
def larger_hilb_fans(n):
    """Every one-sided fan, and below n = 7 the two-sided fans with i, i-inf
    in {0, 1, n}."""
    fans = [hilb_fan(n, i) for i in range(n + 1)]
    if n < 7:
        fans += [hilb_fan_two_sided(n, i, j) for i in (0, 1, n) for j in (0, 1, n)]
    return fans


def test_census_of_a_fan_with_no_maximal_cone():
    # the origin is a cone even when no maximal cone is given
    fan = StackyFan([Ray("a", (1, 0))], [])
    assert fan.census() == (1, 0, 0)
    assert fan.face_masks() == {0}
    assert fan_motive(fan) == (MultiPoly.var("L") - 1) ** 2


@pytest.mark.parametrize("n", (5, 6, 7))
def test_fan_defect_accepts_hilb_fans(n):
    for fan in larger_hilb_fans(n):
        assert fan.fan_defect() is None


@pytest.mark.parametrize("n", (5, 6, 7))
def test_census_counts_all_cones(n):
    for fan in larger_hilb_fans(n):
        counts = [0] * (n + 1)
        for mask in fan.face_masks():
            counts[mask.bit_count()] += 1
        assert fan.census() == tuple(counts)


def sub_bitmask_faces(fan: StackyFan):
    """Oracle for ``face_masks``: every sub-bitmask of each maximal cone, by
    (sub - 1) & mask."""
    faces = {0}
    for cone in fan.max_cones:
        mask = sum(1 << i for i in cone)
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    return faces


def cli_fans(n):
    """Every fan the CLI builds at this n, with marking 0 and with 0+inf."""
    yield from (hilb_fan(n, i) for i in range(n + 1))
    for i in range(n + 1):
        yield from (hilb_fan_two_sided(n, i, j) for j in range(n + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_face_masks_match_sub_bitmask_oracle(n):
    for fan in cli_fans(n):
        assert fan.face_masks() == sub_bitmask_faces(fan)


def assert_cone_dets_match_det(fan):
    assert set(fan.cone_dets) == set(fan.max_cones)
    for cone in fan.max_cones:
        rows = [list(fan.rays[i].vector) for i in sorted(cone)]
        assert fan.cone_dets[cone] == linalg.det(rows) != 0


@pytest.mark.parametrize("n", range(1, 7))
def test_stored_cone_determinants(n):
    # star_subdivide derives the determinants of the cones it makes
    for fan in cli_fans(n):
        assert_cone_dets_match_det(fan)
        # the facet test's sides, read from those determinants
        for facet, opposite in fan.facet_opposites().items():
            rows = [list(fan.rays[i].vector) for i in sorted(facet)]
            for u in opposite:
                side = linalg.det(rows + [list(fan.rays[u].vector)])
                assert fan._side(facet, u) == side


def cramer_weights(fan, v):
    """The rays of v's minimal cone, each with v's Cramer numerator |d * x_r|
    on the first maximal cone that holds v (d its determinant): weights whose
    weighted sum of rays is |d| * v."""
    for cone in fan.max_cones:
        idx = sorted(cone)
        d, numerators = linalg.fraction_free_solve(
            zip(*(fan.rays[i].vector for i in idx)), v
        )
        if all(d * x >= 0 for x in numerators):
            return {i: abs(x) for i, x in zip(idx, numerators) if x}
    raise AssertionError(f"{v} lies in no maximal cone")


@st.composite
def subdivided_projective_fans(draw):
    """projective_fan(d), d <= 4, star-subdivided at up to four drawn weighted
    centres: either an arbitrary vector's minimal cone, weighted by the
    vector's Cramer numerators there, or a few rays of one maximal cone with
    drawn weights.  A centre of one ray, or one whose weighted sum is not
    primitive, is refused and drawn past."""
    dim = draw(st.integers(min_value=1, max_value=4))
    fan = projective_fan(dim)
    for step in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            v = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
            if not any(v):
                continue
            weights = cramer_weights(fan, v)
        else:
            cone = sorted(draw(st.sampled_from(fan.max_cones)))
            face = draw(st.lists(st.sampled_from(cone), min_size=1, unique=True))
            weights = {i: draw(st.integers(1, 3)) for i in face}
        total = tuple(
            sum(w * fan.rays[i].vector[k] for i, w in weights.items())
            for k in range(dim)
        )
        centre = [(fan.rays[i].label, w) for i, w in weights.items()]
        if len(weights) == 1:
            with pytest.raises(FanError, match="is one ray"):
                star_subdivide(fan, centre, f"new_{step}")
            continue
        if gcd(*total) > 1:
            with pytest.raises(FanError, match="not primitive"):
                star_subdivide(fan, centre, f"new_{step}")
            continue
        fan = star_subdivide(fan, centre, f"new_{step}")
        # the new ray is the weighted sum itself
        assert fan.rays[-1].vector == total
    return fan


@settings(max_examples=150, deadline=None)
@given(subdivided_projective_fans())
def test_subdivided_cone_determinants_match_det(fan):
    assert_cone_dets_match_det(fan)
    assert fan.fan_defect() is None


def test_star_subdivide_computes_no_determinant(monkeypatch):
    fan = projective_fan(3)
    calls = []

    def counted(m):
        calls.append(m)
        return linalg.det(m)

    monkeypatch.setattr(fan_module, "det", counted)
    subdivided = star_subdivide(
        fan, [("sigma_1", 2), ("sigma_2", 3), ("sigma_3", 5)], "new"
    )
    assert calls == []
    assert len(subdivided.max_cones) == 6
    assert_cone_dets_match_det(subdivided)


def test_facet_opposites_bound_two_cones():
    fan = hilb_fan(3, 1)
    opposites = fan.facet_opposites()
    assert len(opposites) == len(fan.max_cones) * fan.dim // 2
    for facet, (u, w) in opposites.items():
        assert u not in facet and w not in facet and u != w


def test_ray_moved_across_its_facet_is_rejected():
    # rho_3 = (1, 2, 3) moved below the plane of the facet {sigma_1, sigma_2}
    fan = with_ray(hilb_fan(3, 2), "rho_3", (1, 2, -3))
    assert fan.is_complete()
    assert not fan.check_intersections_are_faces()
    assert fan.fan_defect() == (
        "rays tau and rho_3 lie on the same side of facet {sigma_1, sigma_2}"
    )


def test_overlapping_extra_cone_is_rejected():
    # the corner cone of projective 3-space, which the rho_3 subdivision split
    base = hilb_fan(3, 2)
    sigmas = ("sigma_1", "sigma_2", "sigma_3")
    corner = frozenset(i for i, ray in enumerate(base.rays) if ray.label in sigmas)
    assert corner not in base.max_cones
    fan = StackyFan(base.rays, base.max_cones + (corner,))
    assert not fan.check_intersections_are_faces()
    assert fan.fan_defect() == (
        "facet {sigma_2, sigma_3} bounds 3 of the maximal cones, not 2"
    )


def test_pentagram_double_cover_is_rejected():
    fan = pentagram_fan()
    assert fan.is_complete()
    assert not fan.check_intersections_are_faces()
    # every facet test passes; only the one-sheet test catches the cover
    assert fan.fan_defect() == "the interior of cone {p0, p2} meets cone {p1, p3}"


def test_incomplete_fan_is_rejected():
    base = hilb_fan(3, 1)
    fan = StackyFan(base.rays, base.max_cones[1:])
    assert "bounds 1 of the maximal cones" in fan.fan_defect()
    assert StackyFan([Ray("a", (1, 0))], []).fan_defect() is not None


def test_is_palindromic():
    L = MultiPoly.var("L")
    assert is_palindromic(L ** 2 + 3 * L + 1)
    assert is_palindromic(fan_motive(pentagram_fan()))
    assert not is_palindromic(L ** 2 + 2 * L + 2)
    for n in range(1, 5):
        for fan in oracle_fans(n):
            assert is_palindromic(fan_motive(fan))


# -- integer cone membership against the Fraction oracle ------------------


@lru_cache(maxsize=None)
def small_hilb_fans():
    fans = []
    for n in range(1, 5):
        for i in range(n + 1):
            fans.append(hilb_fan(n, i))
            fans.extend(hilb_fan_two_sided(n, i, j) for j in range(n + 1))
    return fans


def fraction_coordinates(fan, cone, v):
    idx = sorted(cone)
    a = [[fan.rays[i].vector[k] for i in idx] for k in range(fan.dim)]
    return idx, linalg.rational_solve(a, list(v))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_membership_matches_fraction_oracle(data):
    fan = data.draw(st.sampled_from(small_hilb_fans()))
    cone = data.draw(st.sampled_from(fan.max_cones))
    if data.draw(st.booleans()):
        v = data.draw(
            st.lists(st.integers(-6, 6), min_size=fan.dim, max_size=fan.dim)
        )
    else:
        # non-negative combinations of the cone's own rays hit its faces
        weights = data.draw(
            st.lists(st.integers(0, 3), min_size=fan.dim, max_size=fan.dim)
        )
        v = [
            sum(w * fan.rays[i].vector[k] for w, i in zip(weights, sorted(cone)))
            for k in range(fan.dim)
        ]
    _, coords = fraction_coordinates(fan, cone, v)
    assert fan.contains_in_cone(cone, v) == all(c >= 0 for c in coords)
    if not any(v):
        return
    for first in fan.max_cones:
        idx, coords = fraction_coordinates(fan, first, v)
        if all(c >= 0 for c in coords):
            break
    found = cramer_weights(fan, v).keys()
    assert found == frozenset(i for i, c in zip(idx, coords) if c > 0)


def test_fan_checks_use_no_fractions(monkeypatch):
    def no_fractions(*args):
        raise AssertionError("Fraction arithmetic used")

    # rational_solve imports Fraction from the fractions module on each call
    monkeypatch.setattr(fractions, "Fraction", no_fractions)
    for fan in (hilb_fan(4, 1), hilb_fan_two_sided(4, 1, 1)):
        assert fan.fan_defect() is None
        for cone in fan.max_cones:
            # a sum of rays lies in the relative interior of the face they
            # span, so in exactly the maximal cones that hold that face
            idx = sorted(cone)
            for face in (cone, frozenset(idx[:2]), frozenset(idx[:1])):
                v = [sum(fan.rays[i].vector[k] for i in face) for k in range(4)]
                holding = [c for c in fan.max_cones if fan.contains_in_cone(c, v)]
                assert holding == [c for c in fan.max_cones if face <= c]
