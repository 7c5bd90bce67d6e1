"""Integral Chow-ring presentations and graded-group computation.

Two independent routes to the Chow ring of the relative Hilbert scheme
of points on the line are implemented:

* the Stanley-Reisner presentation read off a complete simplicial fan
  (linear relations from the lattice characters plus the squarefree
  monomials on minimal non-faces), and
* the blow-up presentation over the symmetric power, built either in one
  shot from the explicit Q-polynomial relation families or step by step
  by adjoining one exceptional-divisor generator per weighted blow-up.

Graded pieces and ideal membership are computed after the degree-1
relations with a unit coefficient are solved (``_solved``), an exact
isomorphism of graded Z-algebras.  That linear solve is the reduced form of
the degree-1 relations: its pivot columns are the eliminated variables, and
each one's residue is its image.  The sparse relation matrix of each degree
is then brought once to a ``linalg.ReducedForm`` (``_reduced``): its +-1
pivots are eliminated in Markowitz order and only the remaining core gets a
dense Hermite form.  Graded pieces come from the form's invariant factors,
one 1 per pivot plus those of the core, and membership reduces against its
pivot rows and then its Hermite rows (``ideal_residue``).  Torsion is
reported, never dropped, in every degree: a presentation's ``top_degree`` is
the dimension, not a bound on the ring, whose integral groups above it can
carry torsion on a stacky fan (Edidin-Graham, Invent. Math. 131, 1998).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .fan import StackyFan, blowup_centre, blowup_levels
from .linalg import ReducedForm, reduced_form
from .poly import Exponent, MultiPoly, ZERO
from .strata import StratumProfile


class PresentationError(ValueError):
    """Invalid presentation input."""


# the hyperplane class of the p1 base ring Z[H]/(H^(n+1))
HYPERPLANE = "H"


class BaseRing(NamedTuple("BaseRing", [("kind", str), ("n", int), ("markings", int)])):
    """Coefficient ring of a presentation.

    kind "integers": plain Z.
    kind "trunc_hyperplane": Z[H]/(H^(n+1)), the Chow ring of the n-th
        symmetric power of the line, with the hyperplane class H equal to
        the first Chern class of the tautological bundle.
    kind "symbolic_curve": opaque degree-1 classes c1L_r and opaque
        kernel tokens for a positive-genus curve; relations are emitted
        symbolically and no graded computation is available.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, kind: str, n: int = 0, markings: int = 1):
        if kind not in ("integers", "trunc_hyperplane", "symbolic_curve"):
            raise PresentationError(f"unknown base ring kind {kind!r}")
        return super().__new__(cls, kind, n, markings)

    @staticmethod
    def integers() -> "BaseRing":
        return BaseRing("integers")

    @staticmethod
    def p1(n: int) -> "BaseRing":
        return BaseRing("trunc_hyperplane", n=n)

    @staticmethod
    def symbolic(markings: int = 1) -> "BaseRing":
        return BaseRing("symbolic_curve", markings=markings)

    def c1_name(self, r: int) -> str:
        if self.kind == "symbolic_curve":
            return f"c1L_{r}"
        return HYPERPLANE

    def kernel_generators(self, m: int, r: int) -> Tuple[MultiPoly, ...]:
        """Generators of the kernel of restriction to the m-th symmetric power.

        For the line this is the principal ideal generated by H^(m+1); in
        symbolic mode an opaque token stands in for the whole kernel.
        """
        if self.kind == "trunc_hyperplane":
            return (MultiPoly.var(HYPERPLANE) ** (m + 1),)
        if self.kind == "symbolic_curve":
            return (MultiPoly.var(f"kerS{m}_{r}"),)
        raise PresentationError("plain integer base has no symmetric-power maps")


class GradedPresentation(NamedTuple("GradedPresentation", [
    ("base", BaseRing),
    ("generators", Tuple[str, ...]),
    ("relations", Tuple[MultiPoly, ...]),
    ("top_degree", int),
])):
    """Generators of degree 1 over a base ring, modulo homogeneous relations."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(
        cls,
        base: BaseRing,
        generators: Tuple[str, ...],
        relations: Tuple[MultiPoly, ...],
        top_degree: int,
    ):
        if len(set(generators)) != len(generators):
            raise PresentationError("duplicate generator names")
        if base.kind == "trunc_hyperplane" and HYPERPLANE in generators:
            raise PresentationError("generator name clashes with the base variable")
        return super().__new__(cls, base, generators, relations, top_degree)

    def variables(self) -> Tuple[str, ...]:
        """All degree-1 variables of the ambient graded ring."""
        if self.base.kind == "trunc_hyperplane":
            return self.generators + (HYPERPLANE,)
        return self.generators

    def all_relations(self) -> Tuple[MultiPoly, ...]:
        """Stated relations plus the base ring's implicit truncation."""
        if self.base.kind == "trunc_hyperplane":
            trunc = MultiPoly.var(HYPERPLANE) ** (self.base.n + 1)
            return self.relations + (trunc,)
        return self.relations

    def to_json_dict(self) -> dict:
        base: dict = {"kind": self.base.kind}
        if self.base.kind == "trunc_hyperplane":
            base["n"] = self.base.n
            base["variable"] = HYPERPLANE
        if self.base.kind == "symbolic_curve":
            base["markings"] = self.base.markings
        return {
            "base": base,
            "generators": [{"name": g, "degree": 1} for g in self.generators],
            "relations": [r.to_string() for r in self.relations],
            "top_degree": self.top_degree,
        }


class GradedPiece(NamedTuple):
    degree: int
    rank: int
    torsion: Tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "rank": self.rank,
            "torsion": list(self.torsion),
        }


# ---------------------------------------------------------------------------
# Stanley-Reisner presentations


def minimal_nonfaces(fan: StackyFan) -> List[Tuple[int, ...]]:
    """Minimal ray subsets spanning no cone of the fan."""
    faces = fan.face_masks()
    nrays = len(fan.rays)
    out: List[Tuple[int, ...]] = []
    for size in range(2, fan.dim + 2):
        for subset in itertools.combinations(range(nrays), size):
            mask = sum(1 << i for i in subset)
            if mask in faces:
                continue
            if all(mask ^ (1 << i) in faces for i in subset):
                out.append(subset)
    return out


def sr_presentation(fan: StackyFan) -> GradedPresentation:
    """Stanley-Reisner presentation of a complete simplicial stacky fan.

    One degree-1 generator per ray; one linear relation per lattice
    character; one squarefree monomial per minimal non-face.
    """
    if not fan.is_complete():
        raise PresentationError("Stanley-Reisner presentation needs a complete fan")
    gens = tuple(r.label for r in fan.rays)
    relations: List[MultiPoly] = []
    for k in range(fan.dim):
        rel = ZERO
        for ray in fan.rays:
            if ray.vector[k]:
                rel = rel + ray.vector[k] * MultiPoly.var(ray.label)
        relations.append(rel)
    for subset in minimal_nonfaces(fan):
        mono = MultiPoly.const(1)
        for i in subset:
            mono = mono * MultiPoly.var(fan.rays[i].label)
        relations.append(mono)
    return GradedPresentation(
        BaseRing.integers(), gens, tuple(relations), fan.dim
    )


# ---------------------------------------------------------------------------
# graded pieces by monomial enumeration + invariant factors


def monomial_exponents(nvars: int, degree: int) -> List[Exponent]:
    """All exponent vectors of the given total degree, in a fixed order."""
    out = []
    for mono in itertools.combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in mono:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def _embed_terms(p: MultiPoly, var_order: Sequence[str]) -> Dict[Exponent, int]:
    for v in p.vars:
        if v not in var_order:
            raise PresentationError(f"relation variable {v!r} not in the ring")
    return p.embedded(var_order)


def _relation_rows(
    variables: Sequence[str], relations: Sequence[MultiPoly], degree: int
) -> Tuple[Dict[Exponent, int], List[Dict[int, int]]]:
    """Degree-k monomial basis as {exponent: position}, in basis order, and
    the (relation x monomial) rows of the relation matrix, each a sparse map
    {basis position: coefficient}.  ``_solved`` screens the relations: each
    is nonzero and homogeneous."""
    basis = monomial_exponents(len(variables), degree)
    index = {exp: i for i, exp in enumerate(basis)}
    rows: List[Dict[int, int]] = []
    for rel in relations:
        d = rel.degree()
        if d > degree:
            continue
        embedded = _embed_terms(rel, variables)
        for shift in monomial_exponents(len(variables), degree - d):
            rows.append(
                {
                    index[tuple(x + y for x, y in zip(exp, shift))]: c
                    for exp, c in embedded.items()
                }
            )
    return index, rows


def _row_poly(
    variables: Sequence[str], basis: Sequence[Exponent], row: Mapping[int, int]
) -> MultiPoly:
    """The polynomial whose coefficient on ``basis[j]`` is ``row[j]``."""
    return MultiPoly(variables, {basis[j]: c for j, c in row.items()})


@functools.lru_cache(maxsize=128)
def _solved(
    pres: GradedPresentation,
) -> Tuple[GradedPresentation, Mapping[str, MultiPoly]]:
    """The presentation with its unit-coefficient linear relations solved.

    The linear solve is the reduced form of the degree-1 relations
    (``reduced_form``): the variable of each pivot column is eliminated, and
    its image is that variable's residue, in the surviving variables.  The
    core's Hermite rows stay as linear relations, followed by every other
    relation pushed through the substitution, in order; relations that
    become zero are dropped.  Solving a relation +-x + rest = 0 for x is an
    isomorphism of graded Z-algebras (for the SR ring, the Jurkiewicz-Danilov
    presentation with its linear forms solved), so graded pieces, torsion
    included, and ideal membership are unchanged.

    Returns the presentation over Z on the surviving variables, the base
    ring's relations included, and the map {eliminated variable: image}.
    """
    relations = [rel for rel in pres.all_relations() if not rel.is_zero()]
    for rel in relations:
        if not rel.is_homogeneous():
            raise PresentationError(f"inhomogeneous relation {rel.to_string()!r}")
    variables = pres.variables()
    linear = [rel for rel in relations if rel.degree() == 1]
    index, rows = _relation_rows(variables, linear, 1)
    basis = tuple(index)
    form = reduced_form(rows, len(basis))
    substitution = {
        variables[c]: _row_poly(variables, basis, form.residue({c: 1}))
        for c, _ in form.pivots
    }
    kept = [
        _row_poly(variables, basis, dict(zip(form.core_columns, row)))
        for row in form.hermite
    ]
    images = (rel.specialize(substitution) for rel in relations if rel.degree() != 1)
    kept += [image for image in images if not image.is_zero()]
    survivors = tuple(v for v in variables if v not in substitution)
    reduced = GradedPresentation(
        BaseRing.integers(), survivors, tuple(kept), pres.top_degree
    )
    return reduced, MappingProxyType(substitution)


@functools.lru_cache(maxsize=128)
def _reduced(
    pres: GradedPresentation, degree: int
) -> Tuple[Tuple[Exponent, ...], Mapping[Exponent, int], ReducedForm]:
    """Monomial basis of the solved presentation in one degree, its
    {exponent: position} index, and the reduced form of its relation matrix."""
    reduced = _solved(pres)[0]
    index, rows = _relation_rows(reduced.variables(), reduced.relations, degree)
    return tuple(index), MappingProxyType(index), reduced_form(rows, len(index))


def graded_group(pres: GradedPresentation, degree: int) -> GradedPiece:
    """Free rank and torsion of one graded piece of the presented ring, in
    any degree from 0 up: above ``top_degree`` it can still have torsion.

    Computed on the presentation with its unit-coefficient linear relations
    solved (``_solved``), which has the same graded pieces; torsion is
    always reported.
    """
    if pres.base.kind == "symbolic_curve":
        raise PresentationError("no graded computation in symbolic mode")
    if degree < 0:
        raise PresentationError("negative degree")
    form = _reduced(pres, degree)[2]
    factors = form.invariant_factors()
    rank = form.ncols - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return GradedPiece(degree, rank, torsion)


def graded_groups(pres: GradedPresentation) -> List[GradedPiece]:
    return [graded_group(pres, k) for k in range(pres.top_degree + 1)]


def ideal_residue(pres: GradedPresentation, poly: MultiPoly) -> MultiPoly:
    """What is left of a homogeneous polynomial after reduction against the
    ideal at its own degree: zero exactly when the polynomial is a member.

    Every degree is decided, above ``top_degree`` too: there the ring of a
    stacky fan can have torsion, so a class need not vanish.  The polynomial
    is pushed through the substitution of ``_solved`` and reduced against the
    reduced form of its degree, which is computed once per presentation and
    degree, with its monomial index; the residue is written in the solved
    presentation's variables, its terms in the order of the monomial basis.
    """
    if poly.is_zero():
        return ZERO
    if not poly.is_homogeneous():
        raise PresentationError("membership check needs a homogeneous polynomial")
    reduced, substitution = _solved(pres)
    image = poly.specialize(substitution)
    basis, index, form = _reduced(pres, poly.degree())
    target = {
        index[exp]: c for exp, c in _embed_terms(image, reduced.variables()).items()
    }
    return _row_poly(reduced.variables(), basis, form.residue(target))


def ideal_member(pres: GradedPresentation, poly: MultiPoly) -> bool:
    """Is a homogeneous polynomial in the ideal, checked at its own degree?
    (``ideal_residue`` is zero.)"""
    return ideal_residue(pres, poly).is_zero()


def ideals_equal(a: GradedPresentation, b: GradedPresentation) -> bool:
    """Mutual graded ideal membership over the same variables."""
    if set(a.variables()) != set(b.variables()):
        return False
    return all(ideal_member(b, rel) for rel in a.relations) and all(
        ideal_member(a, rel) for rel in b.relations
    )


# ---------------------------------------------------------------------------
# Q-polynomials and blow-up presentations


def eps_name(j: int, r: int = 1) -> str:
    """Exceptional-divisor generator: j points on the last bubble at marking r."""
    return f"eps{j}_{r}"


def sr_generator_map(n: int, i: int) -> Dict[str, MultiPoly]:
    """Degree-1 map from the single-marking blow-up presentation over P^n to the
    SR ring of ``fan.hilb_fan(n, i)``: H to tau, and the exceptional divisor of
    level j to the ray that ``fan.blowup_centre`` names for that level."""
    gen_map = {HYPERPLANE: MultiPoly.var("tau")}
    for j in blowup_levels(n, i):
        gen_map[eps_name(j)] = MultiPoly.var(blowup_centre(n, j, "0")[0])
    return gen_map


def q_polynomial(
    m: int,
    h: int,
    t_var: str,
    upper_vars: Sequence[str] = (),
    c_var: str = HYPERPLANE,
) -> MultiPoly:
    """Equivariant top Chern class of the blow-up center's normal bundle.

    For m > h > 0 this is the product over k = 1..h of
    (k*t + c - sum_{j=1..m-h} (k+j) * upper_j); for m = h the sum is
    empty, and the m = 0 case is formally zero.
    """
    if m == 0:
        # formally zero for every h
        return ZERO
    if m < h or h < 0:
        raise PresentationError("need m >= h >= 0")
    if len(upper_vars) != m - h:
        raise PresentationError("need one upper variable per extra level")
    t = MultiPoly.var(t_var)
    c = MultiPoly.var(c_var)
    result = MultiPoly.const(1)
    for k in range(1, h + 1):
        factor = k * t + c
        for j in range(1, m - h + 1):
            factor = factor - (k + j) * MultiPoly.var(upper_vars[j - 1])
        result = result * factor
    return result


def q_for_levels(
    n_top: int, m: int, h: int, r: int, base: BaseRing
) -> MultiPoly:
    """Blow-up relation: Q_{m,h} instantiated on the exceptional generators.

    Upper slots are the honest divisor classes of levels (n_top - m) + h + 1
    and above; the t slot receives minus the generator of level
    (n_top - m) + h, because in the blow-up formula the adjoined variable
    corresponds to the negative of the exceptional class.
    """
    shift = n_top - m
    uppers = [eps_name(shift + h + j, r) for j in range(1, m - h + 1)]
    q = q_polynomial(m, h, "_t", uppers, base.c1_name(r))
    return q.specialize({"_t": -MultiPoly.var(eps_name(shift + h, r))})


def _level_relations(
    n_top: int, m: int, h: int, r: int, base: BaseRing
) -> List[MultiPoly]:
    """Relations of level h of the blow-up tower over the m-th symmetric power,
    with generators named as in the n_top tower (level l there is n_top - m + l).

    In order: the level's Q-polynomial, then the level's generator times each
    kernel generator of restriction to the (m - h)-th symmetric power, then
    that generator times each lower Q-polynomial, levels m - h down to 1.
    ``thmD_presentation`` takes m = n_top; ``iterated_keel`` lifts the
    centre's relations with m < n_top.
    """
    eps = MultiPoly.var(eps_name(n_top - m + h, r))
    return (
        [q_for_levels(n_top, m, h, r, base)]
        + [ker * eps for ker in base.kernel_generators(m - h, r)]
        + [
            q_for_levels(n_top, m - h, k, r, base) * eps
            for k in range(m - h, 0, -1)
        ]
    )


def thmD_presentation(
    n: int, i_vector: Sequence[int], base: BaseRing
) -> GradedPresentation:
    """Blow-up presentation over the symmetric power, all markings at once.

    For each marking r, the relations of each level j of
    ``blowup_levels(n, i_r)`` (``_level_relations``).
    """
    ell = len(i_vector)
    if ell < 1:
        raise PresentationError("need at least one marking")
    if base.kind == "symbolic_curve" and base.markings != ell:
        raise PresentationError("base ring marking count mismatch")
    gens: List[str] = []
    relations: List[MultiPoly] = []
    for r, i_r in enumerate(i_vector, start=1):
        levels = blowup_levels(n, i_r)
        gens.extend(eps_name(j, r) for j in reversed(levels))
        for j in levels:
            relations.extend(_level_relations(n, n, j, r, base))
    return GradedPresentation(base, tuple(gens), tuple(relations), n)


def keel_step(
    pres: GradedPresentation,
    ker_gens: Sequence[MultiPoly],
    q: MultiPoly,
    new_name: str,
) -> GradedPresentation:
    """Adjoin one exceptional-divisor generator for a weighted blow-up.

    The new relations are t times each kernel generator plus the
    Q-polynomial of the center's normal bundle, already expressed in the
    new variable.
    """
    for g in list(ker_gens) + [q]:
        if not g.is_homogeneous():
            raise PresentationError("kernel generators and Q must be homogeneous")
    if new_name in pres.variables():
        raise PresentationError(f"generator {new_name!r} already present")
    t = MultiPoly.var(new_name)
    new_rels = tuple(g * t for g in ker_gens if not g.is_zero()) + (q,)
    return GradedPresentation(
        pres.base,
        pres.generators + (new_name,),
        pres.relations + new_rels,
        pres.top_degree,
    )


def iterated_keel(n: int, i: int, base: BaseRing) -> GradedPresentation:
    """Single-marking presentation built one weighted blow-up at a time.

    At the step adjoining the level-j generator the kernel of restriction
    to the center is produced by the lifting recipe: kernel of the
    symmetric-power pullback together with lifts of all relations of the
    center's own presentation.
    """
    pres = GradedPresentation(base, (), (), n)
    for j in blowup_levels(n, i):
        m = n - j
        ker: List[MultiPoly] = list(base.kernel_generators(m, 1))
        for jp in range(m, 0, -1):
            ker.extend(_level_relations(n, m, jp, 1, base))
        q = q_for_levels(n, n, j, 1, base)
        pres = keel_step(pres, ker, q, eps_name(j))
    return pres


# ---------------------------------------------------------------------------
# boundary strata cycle classes


def stratum_cycle_class(profile: StratumProfile, n: int) -> MultiPoly:
    """Cycle class of a boundary stratum closure as a monomial in the
    exceptional-divisor generators.

    Bubble j (counted from the interior) at marking i contributes the
    generator whose index is the total length supported on the last j
    bubbles; the codimension is the total number of bubbles.
    """
    if profile.total != n:
        raise PresentationError(
            f"profile totals {profile.total}, expected {n}"
        )
    exponents: Counter[str] = Counter()
    for i, comp in enumerate(profile.nu, start=1):
        big_n = 0
        for part in reversed(comp):
            big_n += part
            exponents[eps_name(big_n, i)] += 1
    return MultiPoly(tuple(exponents), {tuple(exponents.values()): 1})


# ---------------------------------------------------------------------------
# presentation comparison


def compare_presentations(
    a: GradedPresentation,
    b: GradedPresentation,
    gen_map: Mapping[str, MultiPoly],
) -> dict:
    """Check a degree-1 map A -> B on relations and graded groups.

    Every relation of A is pushed through the map and tested for
    membership in B's ideal at its degree; graded ranks and torsion are
    compared degree by degree.
    """
    b_vars = set(b.variables())
    for name, image in gen_map.items():
        if not image.is_homogeneous() or image.degree() not in (1, -1):
            raise PresentationError(f"image of {name!r} is not of degree 1")
        if not set(image.vars) <= b_vars:
            raise PresentationError(f"image of {name!r} uses unknown variables")
    relation_report = []
    all_ok = True
    for rel in a.relations:
        for v in rel.vars:
            if v not in gen_map and v not in b_vars:
                raise PresentationError(f"no image for variable {v!r} of the source")
        ok = ideal_member(b, rel.specialize(gen_map))
        all_ok = all_ok and ok
        relation_report.append(
            {"relation": rel.to_string(), "member": ok}
        )
    graded_report = []
    top = min(a.top_degree, b.top_degree)
    for k in range(top + 1):
        ga = graded_group(a, k)
        gb = graded_group(b, k)
        match = ga.rank == gb.rank and ga.torsion == gb.torsion
        all_ok = all_ok and match
        graded_report.append(
            {
                "degree": k,
                "source": ga.to_json_dict(),
                "target": gb.to_json_dict(),
                "match": match,
            }
        )
    return {
        "relations": relation_report,
        "graded": graded_report,
        "pass": all_ok,
    }
