"""Simplicial stacky fans and iterated (weighted) star subdivision.

Builds the fan of projective space together with the iterated star
subdivisions that model the toric degrees of freedom of length-n
subschemes on the line relative to one or both toric fixed points.  All
ray generators are stored primitive, so no extra stacky data is carried.

Each subdivision is a weighted blow-up at a centre: a cone of two or more
rays with a positive weight on each.  ``blowup_centre`` states every level's centre.

Cones are stored via their maximal cones only, each with the determinant
of its rays; faces are derived on demand, as bitmasks over ray indices, and
so are the minimal non-faces (``minimal_nonfaces``), which the
Stanley-Reisner ring reads; no other module encodes a face as a bitmask.
A star subdivision derives its new cones' determinants from the weights,
with no solve and no memo.  Fans are immutable values and all operations
are pure.
"""

from __future__ import annotations

import itertools
from math import gcd
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .linalg import det, fraction_free_solve
from .poly import MultiPoly
from .strata import MOTIVIC_P1, affine_line_class

Vector = Tuple[int, ...]
FacetMap = Mapping[FrozenSet[int], Tuple[int, ...]]
FaceRecord = Tuple[FrozenSet[int], Tuple[int, ...], FacetMap]


class FanError(ValueError):
    """Invalid fan input or failed fan invariant."""


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


# Value classes are NamedTuples rather than dataclasses, which would import
# ``dataclasses`` and ``inspect`` on every CLI start.  A ``class X(NamedTuple)``
# body cannot override ``__new__``, so a validating value class subclasses a
# functional NamedTuple and checks its fields, defaults included, in ``__new__``;
# its ``_make``, which ``_replace`` calls, goes through ``__new__`` too.
class Ray(NamedTuple("Ray", [("label", str), ("vector", Vector)])):
    """A labelled primitive ray generator; an immutable value."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, label: str, vector: Vector):
        if all(x == 0 for x in vector):
            raise FanError(f"ray {label} has zero vector")
        if not is_primitive(vector):
            raise FanError(f"ray {label} vector {vector} is not primitive")
        return super().__new__(cls, label, tuple(vector))


class StackyFan:
    """A simplicial fan with primitive ray generators.

    ``max_cones`` holds frozensets of indices into ``rays``.  A ray's label
    is its identity, so no two rays share one.  Rays keep insertion order
    and cones are kept sorted for deterministic output.
    ``dim`` is the common length of the ray vectors, so a fan needs a ray.
    ``cone_dets`` maps each maximal cone to the determinant of its ray
    vectors as rows in sorted index order (nonzero: the cone is full).  A
    caller may pass them, as ``star_subdivide`` does; else each is computed.
    """

    __slots__ = ("dim", "rays", "max_cones", "cone_dets", "_faces")

    def __init__(self, rays: Sequence[Ray], max_cones, cone_dets=None):
        self.rays = tuple(rays)
        if not self.rays:
            raise FanError("a fan needs at least one ray")
        self.dim = dim = len(self.rays[0].vector)
        cones = [frozenset(c) for c in max_cones]
        self.max_cones = tuple(sorted(cones, key=lambda c: sorted(c)))
        self._faces: Optional[FaceRecord] = None
        seen = set()
        for ray in self.rays:
            if len(ray.vector) != dim:
                raise FanError("ray dimension mismatch")
            if ray.label in seen:
                raise FanError(f"two rays are labelled {ray.label}")
            seen.add(ray.label)
        dets: Dict[FrozenSet[int], int] = {}
        for cone in self.max_cones:
            if len(cone) != dim:
                raise FanError("maximal cone is not full-dimensional")
            if cone_dets is None:
                d = det([self.rays[i].vector for i in sorted(cone)])
            else:
                d = cone_dets[cone]
            if d == 0:
                raise FanError("maximal cone rays are linearly dependent")
            dets[cone] = d
        self.cone_dets: Mapping[FrozenSet[int], int] = MappingProxyType(dets)

    # -- queries -------------------------------------------------------

    def labels(self, cone) -> Tuple[str, ...]:
        return tuple(self.rays[i].label for i in sorted(cone))

    def _face_record(self) -> FaceRecord:
        """The face masks, census and facet map, built on the first call only."""
        if self._faces is None:
            self._faces = self._build_faces()
        return self._faces

    def _build_faces(self) -> FaceRecord:
        """The face masks, the size of each level and the facet map."""
        opposites: Dict[FrozenSet[int], List[int]] = {}
        for cone in self.max_cones:
            for i in sorted(cone):
                opposites.setdefault(cone - {i}, []).append(i)
        # level by level: the faces of size k are those of size k + 1 less
        # one bit, so each face joins ``faces`` once, not once per maximal cone
        faces, level = {0}, {sum(1 << i for i in cone) for cone in self.max_cones}
        census = [1] + [0] * self.dim
        while level:
            faces |= level
            census[next(iter(level)).bit_count()] = len(level)
            smaller = set()
            for mask in level:
                rest = mask
                while rest:
                    smaller.add(mask ^ (rest & -rest))
                    rest &= rest - 1
            level = smaller
        facets = MappingProxyType({f: tuple(o) for f, o in opposites.items()})
        return frozenset(faces), tuple(census), facets

    def face_masks(self) -> FrozenSet[int]:
        """Every cone as a bitmask over ray indices (bit i for ray i), the
        origin (0) included."""
        return self._face_record()[0]

    def census(self) -> Tuple[int, ...]:
        """Number of cones of each dimension, counted with the faces."""
        return self._face_record()[1]

    def facet_opposites(self) -> FacetMap:
        """Read-only map of each facet (a maximal cone minus one ray) to its
        opposite rays: the missing ray of every maximal cone that contains
        it, in the order of ``max_cones``."""
        return self._face_record()[2]

    def is_complete(self) -> bool:
        """Every codimension-1 face must bound exactly two maximal cones."""
        return all(len(o) == 2 for o in self.facet_opposites().values())

    def contains_in_cone(self, cone, v: Sequence[int]) -> bool:
        """Whether v's Cramer numerators d * x_j on the full cone have d's sign."""
        rays = (self.rays[i].vector for i in sorted(cone))
        d, numerators = fraction_free_solve(zip(*rays), v)
        return all(d * x >= 0 for x in numerators)

    def _cone_name(self, cone) -> str:
        return "{" + ", ".join(self.labels(cone)) + "}"

    def _side(self, facet: FrozenSet[int], u: int) -> int:
        """det(rows of facet in sorted order, then ray u), from the stored
        determinant of the maximal cone facet with u."""
        d = self.cone_dets[facet | {u}]
        return -d if sum(1 for f in facet if f > u) % 2 else d

    def fan_defect(self) -> Optional[str]:
        """Decide by local determinant signs whether the maximal cones form a fan.

        Returns None for a fan; otherwise a short description of the first
        failure, naming its facet or cones by ray labels.  Three conditions
        are checked:

        1. every facet bounds exactly two maximal cones;
        2. at each facet F with opposite rays u and w, the rows of F in
           sorted order give ``det(F + [u]) * det(F + [w]) < 0``: u and w
           lie strictly on opposite sides of the hyperplane spanned by F;
        3. the sum of the rays of the first maximal cone lies in no other
           maximal cone.

        Why they suffice: map the abstract cone complex radially onto the
        unit sphere.  By (1) and (2) the map is a local homeomorphism away
        from the codimension-2 faces.  Over the complement X of the images
        of those faces, which is connected (dim >= 2), it is a proper local
        homeomorphism, hence a covering with some number d of sheets.  The
        cones around a codimension-2 face wind k >= 1 times around it and
        give k sheets near it, so k <= d.  The point of (3) lies in X and has
        one preimage, so d = 1.  Then every such star winds once, and by
        induction on codimension (links of higher codimension cover simply
        connected spheres) the map is a local homeomorphism everywhere, so
        a homeomorphism: distinct cones have disjoint relative interiors,
        i.e. they meet in common faces.  In dim 1, (1) and (2) say directly
        that the two rays point in opposite directions.  Condition (3) is
        needed: five plane cones can wind twice around the origin and pass
        every facet test.

        Cost: no new determinant for condition 2.  ``det(F + [u])`` is the
        stored determinant of the maximal cone F with u, times -1 for each
        ray of F above u (the row swaps that move u's row to the end).
        Condition 3 takes (cones - 1) cone-membership tests of one
        ``fraction_free_solve`` each, against the O(cones^2) membership tests
        of the test oracle ``check_intersections_are_faces``.
        """
        if not self.max_cones:
            return "there are no maximal cones"
        for facet, opposite in self.facet_opposites().items():
            if len(opposite) != 2:
                return (
                    f"facet {self._cone_name(facet)} bounds {len(opposite)} "
                    "of the maximal cones, not 2"
                )
            u, w = opposite
            if self._side(facet, u) * self._side(facet, w) >= 0:
                return (
                    f"rays {self.rays[u].label} and {self.rays[w].label} lie on "
                    f"the same side of facet {self._cone_name(facet)}"
                )
        first = self.max_cones[0]
        point = [sum(self.rays[i].vector[k] for i in first) for k in range(self.dim)]
        for cone in self.max_cones[1:]:
            if self.contains_in_cone(cone, point):
                return (
                    f"the interior of cone {self._cone_name(first)} meets "
                    f"cone {self._cone_name(cone)}"
                )
        return None

    def check_intersections_are_faces(self) -> bool:
        """Exhaustive pairwise check that cone intersections are faces.

        For two maximal simplicial cones this verifies that every lattice
        point expressible with non-negative coordinates in both cones is
        supported on the common ray set, whose bitmask must be one of
        ``face_masks``.  It runs O(cones^2) cone-membership tests and is the
        test oracle for ``fan_defect``, which the CLI uses.
        """
        faces = self.face_masks()
        rays = [r.vector for r in self.rays]
        sums = {a: list(map(sum, zip(*(rays[i] for i in a)))) for a in self.max_cones}
        for a in self.max_cones:
            for b in self.max_cones:
                # both orders run: the ray and interior-point tests look one way
                if a == b:
                    continue
                common = a & b
                if sum(1 << i for i in common) not in faces:
                    return False
                # rays of a outside the common face may not lie in cone(b)
                for i in a - common:
                    if self.contains_in_cone(b, rays[i]):
                        return False
                # interiors must be disjoint: the ray sum of a, an interior
                # point of cone(a), may lie in cone(b) only when they coincide
                if self.contains_in_cone(b, sums[a]) and common != a:
                    return False
        return True

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [
                {"label": r.label, "vector": list(r.vector)} for r in self.rays
            ],
            "max_cones": [sorted(c) for c in self.max_cones],
        }


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


def projective_fan(n: int) -> StackyFan:
    """The standard complete fan of n-dimensional projective space."""
    if n < 1:
        raise FanError("dimension must be at least 1")
    rays = [
        Ray(f"sigma_{j + 1}", tuple(int(k == j) for k in range(n))) for j in range(n)
    ]
    rays.append(Ray("tau", (-1,) * n))
    cones = [frozenset(range(n + 1)) - {omit} for omit in range(n + 1)]
    return StackyFan(rays, cones)


def star_subdivide(
    fan: StackyFan, centre: Sequence[Tuple[str, int]], label: str
) -> StackyFan:
    """Weighted star subdivision at a centre, given as (ray label, weight) pairs,
    adding a ray named ``label``.

    The new ray v is ``sum(w_r * u_r)``, refused unless primitive: a multiple
    of a primitive vector is a stacky generator, and the fan on its primitive
    vector is a different stack from the weighted blow-up.  Each maximal cone
    C holding the centre gives way to ``(C - {r}) + {v}`` for each centre ray
    r; kept cones keep their determinants.  A one-ray centre is refused: it
    divides no cone, and its weighted blow-up is a root stack at weight w > 1
    (the identity at w = 1), which ``blowup_levels`` never asks for.  So is
    a centre that names a ray twice: it gives that ray no one weight.

    As v is ``w_r * u_r`` plus rays of F = C - {r}, the new cone has
    det(F + [v]) = det(F + [r]) * w_r: no solve and no determinant is computed.
    """
    names = "{" + ", ".join(name for name, _ in centre) + "}"
    index = {ray.label: i for i, ray in enumerate(fan.rays)}
    weights: Dict[int, int] = {}
    for name, w in centre:
        if name not in index:
            raise FanError(f"centre {names} names no ray {name}")
        if index[name] in weights:
            raise FanError(f"centre {names} names ray {name} twice")
        if w < 1:
            raise FanError(f"centre {names} gives {name} weight {w} < 1")
        weights[index[name]] = w
    if not weights:
        raise FanError("the centre names no ray")
    if len(weights) == 1:
        raise FanError(f"centre {names} is one ray; a star subdivision needs two or more")
    if not any(weights.keys() <= cone for cone in fan.max_cones):
        raise FanError(f"centre {names} lies in no maximal cone")
    total = [0] * fan.dim
    for r, w in weights.items():
        total = [x + w * y for x, y in zip(total, fan.rays[r].vector)]
    if not is_primitive(total):
        raise FanError(f"centre {names} has weighted sum {tuple(total)}, not primitive")
    new_index = len(fan.rays)
    rays = fan.rays + (Ray(label, total),)
    dets: Dict[FrozenSet[int], int] = {}
    for cone, cone_det in fan.cone_dets.items():
        if not weights.keys() <= cone:
            dets[cone] = cone_det
            continue
        for r, w in weights.items():
            dets[(cone - {r}) | {new_index}] = fan._side(cone - {r}, r) * w
    return StackyFan(rays, dets.keys(), cone_dets=dets)


def blowup_centre(n: int, j: int, side: str) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
    """The new ray's label and the centre's (ray label, weight) pairs for the
    weighted blow-up of level j at marking ``side``, "0" or "inf".

    At marking 0, ``rho_j`` blows up sigma_(n-j+k) at weight k, k = 1..j.
    Inverting the line's coordinate swaps the markings and sends sigma_k to
    sigma_(n-k) for k < n and sigma_n to tau; so at marking inf, ``rho_inf_j``
    blows up sigma_k at weight j - k, k = 1..j-1, and tau at weight j.
    """
    if not 1 <= j <= n:
        raise FanError("ray level out of range")
    if side == "0":
        return f"rho_{j}", tuple((f"sigma_{n - j + k}", k) for k in range(1, j + 1))
    if side == "inf":
        sigmas = tuple((f"sigma_{k}", j - k) for k in range(1, j))
        return f"rho_inf_{j}", sigmas + (("tau", j),)
    raise FanError(f"marking {side!r} is neither '0' nor 'inf'")


def blowup_levels(n: int, i: int) -> range:
    """The levels blown up for n points at stability level i: n down to i + 1.

    Level 0 equals level 1: the last modification is an isomorphism, and
    level 0 of the literal relation list would adjoin a generator coinciding
    with an existing ray.
    """
    if n < 1:
        raise FanError("n must be at least 1")
    if not 0 <= i <= n:
        raise FanError("stability level must satisfy 0 <= i <= n")
    return range(n, max(i, 1), -1)


def hilb_fan(n: int, i: int) -> StackyFan:
    """Fan of the moduli of n points on the line relative to one origin marking.

    Built from the projective fan by the weighted star subdivisions at the
    marking-0 centres of ``blowup_levels(n, i)``, top level first.
    """
    levels = blowup_levels(n, i)
    return _blow_up(projective_fan(n), "0", levels)


def _blow_up(fan: StackyFan, side: str, levels: range) -> StackyFan:
    for j in levels:
        label, centre = blowup_centre(fan.dim, j, side)
        fan = star_subdivide(fan, centre, label)
    return fan


def fan_motive(fan: StackyFan) -> MultiPoly:
    """Class of the toric stack in the Grothendieck ring, as a polynomial in L.

    Each cone of dimension d contributes a torus factor (L-1)^(n-d): one torus
    orbit per cone, so this holds for any fan, complete or not.  L is
    ``affine_line_class(MOTIVIC_P1)``, the variable the series are written in.
    """
    lm1 = affine_line_class(MOTIVIC_P1) - 1
    return MultiPoly.sum(
        count * lm1 ** (fan.dim - dim) for dim, count in enumerate(fan.census())
    )


def is_palindromic(motive: MultiPoly) -> bool:
    """Dehn–Sommerville: the coefficients of a complete fan's motive are symmetric.

    The motive is the h-polynomial of the fan in L, and the h-vector of a
    complete simplicial fan reads the same reversed.
    """
    coeffs = [0] * (motive.degree() + 1)
    for exp, c in motive.terms.items():
        coeffs[sum(exp)] += c
    return coeffs == coeffs[::-1]


def hilb_fan_two_sided(n: int, i_zero: int, i_inf: int) -> StackyFan:
    """Fan for points on the line relative to both toric fixed points.

    The marking-0 centres of ``blowup_levels(n, i_zero)`` are blown up first,
    then the marking-inf centres of ``blowup_levels(n, i_inf)``.  Correctness
    is accepted via census and Euler-characteristic cross-checks, not assumed.
    """
    zero_levels, inf_levels = blowup_levels(n, i_zero), blowup_levels(n, i_inf)
    fan = _blow_up(projective_fan(n), "0", zero_levels)
    return _blow_up(fan, "inf", inf_levels)
