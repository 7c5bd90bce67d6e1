"""Simplicial stacky fans and iterated (weighted) star subdivision.

Builds the fan of projective space together with the iterated star
subdivisions that model the toric degrees of freedom of length-n
subschemes on the line relative to one or both toric fixed points.  All
ray generators are stored primitive, so no extra stacky data is carried.

Cones are stored via their maximal cones only, each with the determinant
of its rays; faces are derived on demand, as bitmasks over ray indices.
Fans are immutable values and all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .linalg import det, fraction_free_solve
from .poly import MultiPoly

Vector = Tuple[int, ...]
FacetMap = Mapping[FrozenSet[int], Tuple[int, ...]]


class FanError(ValueError):
    """Invalid fan input or failed fan invariant."""


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


@lru_cache(maxsize=1 << 15)
def _cone_det(vectors: Tuple[Vector, ...]) -> int:
    """det of a maximal cone's ray vectors as rows, in sorted index order.

    Memoised on the vectors, so that a star subdivision does not recompute
    the cones it leaves unchanged.  The bound, 2**15 cones, is several times
    the number of cones made on the way to any fan within the CLI cap.
    """
    return det(vectors)


# Value classes are NamedTuples rather than dataclasses, which would import
# ``dataclasses`` and ``inspect`` on every CLI start.  A NamedTuple cannot
# override ``__new__``, so a thin subclass validates the fields; where fields
# have defaults, it takes ``*args, **kwargs`` so the defaults are stated once.
class _RayFields(NamedTuple):
    label: str
    vector: Vector


class Ray(_RayFields):
    """A labelled primitive ray generator; an immutable value."""

    __slots__ = ()

    def __new__(cls, label: str, vector: Vector):
        if all(x == 0 for x in vector):
            raise FanError(f"ray {label} has zero vector")
        if not is_primitive(vector):
            raise FanError(f"ray {label} vector {vector} is not primitive")
        return super().__new__(cls, label, tuple(vector))


class StackyFan:
    """A simplicial fan with primitive ray generators.

    ``max_cones`` holds frozensets of indices into ``rays``.  Rays keep
    insertion order and cones are kept sorted for deterministic output.
    ``cone_dets`` maps each maximal cone to the determinant of its ray
    vectors as rows in sorted index order, which the constructor computes
    to check that the cone is full-dimensional.
    """

    __slots__ = ("dim", "rays", "max_cones", "cone_dets", "_faces", "_facet_opposites")

    def __init__(self, dim: int, rays: Sequence[Ray], max_cones):
        self.dim = dim
        self.rays = tuple(rays)
        cones = [frozenset(c) for c in max_cones]
        self.max_cones = tuple(sorted(cones, key=lambda c: sorted(c)))
        self._faces: Optional[FrozenSet[int]] = None
        self._facet_opposites: Optional[FacetMap] = None
        for ray in self.rays:
            if len(ray.vector) != dim:
                raise FanError("ray dimension mismatch")
        dets: Dict[FrozenSet[int], int] = {}
        for cone in self.max_cones:
            if len(cone) != dim:
                raise FanError("maximal cone is not full-dimensional")
            d = _cone_det(tuple(self.rays[i].vector for i in sorted(cone)))
            if d == 0:
                raise FanError("maximal cone rays are linearly dependent")
            dets[cone] = d
        self.cone_dets: Mapping[FrozenSet[int], int] = MappingProxyType(dets)

    # -- queries -------------------------------------------------------

    def ray_index(self, v: Sequence[int]) -> Optional[int]:
        vv = tuple(v)
        for i, ray in enumerate(self.rays):
            if ray.vector == vv:
                return i
        return None

    def labels(self, cone) -> Tuple[str, ...]:
        return tuple(self.rays[i].label for i in sorted(cone))

    def face_masks(self) -> FrozenSet[int]:
        """Every cone as a bitmask over ray indices (bit i for ray i), the
        origin (0) included, enumerated on the first call only."""
        if self._faces is None:
            self._faces = self._build_face_masks()
        return self._faces

    def _build_face_masks(self) -> FrozenSet[int]:
        # the sub-bitmasks of each maximal cone, by (sub - 1) & mask
        faces = {0}
        for cone in self.max_cones:
            mask = sum(1 << i for i in cone)
            sub = mask
            while sub:
                faces.add(sub)
                sub = (sub - 1) & mask
        return frozenset(faces)

    def all_cones(self) -> FrozenSet[FrozenSet[int]]:
        """All faces of all maximal cones, including the origin (empty set)."""
        return frozenset(
            frozenset(i for i in range(m.bit_length()) if m >> i & 1)
            for m in self.face_masks()
        )

    def census(self) -> Tuple[int, ...]:
        """Number of cones of each dimension."""
        counts = [0] * (self.dim + 1)
        for mask in self.face_masks():
            counts[mask.bit_count()] += 1
        return tuple(counts)

    def facet_opposites(self) -> FacetMap:
        """Read-only map of each facet (a maximal cone minus one ray) to its
        opposite rays, built on the first call only.

        A facet's tuple holds the missing ray of every maximal cone that
        contains it, in the order of ``max_cones``.
        """
        if self._facet_opposites is None:
            self._facet_opposites = self._build_facet_opposites()
        return self._facet_opposites

    def _build_facet_opposites(self) -> FacetMap:
        opposites: Dict[FrozenSet[int], List[int]] = {}
        for cone in self.max_cones:
            for i in sorted(cone):
                opposites.setdefault(cone - {i}, []).append(i)
        return MappingProxyType({f: tuple(o) for f, o in opposites.items()})

    def is_complete(self) -> bool:
        """Every codimension-1 face must bound exactly two maximal cones."""
        return all(len(o) == 2 for o in self.facet_opposites().values())

    def _coordinate_signs(self, cone, v: Sequence[int]) -> Tuple[List[int], List[int]]:
        """A full cone's sorted ray indices and, per ray, d * (d * x_j), where
        x holds v's coordinates in the cone's rays and d is the determinant of
        those rays: the sign of x_j.  One ``fraction_free_solve`` gives d and
        every Cramer numerator d * x_j."""
        idx = sorted(cone)
        columns = zip(*(self.rays[i].vector for i in idx))
        d, numerators = fraction_free_solve(columns, v)
        return idx, [d * x for x in numerators]

    def contains_in_cone(self, cone, v: Sequence[int]) -> bool:
        _, signs = self._coordinate_signs(cone, v)
        return all(s >= 0 for s in signs)

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
        supported on the common ray set.  It runs O(cones^2) cone-membership
        tests and is the test oracle for ``fan_defect``, which the CLI uses.
        """
        faces = self.all_cones()
        for a in self.max_cones:
            for b in self.max_cones:
                if a >= b:
                    continue
                common = a & b
                if common not in faces:
                    return False
                # rays of a outside the common face may not lie in cone(b)
                for i in a - common:
                    if self.contains_in_cone(b, self.rays[i].vector):
                        return False
                # interiors must be disjoint: the barycenter of a may lie in
                # cone(b) only when the cones coincide
                s = [0] * self.dim
                for i in a:
                    s = [x + y for x, y in zip(s, self.rays[i].vector)]
                if self.contains_in_cone(b, s) and common != a:
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, StackyFan):
            return NotImplemented
        if self.dim != other.dim:
            return False
        mine = frozenset(
            frozenset(self.rays[i].vector for i in cone) for cone in self.max_cones
        )
        theirs = frozenset(
            frozenset(other.rays[i].vector for i in cone) for cone in other.max_cones
        )
        return (
            {r.vector for r in self.rays} == {r.vector for r in other.rays}
            and mine == theirs
        )

    def __hash__(self):
        return hash((self.dim, frozenset(r.vector for r in self.rays)))

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [
                {"label": r.label, "vector": list(r.vector)} for r in self.rays
            ],
            "max_cones": [sorted(c) for c in self.max_cones],
        }


def projective_fan(n: int) -> StackyFan:
    """The standard complete fan of n-dimensional projective space."""
    if n < 1:
        raise FanError("dimension must be at least 1")
    rays = []
    for j in range(1, n + 1):
        e = tuple(1 if k == j - 1 else 0 for k in range(n))
        rays.append(Ray(f"sigma_{j}", e))
    rays.append(Ray("tau", tuple(-1 for _ in range(n))))
    cones = []
    for omit in range(n + 1):
        cones.append(frozenset(i for i in range(n + 1) if i != omit))
    return StackyFan(n, rays, cones)


def minimal_cone(fan: StackyFan, v: Sequence[int]) -> FrozenSet[int]:
    """The unique cone whose relative interior contains v."""
    vv = tuple(int(x) for x in v)
    if all(x == 0 for x in vv):
        raise FanError("zero vector has no minimal cone")
    for cone in fan.max_cones:
        idx, signs = fan._coordinate_signs(cone, vv)
        if all(s >= 0 for s in signs):
            return frozenset(i for i, s in zip(idx, signs) if s > 0)
    raise FanError(f"vector {vv} lies outside the support of the fan")


def star_subdivide(
    fan: StackyFan, v: Sequence[int], label: Optional[str] = None
) -> StackyFan:
    """Standard star subdivision at a primitive vector inside the support.

    Subdividing at an existing ray is a silent no-op: the corresponding
    modification of the moduli problem is an isomorphism.
    """
    vv = tuple(int(x) for x in v)
    if not is_primitive(vv):
        raise FanError(f"subdivision vector {vv} is not primitive")
    if fan.ray_index(vv) is not None:
        return fan
    center = minimal_cone(fan, vv)
    new_index = len(fan.rays)
    rays = list(fan.rays) + [Ray(label or f"ray_{new_index}", vv)]
    cones: List[FrozenSet[int]] = []
    for cone in fan.max_cones:
        if not center <= cone:
            cones.append(cone)
            continue
        for r in center:
            cones.append((cone - {r}) | {new_index})
    return StackyFan(fan.dim, rays, cones)


def rho_vector(n: int, j: int) -> Vector:
    """Primitive generator of the exceptional ray of the j-th blow-up level."""
    if not 1 <= j <= n:
        raise FanError("ray level out of range")
    return tuple(k + j - n if k >= n - j + 1 else 0 for k in range(1, n + 1))


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

    Built by star subdivision of the projective fan at the exceptional
    rays of ``blowup_levels(n, i)``.
    """
    levels = blowup_levels(n, i)
    fan = projective_fan(n)
    for j in levels:
        fan = star_subdivide(fan, rho_vector(n, j), label=f"rho_{j}")
    return fan


def fan_motive(fan: StackyFan) -> MultiPoly:
    """Class of the toric stack in the Grothendieck ring, as a polynomial in L.

    Each cone of dimension d contributes a torus factor (L-1)^(n-d): one torus
    orbit per cone, so this holds for any fan, complete or not.
    """
    lm1 = MultiPoly.var("L") - 1
    total = MultiPoly.const(0)
    for count, dim in zip(fan.census(), range(fan.dim + 1)):
        total = total + count * (lm1 ** (fan.dim - dim))
    return total


def is_palindromic(motive: MultiPoly) -> bool:
    """Dehn–Sommerville: the coefficients of a complete fan's motive are symmetric.

    The motive is the h-polynomial of the fan in L, and the h-vector of a
    complete simplicial fan reads the same reversed.
    """
    coeffs = [0] * (motive.degree() + 1)
    for exp, c in motive.terms.items():
        coeffs[sum(exp)] += c
    return coeffs == coeffs[::-1]


def involution_matrix(n: int) -> List[List[int]]:
    """Lattice involution induced by inverting the line's coordinate.

    On characters the involution sends the degree-k elementary symmetric
    function to the degree-(n-k) one divided by the top one; the map
    below is its adjoint on the cocharacter lattice.
    """
    m = [[0] * n for _ in range(n)]
    for k in range(1, n):
        m[n - k - 1][k - 1] = 1
    for j in range(n):
        m[j][n - 1] = -1
    return m


def apply_matrix(m: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def rho_inf_vector(n: int, j: int) -> Vector:
    return apply_matrix(involution_matrix(n), rho_vector(n, j))


def hilb_fan_two_sided(n: int, i_zero: int, i_inf: int) -> StackyFan:
    """Fan for points on the line relative to both toric fixed points.

    The rays on the infinity side are the images of the exceptional rays
    under the coordinate-inversion involution; correctness is accepted
    via census and Euler-characteristic cross-checks, not assumed.
    """
    zero_levels, inf_levels = blowup_levels(n, i_zero), blowup_levels(n, i_inf)
    fan = projective_fan(n)
    for j in zero_levels:
        fan = star_subdivide(fan, rho_vector(n, j), label=f"rho_{j}")
    for j in inf_levels:
        fan = star_subdivide(fan, rho_inf_vector(n, j), label=f"rho_inf_{j}")
    return fan
