"""Tests for exact integer linear algebra.

The Smith normal form with unimodular transforms below is the reference
implementation: the package computes invariant factors from alternating
Hermite forms instead, and the differential tests compare the two (and
sympy, when installed) on random matrices.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loghilb import linalg
from loghilb.linalg import (
    det,
    eliminate_unit_pivots,
    fraction_free_solve,
    hermite_normal_form,
    in_row_span_z,
    invariant_factors,
    rational_solve,
    reduced_form,
)

Matrix = List[List[int]]


# ---------------------------------------------------------------------------
# reference implementation


@dataclass(frozen=True)
class IntMatrix:
    """Thin immutable wrapper around a dense integer matrix."""

    rows: int
    cols: int
    entries: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged matrix")
        return IntMatrix(len(data), ncols, data)

    def to_lists(self) -> Matrix:
        return [list(r) for r in self.entries]


def _as_lists(m) -> Matrix:
    if isinstance(m, IntMatrix):
        return m.to_lists()
    return [list(map(int, row)) for row in m]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for p in range(k):
            c = ai[p]
            if c:
                bp = b[p]
                row = out[i]
                for j in range(m):
                    row[j] += c * bp[j]
    return out


def smith_normal_form(m) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*M*V = D in Smith normal form.

    U and V are unimodular; the diagonal of D is non-negative and each
    entry divides the next.
    """
    a = _as_lists(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = identity(nrows)
    v = identity(ncols)

    def pivot_search(start: int) -> Optional[Tuple[int, int]]:
        best = None
        for i in range(start, nrows):
            for j in range(start, ncols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nrows, ncols):
        loc = pivot_search(t)
        if loc is None:
            break
        i, j = loc
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        # one Euclidean step on column t and row t; a nonzero remainder is
        # smaller than the pivot, so searching again shrinks the pivot
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                for j in range(ncols):
                    a[i][j] -= q * a[t][j]
                for j in range(nrows):
                    u[i][j] -= q * u[t][j]
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for i in range(nrows):
                    a[i][j] -= q * a[i][t]
                for i in range(ncols):
                    v[i][j] -= q * v[i][t]
        if any(a[i][t] for i in range(t + 1, nrows)) or any(
            a[t][j] for j in range(t + 1, ncols)
        ):
            continue
        # enforce divisibility of the remaining block by the pivot
        pivot = a[t][t]
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % pivot != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(ncols):
                a[t][j] += a[bad][j]
            for j in range(nrows):
                u[t][j] += u[bad][j]
            continue  # redo this pivot
        if pivot < 0:
            for j in range(ncols):
                a[t][j] = -a[t][j]
            for j in range(nrows):
                u[t][j] = -u[t][j]
        t += 1
    return a, u, v


def snf_diagonal(m) -> List[int]:
    """Nonzero diagonal of the reference Smith normal form."""
    d, _, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


# ---------------------------------------------------------------------------
# random matrices


ENTRIES = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6):
    """Dense matrices with 0..max_rows rows, some rows and columns zeroed."""
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    m = draw(
        st.lists(
            st.lists(ENTRIES, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max_rows - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1)))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


@st.composite
def square_matrices(draw, max_size=5):
    n = draw(st.integers(min_value=1, max_value=max_size))
    return draw(
        st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    )


# ---------------------------------------------------------------------------
# reference implementation checks


def test_det_small():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0


def test_det_non_square_raises():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def cofactor_det(m) -> int:
    """Determinant by cofactor expansion along the first row (oracle)."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data())
def test_det_matches_cofactor_expansion(a, data):
    # half the draws get a dependent last row, so zero pivots and singular
    # matrices are common
    n = len(a)
    if n >= 2 and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum(c * a[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    assert det(a) == cofactor_det(a)


def test_det_with_zero_leading_pivots():
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2], [0, 3]]) == 0
    assert det([]) == 1


def test_fraction_free_solve_small():
    # 2x + y = 5, x - y = 1: x = 2, y = 1, det = -3
    assert fraction_free_solve([[2, 1], [1, -1]], [5, 1]) == (-3, [-6, -3])
    # a zero leading pivot needs a row swap
    assert fraction_free_solve([[0, 1], [1, 0]], [3, 4]) == (-1, [-4, -3])
    assert fraction_free_solve([[1, 1], [1, 1]], [1, 2]) == (0, [])
    with pytest.raises(ValueError):
        fraction_free_solve([[1, 1]], [1])
    with pytest.raises(ValueError):
        fraction_free_solve([[1, 0], [0, 1]], [1])


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data())
def test_fraction_free_solve_matches_rational_solve(a, data):
    n = len(a)
    b = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    d, numerators = fraction_free_solve(a, b)
    assert d == det(a)
    if d == 0:
        assert numerators == []
        return
    assert [Fraction(y, d) for y in numerators] == rational_solve(a, b)


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.data())
def test_fraction_free_solve_singular(a, data):
    n = len(a)
    assume(n >= 2)
    coeffs = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    a[-1] = [sum(c * a[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    b = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    assert fraction_free_solve(a, b) == (0, [])


def test_int_matrix_wrapper():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.to_lists() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1], [2, 3]])


def _is_snf(d, nrows, ncols):
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    for i in range(nrows):
        for j in range(ncols):
            if i != j and d[i][j] != 0:
                return False
    nonzero = [x for x in diag if x != 0]
    if any(x < 0 for x in diag):
        return False
    for a, b in zip(nonzero, nonzero[1:]):
        if b % a != 0:
            return False
    # zeros only after all nonzero entries
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def _check_snf(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, [list(r) for r in m]), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    assert _is_snf(d, len(m), len(m[0]))
    return d


def test_snf_known_example():
    d = _check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [d[i][i] for i in range(3)] == [2, 2, 156]


def test_snf_rectangular():
    d = _check_snf([[1, 2, 3], [4, 5, 6]])
    assert [d[0][0], d[1][1]] == [1, 3]


# ---------------------------------------------------------------------------
# the kernel and what is built on it


def test_invariant_factors_match_snf_diagonal():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert invariant_factors(m) == [2, 2, 156]
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[6, 0], [0, 4]]) == [2, 12]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_snf_random(m):
    d = _check_snf(m)
    diag = [d[i][i] for i in range(min(len(m), 3)) if d[i][i] != 0]
    assert invariant_factors(m) == diag


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_invariant_factors_match_reference(m):
    assert invariant_factors(m) == snf_diagonal(m)


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_invariant_factors_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    if not m:
        expected = []
    else:
        d = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        expected = sorted(abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i])
    assert invariant_factors(m) == expected


def fixed_point_gcd_lcm(entries) -> List[int]:
    """Oracle for the normalization in ``invariant_factors``: pairwise gcd/lcm
    passes over the diagonal, repeated until one pass changes nothing."""
    diag = list(entries)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return sorted(diag)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), max_size=7))
@example((4, 6, 10))
@example((12, 18, 8, 27))
def test_invariant_factors_of_a_diagonal_match_fixed_point_oracle(entries):
    n = len(entries)
    diagonal = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)]
    assert invariant_factors(diagonal) == fixed_point_gcd_lcm(entries)


def sparse(m: Matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense(rows, ncols: int) -> Matrix:
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_hermite_row_style():
    m = [[2, 3, 6, 2], [5, 6, 1, 6], [8, 3, 1, 1]]
    h = hermite_normal_form(sparse(m))
    assert h == [{0: 1, 2: 50, 3: -11}, {1: 3, 2: 28, 3: -2}, {2: 61, 3: -13}]
    # echelon with positive pivots, entries above pivots reduced
    leads = [min(row) for row in h]
    assert leads == sorted(set(leads))
    for i, row in enumerate(h):
        lead = leads[i]
        assert row[lead] > 0
        assert all(0 <= h[k].get(lead, 0) < row[lead] for k in range(i))
    # columns are taken in increasing order, whatever order a row lists them in
    assert hermite_normal_form([dict(reversed(row.items())) for row in sparse(m)]) == h


def full_row_hermite_normal_form(m) -> Matrix:
    """Oracle for ``hermite_normal_form``: the same elimination on dense rows,
    with each row update over the whole row rather than over the pivot's
    nonzero entries."""
    a = _as_lists(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c] != 0 and (piv is None or abs(a[i][c]) < abs(a[piv][c])):
                piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        while True:
            nonzero = [i for i in range(r + 1, nrows) if a[i][c] != 0]
            if not nonzero:
                break
            top = a[r]
            for i in nonzero:
                q = a[i][c] // top[c]
                a[i] = [x - q * y for x, y in zip(a[i], top)]
            piv = r
            for i in range(r + 1, nrows):
                if a[i][c] != 0 and abs(a[i][c]) < abs(a[piv][c]):
                    piv = i
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        top = a[r]
        for i in range(r):
            q = a[i][c] // top[c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        r += 1
        if r == nrows:
            break
    return a


@settings(max_examples=300, deadline=None)
@given(int_matrices(max_rows=8, max_cols=8))
# first columns that take three and seven Euclidean rounds over several live rows
@example([[21, 1, 0], [13, 2, 1], [8, 0, 3], [5, 1, 1], [0, 4, 2], [34, 3, 5]])
@example([[18, 1, 2], [28, 0, 1], [33, 2, 0], [-18, 1, 1], [-36, 3, 0], [-44, 0, 1]])
def test_hermite_suffix_updates_match_full_row_oracle(m):
    rows = sparse(m)
    before = [dict(row) for row in rows]
    h = hermite_normal_form(rows)
    ncols = len(m[0]) if m else 0
    assert dense(h, ncols) == [row for row in full_row_hermite_normal_form(m) if any(row)]
    assert all(row and all(row.values()) for row in h)
    assert rows == before


@settings(max_examples=300, deadline=None)
@given(int_matrices(max_rows=8, max_cols=8), st.data())
def test_hermite_rows_are_nonzero_echelon_rows(m, data):
    # int_matrices zeroes some rows and columns; the maps also keep some
    # zero entries and list their columns in a drawn order
    ncols = len(m[0]) if m else 1
    columns = st.sets(st.integers(0, ncols - 1))
    kept = data.draw(st.lists(columns, min_size=len(m), max_size=len(m)))
    order = data.draw(st.permutations(range(ncols)))
    rows = [{j: row[j] for j in order if row[j] or j in keep} for row, keep in zip(m, kept)]
    before = [dict(row) for row in rows]
    h = hermite_normal_form(rows)
    for row in h:
        assert all(row.values())
        assert row[min(row)] > 0
    assert dense(h, ncols) == [row for row in full_row_hermite_normal_form(m) if any(row)]
    assert rows == before


def test_in_row_span_z():
    m = [[1, 0, 0], [0, 2, 0]]
    assert in_row_span_z(m, [3, 4, 0])
    assert not in_row_span_z(m, [0, 1, 0])
    assert not in_row_span_z(m, [0, 0, 1])
    assert in_row_span_z([], [0, 0])
    assert not in_row_span_z([], [1, 0])


def _product(xs):
    out = 1
    for x in xs:
        out *= x
    return out


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.data())
def test_in_row_span_z_matches_reference(m, data):
    ncols = len(m[0]) if m else data.draw(st.integers(min_value=1, max_value=6))
    coeffs = data.draw(st.lists(ENTRIES, min_size=len(m), max_size=len(m)))
    noise = data.draw(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=ncols, max_size=ncols)
    )
    # an integer combination of the rows, sometimes moved off the lattice
    b = [sum(c * row[j] for c, row in zip(coeffs, m)) + noise[j] for j in range(ncols)]
    before = snf_diagonal(m) if m else []
    after = snf_diagonal(m + [b])
    # the lattice grows exactly when the rank or the product of the
    # invariant factors changes
    expected = len(after) == len(before) and _product(after) == _product(before)
    assert in_row_span_z(m, b) == expected


# ---------------------------------------------------------------------------
# the sparse reduced form against the dense kernel


def naive_unit_pivots(m: Matrix):
    """Oracle for ``eliminate_unit_pivots``: every step rescans the remaining
    rows for the +-1 entry of least (cost, row, column)."""
    active = dict(enumerate(sparse(m)))
    active = {k: row for k, row in active.items() if row}
    pivots = []
    while True:
        counts = {}
        for row in active.values():
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        candidates = [
            ((len(row) - 1) * (counts[j] - 1), k, j)
            for k, row in active.items()
            for j, x in row.items()
            if x in (1, -1)
        ]
        if not candidates:
            return pivots, [active[k] for k in sorted(active)]
        _, k, c = min(candidates)
        pivot = active.pop(k)
        pivots.append((c, pivot))
        for other in list(active):
            row = active[other]
            q = row.get(c, 0) * pivot[c]
            if q:
                for j, x in pivot.items():
                    row[j] = row.get(j, 0) - q * x
                    if not row[j]:
                        del row[j]
                if not row:
                    del active[other]


UNIT_HEAVY = st.sampled_from((0, 0, 0, 0, 1, 1, -1, -1, 2, -2, 3, -5))


@st.composite
def sparse_unit_matrices(draw, max_rows=9, max_cols=7):
    """Sparse matrices, mostly +-1, with some zero rows; may have no rows."""
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    m = draw(
        st.lists(
            st.lists(UNIT_HEAVY, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for i in draw(st.sets(st.integers(min_value=0, max_value=max_rows - 1))):
        if i < nrows:
            m[i] = [0] * ncols
    return m, ncols


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        sparse_unit_matrices(),
        # general entries leave cores whose Hermite rows are not diagonal
        int_matrices().map(lambda m: (m, len(m[0]) if m else 1)),
    )
)
def test_reduced_form_invariant_factors_match_dense(case):
    m, ncols = case
    assert reduced_form(sparse(m), ncols).invariant_factors() == invariant_factors(m)


def test_reduced_form_invariant_factors_reuse_the_core_hermite_rows(monkeypatch):
    # no +-1 entry, so the whole matrix is the core; its Hermite rows are not
    # diagonal, and the dense route computes them once more than the form does
    m = [[2, 4], [0, 6]]
    form = reduced_form(sparse(m), 2)
    assert [row for _, row in form.basis] == [{0: 2, 1: 4}, {1: 6}]
    calls = []
    hermite = linalg.hermite_normal_form

    def counted(a):
        calls.append(1)
        return hermite(a)

    monkeypatch.setattr(linalg, "hermite_normal_form", counted)
    assert form.invariant_factors() == [2, 6]
    assert len(calls) == 1  # of the transposed Hermite rows, now diagonal
    calls.clear()
    assert invariant_factors(m) == [2, 6]
    assert len(calls) == 2  # of m, then of its transposed Hermite rows


@settings(max_examples=300, deadline=None)
@given(sparse_unit_matrices(), st.data())
def test_reduced_form_membership_matches_dense(case, data):
    m, ncols = case
    coeffs = data.draw(st.lists(ENTRIES, min_size=len(m), max_size=len(m)))
    noise = data.draw(st.lists(UNIT_HEAVY, min_size=ncols, max_size=ncols))
    off = data.draw(st.booleans())
    b = [
        sum(c * row[j] for c, row in zip(coeffs, m)) + (noise[j] if off else 0)
        for j in range(ncols)
    ]
    left = reduced_form(sparse(m), ncols).residue(dict(enumerate(b)))
    assert (not left) == in_row_span_z(m, b)
    assert all(left.values()) and list(left) == sorted(left)
    # what was taken away lies in the row span
    assert in_row_span_z(m, [b[j] - left.get(j, 0) for j in range(ncols)])


@settings(max_examples=300, deadline=None)
@given(sparse_unit_matrices())
def test_reduced_form_basis_rows_reduce_to_nothing(case):
    m, ncols = case
    form = reduced_form(sparse(m), ncols)
    leads = [lead for lead, _ in form.basis]
    assert all(row[lead] for lead, row in form.basis)
    assert len(set(leads)) == len(leads)
    assert all(form.residue(row) == {} for _, row in form.basis)


@settings(max_examples=200, deadline=None)
@given(sparse_unit_matrices())
def test_unit_pivots_in_markowitz_order(case):
    m, _ = case
    pivots, core = eliminate_unit_pivots(sparse(m))
    assert (pivots, core) == naive_unit_pivots(m)
    seen = []
    for c, row in pivots:
        assert row[c] in (1, -1) and not any(j in row for j in seen)
        seen.append(c)
    assert all(row and not any(j in row for j in seen) for row in core)


def test_reduced_form_of_the_empty_matrix():
    form = reduced_form([], 3)
    assert form.invariant_factors() == []
    assert form.residue({}) == {} and form.residue({0: 0}) == {}
    assert form.residue({2: 4, 0: -1}) == {0: -1, 2: 4}
    assert reduced_form([{}, {}], 2).invariant_factors() == []


def test_reduced_form_keeps_torsion_in_the_core():
    # x - y has a unit pivot; 2y stays in the core
    form = reduced_form([{0: 1, 1: -1}, {1: 2}], 2)
    assert form.units == 1 and form.basis == ((0, {0: 1, 1: -1}), (1, {1: 2}))
    assert form.invariant_factors() == [1, 2]
    assert form.residue({0: 1}) == {1: 1}
    assert form.residue({0: 2}) == {}


def test_reduced_form_with_an_empty_core_runs_no_alternation(monkeypatch):
    # both rows are unit pivots, so no core is left to take a Smith form of
    def refused(m):
        raise AssertionError("invariant_factors called on an empty core")

    monkeypatch.setattr(linalg, "invariant_factors", refused)
    assert reduced_form([{0: 1}, {1: -1}], 2).invariant_factors() == [1, 1]


def test_rational_solve_unique():
    x = rational_solve([[2, 1], [1, -1]], [5, 1])
    assert x == [Fraction(2), Fraction(1)]


def test_rational_solve_fractional():
    x = rational_solve([[2, 0], [0, 3]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]


def test_rational_solve_inconsistent():
    with pytest.raises(ValueError):
        rational_solve([[1, 1], [1, 1]], [1, 2])


def test_rational_solve_underdetermined():
    with pytest.raises(ValueError):
        rational_solve([[1, 1]], [1])


def test_rational_solve_singular_raises():
    # consistent but singular: Cramer's rule has no unique answer
    with pytest.raises(ValueError):
        rational_solve([[1, 1], [1, 1]], [1, 1])


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_rational_solve_random(a, data):
    n = len(a)
    assume(det(a) != 0)
    b = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    x = rational_solve(a, b)
    assert all(isinstance(xi, Fraction) for xi in x)
    assert [sum(aij * xj for aij, xj in zip(row, x)) for row in a] == b


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.data())
def test_rational_solve_random_singular(a, data):
    n = len(a)
    assume(n >= 2)
    # make the last row an integer combination of the others
    coeffs = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    a[-1] = [sum(c * a[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    b = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    assert len(snf_diagonal(a)) < n
    with pytest.raises(ValueError):
        rational_solve(a, b)
