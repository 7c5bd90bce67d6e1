"""Tests for exact integer linear algebra.

The Smith normal form with unimodular transforms below is the reference
implementation: the package computes invariant factors from alternating
Hermite forms instead, and the differential tests compare the two (and
sympy, when installed) on random matrices.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from loghilb.linalg import (
    det,
    hermite_normal_form,
    in_row_span_z,
    invariant_factors,
    rational_solve,
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


def test_hermite_row_style():
    m = [[2, 3, 6, 2], [5, 6, 1, 6], [8, 3, 1, 1]]
    h = hermite_normal_form(m)
    assert h == [[1, 0, 50, -11], [0, 3, 28, -2], [0, 0, 61, -13]]
    # echelon with positive pivots, entries above pivots reduced
    pivots = []
    for i, row in enumerate(h):
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None:
            assert row[lead] > 0
            assert all(0 <= h[k][lead] < row[lead] for k in range(i))
            pivots.append(lead)
    assert pivots == sorted(pivots)


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
