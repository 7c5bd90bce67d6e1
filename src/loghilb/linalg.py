"""Exact integer linear algebra.

All matrices are plain lists of lists of Python integers (arbitrary
precision).  There is one integer row-elimination kernel,
``hermite_normal_form``, which computes the row-style Hermite normal form
without a transform matrix.  Membership in the integer row span reduces a
vector against that form, and invariant factors come from alternating
Hermite forms of a matrix and its transpose until each row has a single
nonzero entry (Kannan–Bachem).  ``rational_solve`` (Cramer's rule over
``Fraction``, imported on call) is only a test oracle.  Naive Euclidean
pivoting is entirely adequate at the matrix sizes that occur here (a few
hundred rows/columns).
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = List[List[int]]


def _as_lists(m) -> Matrix:
    return [list(map(int, row)) for row in m]


def det(m) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = _as_lists(m)
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hermite_normal_form(m) -> Matrix:
    """Row-style Hermite normal form H of m, reached by unimodular row operations.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).
    """
    a = _as_lists(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        # gcd the column below row r into position r
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
            for i in nonzero:
                q = a[i][c] // a[r][c]
                for j in range(ncols):
                    a[i][j] -= q * a[r][j]
            piv = r
            for i in range(r + 1, nrows):
                if a[i][c] != 0 and abs(a[i][c]) < abs(a[piv][c]):
                    piv = i
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                for j in range(ncols):
                    a[i][j] -= q * a[r][j]
        r += 1
        if r == nrows:
            break
    return a


def invariant_factors(m) -> List[int]:
    """Nonzero diagonal entries of the Smith normal form.

    Row-style Hermite forms of the matrix and of its transpose alternate,
    zero rows dropped, until every row has a single nonzero entry.
    """
    a = m
    while True:
        a = [row for row in hermite_normal_form(a) if any(row)]
        if all(sum(1 for x in row if x) == 1 for row in a):
            break
        a = [list(col) for col in zip(*a)]
    diag = [abs(x) for row in a for x in row if x]
    # a diagonal reached by unimodular operations determines the invariant
    # factors after pairwise gcd/lcm normalization of its entries
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


def in_row_span_z(m, target: Sequence[int]) -> bool:
    """Is the target vector an integer combination of the rows of m?"""
    if not m:
        return all(x == 0 for x in target)
    h = hermite_normal_form(m)
    b = list(map(int, target))
    ncols = len(b)
    for row in h:
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            break
        if b[lead] != 0:
            if b[lead] % row[lead] != 0:
                return False
            q = b[lead] // row[lead]
            for j in range(ncols):
                b[j] -= q * row[j]
    return all(x == 0 for x in b)


def rational_solve(a, b: Sequence[int]) -> List[Fraction]:
    """Solve the square integer system A*x = b exactly by Cramer's rule.

    Raises ValueError when A is singular or the shapes do not match.  Test
    oracle for ``StackyFan.contains_in_cone`` and ``fan.minimal_cone``; it
    stays in ``src/`` because ``bench/spans.py`` traces it by name.
    ``Fraction`` is imported on call, so importing this module does not
    load ``fractions`` and ``decimal``.
    """
    from fractions import Fraction

    rows = _as_lists(a)
    rhs = list(map(int, b))
    if len(rhs) != len(rows):
        raise ValueError("dimension mismatch")
    d = det(rows)
    if d == 0:
        raise ValueError("singular system")
    return [
        Fraction(det([row[:j] + [x] + row[j + 1:] for row, x in zip(rows, rhs)]), d)
        for j in range(len(rows))
    ]
