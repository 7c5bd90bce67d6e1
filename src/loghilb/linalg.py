"""Exact integer linear algebra.

Integer elimination works on sparse rows, maps ``{column: entry}`` that hold
no zero entry, and one private row update, ``_subtract``, serves every pass
over them.  ``hermite_normal_form`` takes such rows and returns the nonzero
rows of the row-style Hermite normal form, without a transform matrix.  Its
pivoting is Euclidean, over the live rows of each column, found by one scan,
on cores of up to a few thousand rows and a few hundred columns (2,205 × 171
at n = 7, 3.2 % nonzero; its Hermite rows are 1.6 % nonzero).  Invariant
factors come from alternating Hermite forms of a matrix and its transpose,
both sparse, until each row has a single nonzero entry (Kannan–Bachem, SIAM
J. Comput. 8, 1979), then from one pairwise gcd/lcm pass over the diagonal.

Sparse relation matrices, mostly +-1, are first brought to a
``ReducedForm`` (``reduced_form``): +-1 pivots are eliminated in Markowitz
order, and the Hermite kernel runs only on the remaining core (Dumas,
Saunders and Villard, J. Symb. Comp. 32, 2001).  The form is one echelon
basis, the +-1 pivot rows and then the core's Hermite rows.  It answers
row-span membership with no further Hermite form, and starts the alternation
for invariant factors from the transposed Hermite rows; when the pivots
clear the whole core, the factors are the pivots' 1s, with no Hermite form
at all.  The degree-1 form serves the Chow layer's linear solve too: its
pivots are the variables to eliminate, their residues their images.

``invariant_factors`` and ``in_row_span_z`` take dense matrices, lists of
lists of Python integers, since ``bench/spans.py`` reads their arguments as
dense rows; they make sparse rows of them on entry.  Dense lists are
otherwise left only to square systems, which have one fraction-free
(Bareiss) elimination serving both ``det`` and ``fraction_free_solve``: one
pass over ``[m | b]`` gives the determinant and every Cramer numerator at
once.  From them the fan layer reads cone membership; star subdivision needs
neither.

``in_row_span_z`` (a Hermite form per query) and ``rational_solve``
(Cramer's rule over ``Fraction``, imported on call) are test oracles; they
stay here because ``bench/spans.py`` traces them by name.
"""

from __future__ import annotations

from math import gcd
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from fractions import Fraction

Matrix = List[List[int]]
SparseRow = Dict[int, int]


def _as_lists(m) -> Matrix:
    return [list(map(int, row)) for row in m]


def _sparse(m) -> List[SparseRow]:
    return [{j: int(x) for j, x in enumerate(row) if x} for row in m]


def _bareiss(a: Matrix, n: int) -> int:
    """Fraction-free elimination of the first n columns of the n-row matrix a,
    in place, with row swaps; later columns ride along.

    Returns the sign of the row permutation, or 0 when the leading n x n
    block is singular.  Afterwards a[k][j] (j >= k) is a minor of the
    permuted matrix: rows 0..k and columns 0..k-1 and j.  So a[n-1][n-1] is
    the permuted block's determinant, and an extra column j holds that
    determinant with the last block column replaced by column j (Bareiss,
    Math. Comp. 22, 1968).  Every division is exact.
    """
    width = len(a[0]) if n else 0
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k]
        p = pivot[k]
        for i in range(k + 1, n):
            row = a[i]
            q = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * p - q * pivot[j]) // prev
            row[k] = 0
        prev = p
    return sign


def det(m) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = _as_lists(m)
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(a, n) * a[n - 1][n - 1]


def fraction_free_solve(m, b: Sequence[int]) -> Tuple[int, List[int]]:
    """Solve the square integer system m*x = b without fractions.

    Returns ``(d, [d*x_j])`` with d = det(m), so that each ``d*x_j`` is the
    Cramer numerator det(m with column j replaced by b); returns ``(0, [])``
    when m is singular.  One Bareiss pass over ``[m | b]`` and an integer
    back-substitution give every numerator at once, in place of the n + 1
    determinants of Cramer's rule.
    """
    rows = _as_lists(m)
    n = len(rows)
    if len(b) != n or any(len(r) != n for r in rows):
        raise ValueError("dimension mismatch")
    a = [row + [int(x)] for row, x in zip(rows, b)]
    sign = _bareiss(a, n)
    if sign == 0:
        return 0, []
    d = a[n - 1][n - 1] if n else 1
    # y_j = d * x_j for the permuted system, which has the same solution
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        y[i] = (d * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return sign * d, [sign * v for v in y]


def _subtract(row: SparseRow, q: int, pivot: Mapping[int, int]) -> None:
    """row -= q * pivot, in place, for q != 0; an entry that cancels leaves
    the row, so no row holds a zero."""
    for j, v in pivot.items():
        new = row.get(j, 0) - q * v
        if new:
            row[j] = new
        else:
            del row[j]


def hermite_normal_form(rows: Iterable[Mapping[int, int]]) -> List[SparseRow]:
    """Nonzero rows of the row-style Hermite normal form H of the matrix with
    the given sparse rows {column: entry}, reached by unimodular row
    operations; the input rows are left as they are.

    H is in row echelon form over the columns in increasing order, with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Its rows hold no zero entry, so a row's lead column is ``min(row)``.
    Each column gcds its live rows, those nonzero there at or below the
    current row, into the current row by Euclidean steps whose pivot is the
    live row of least absolute entry.  The pivot row and every row below it
    are zero left of the column, so ``_subtract`` touches no earlier column.
    """
    a = [row for row in ({j: v for j, v in m.items() if v} for m in rows) if row]
    r = 0
    for c in sorted({j for row in a for j in row}):
        live = [i for i in range(r, len(a)) if c in a[i]]
        if not live:
            continue
        while True:
            piv = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[piv] = a[piv], a[r]
            # the row from r is now at piv, live if it holds c; rest keeps row order,
            # so ties go to the lowest row (other orders grew entries at n = 8)
            rest = [i for i in live if i != (r if c in a[piv] else piv)]
            if not rest:
                break
            pivot = a[r]
            for i in rest:
                _subtract(a[i], a[i][c] // pivot[c], pivot)
            live = [r] + [i for i in rest if c in a[i]]
        pivot = a[r]
        if pivot[c] < 0:
            for j in pivot:
                pivot[j] = -pivot[j]
        for i in range(r):
            q = a[i].get(c, 0) // pivot[c]
            if q:
                _subtract(a[i], q, pivot)
        r += 1
        if r == len(a):
            break
    return a[:r]


def invariant_factors(m) -> List[int]:
    """Nonzero diagonal entries of the Smith normal form of the dense matrix m.

    Row-style Hermite forms of the matrix and of its transpose alternate
    until every row has a single nonzero entry.
    """
    a = _sparse(m)
    while True:
        a = hermite_normal_form(a)
        if all(len(row) == 1 for row in a):
            break
        columns: Dict[int, SparseRow] = {}
        for i, row in enumerate(a):
            for j, v in row.items():
                columns.setdefault(j, {})[i] = v
        a = [columns[j] for j in sorted(columns)]
    diag = [abs(v) for row in a for v in row.values()]
    # a diagonal reached by unimodular operations gives the invariant factors
    # after one pairwise gcd/lcm pass: once position i is done it divides every
    # later entry, and the gcd and lcm of two multiples of it are multiples of it
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i] != 0:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return sorted(diag)


def in_row_span_z(m, target: Sequence[int]) -> bool:
    """Is the target vector an integer combination of the rows of the dense
    matrix m?

    Test oracle for ``ReducedForm.residue``.
    """
    b = _sparse([target])[0]
    for row in hermite_normal_form(_sparse(m)):
        lead = min(row)
        q, left = divmod(b.get(lead, 0), row[lead])
        if left:
            return False
        if q:
            _subtract(b, q, row)
    return not b


def eliminate_unit_pivots(
    rows: Iterable[Mapping[int, int]],
) -> Tuple[List[Tuple[int, SparseRow]], List[SparseRow]]:
    """Eliminate +-1 pivots from sparse rows {column: entry}, in Markowitz order.

    Each step takes the +-1 entry that minimises (row nonzeros - 1) *
    (column nonzeros - 1), ties going to the lower row, then the lower
    column, and clears its column from every other remaining row.  Returns
    the pivot rows in pivot order, each with its column, and the remaining
    nonzero rows (the core), in input order.  The pivot rows and the core
    span the same lattice as the input.  A pivot row is zero in the columns
    of earlier pivots, and the core is zero in every pivot column.

    A column-to-rows index and the row and column counts are kept up to date
    as rows change: after each row update, from the row's entries in the
    pivot's columns.  Candidate entries sit in a heap under the cost they had
    when pushed: an entry is pushed again whenever its cost falls, and one
    popped under a cost that has since risen goes back under the new cost,
    so the entry taken always has the least cost.  ``heapq`` is imported on
    call, so that jobs without graded groups do not load it at start-up.
    """
    import heapq

    active: Dict[int, SparseRow] = {}
    columns: Dict[int, Set[int]] = {}
    for k, row in enumerate(rows):
        clean = {j: v for j, v in row.items() if v}
        if clean:
            active[k] = clean
            for j in clean:
                columns.setdefault(j, set()).add(k)
    heap: List[Tuple[int, int, int]] = [
        ((len(row) - 1) * (len(columns[j]) - 1), k, j)
        for k, row in active.items()
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapq.heapify(heap)
    pivots: List[Tuple[int, SparseRow]] = []
    while heap:
        cost, k, c = heapq.heappop(heap)
        pivot = active.get(k)
        if pivot is None or pivot.get(c) not in (1, -1):
            continue
        now = (len(pivot) - 1) * (len(columns[c]) - 1)
        if now != cost:
            heapq.heappush(heap, (now, k, c))
            continue
        del active[k]
        pivots.append((c, pivot))
        # columns whose count falls: those of the pivot row, which hold every
        # entry that cancels
        for j in pivot:
            columns[j].discard(k)
        for other in sorted(columns[c]):
            row = active[other]
            _subtract(row, row[c] * pivot[c], pivot)
            for j in pivot:
                if j in row:
                    columns[j].add(other)
                else:
                    columns[j].discard(other)
            if not row:
                del active[other]
                continue
            size = len(row) - 1
            for j, v in row.items():
                if v == 1 or v == -1:
                    heapq.heappush(heap, (size * (len(columns[j]) - 1), other, j))
        for j in pivot:
            count = len(columns[j]) - 1
            for other in columns[j]:
                row = active[other]
                if row[j] in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * count, other, j))
    return pivots, [active[k] for k in sorted(active)]


class ReducedForm(NamedTuple):
    """The row lattice of an integer matrix with ``ncols`` columns, as one
    echelon basis of sparse rows, each with its lead column: first the
    ``units`` +-1 pivot rows of ``eliminate_unit_pivots``, in pivot order,
    then the Hermite rows of the remaining core."""

    ncols: int
    units: int
    basis: Tuple[Tuple[int, SparseRow], ...]

    def invariant_factors(self) -> List[int]:
        """Those of the matrix: a pivot is a unimodular step with factor 1,
        and the alternation starts from the core's Hermite rows, transposed;
        an empty core, all of whose rows the pivots cleared, adds nothing."""
        core = self.basis[self.units:]
        columns = sorted({j for _, row in core for j in row})
        transpose = [[row.get(j, 0) for _, row in core] for j in columns]
        return [1] * self.units + (invariant_factors(transpose) if core else [])

    def residue(self, target: Mapping[int, int]) -> SparseRow:
        """What is left of a vector {column: entry} after reduction against
        the basis rows, in order; empty exactly when the vector lies in the
        integer row span.  On a +-1 pivot the quotient is exact."""
        b = {j: v for j, v in target.items() if v}
        for lead, row in self.basis:
            q = b.get(lead, 0) // row[lead]
            if q:
                _subtract(b, q, row)
        return dict(sorted(b.items()))


def reduced_form(rows: Iterable[Mapping[int, int]], ncols: int) -> ReducedForm:
    """The ``ReducedForm`` of the matrix with the given sparse rows: the unit
    pass, then the Hermite form of the core it leaves."""
    pivots, core = eliminate_unit_pivots(rows)
    hermite = tuple((min(row), row) for row in hermite_normal_form(core))
    return ReducedForm(ncols, len(pivots), tuple(pivots) + hermite)


def rational_solve(a, b: Sequence[int]) -> List[Fraction]:
    """Solve the square integer system A*x = b exactly by Cramer's rule.

    Raises ValueError when A is singular or the shapes do not match.  Test
    oracle for ``fraction_free_solve`` and ``StackyFan.contains_in_cone``;
    it stays in ``src/`` because ``bench/spans.py`` traces it by name.
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
