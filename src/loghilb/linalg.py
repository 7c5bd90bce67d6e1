"""Exact integer linear algebra.

Dense matrices are plain lists of lists of Python integers (arbitrary
precision).  There is one dense integer row-elimination kernel,
``hermite_normal_form``, which computes the nonzero rows of the row-style
Hermite normal form without a transform matrix.  Its pivoting is Euclidean,
over the live rows of each column, found by one scan, on cores of up to a
few thousand rows and a few hundred columns (2,205 × 171 at n = 7).
Invariant factors come from alternating Hermite forms of a matrix and its
transpose until each row has a single nonzero entry (Kannan–Bachem, SIAM J.
Comput. 8, 1979), then from one pairwise gcd/lcm pass over the diagonal.

Sparse relation matrices, mostly +-1, are first brought to a
``ReducedForm`` (``reduced_form``): +-1 pivots are eliminated on dict rows
in Markowitz order, and the dense kernel runs only on the remaining core
(Dumas, Saunders and Villard, J. Symb. Comp. 32, 2001).  The form is one
echelon basis, the +-1 pivot rows and then the core's Hermite rows.  It
answers row-span membership with no further Hermite form, and starts the
alternation for invariant factors from the transposed Hermite rows; when the
pivots clear the whole core, the factors are the pivots' 1s, with no
Hermite form at all.  The degree-1 form serves the Chow layer's linear solve
too: its pivots are the variables to eliminate, their residues their images.

Square systems have one fraction-free (Bareiss) elimination, which serves
both ``det`` and ``fraction_free_solve``: one pass over ``[m | b]`` gives
the determinant and every Cramer numerator at once.  From them the fan layer
reads cone membership; star subdivision needs neither.

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


def _as_lists(m) -> Matrix:
    return [list(map(int, row)) for row in m]


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


def hermite_normal_form(m) -> Matrix:
    """Nonzero rows of the row-style Hermite normal form H of m (at most one
    per column), reached by unimodular row operations.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Row updates at column c run from c on:
    the pivot row and every row below it are zero left of c.
    """
    a = _as_lists(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        # gcd the live rows (nonzero in column c, at or below r) into row r
        live = [i for i in range(r, nrows) if a[i][c]]
        if not live:
            continue
        while True:
            piv = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[piv] = a[piv], a[r]
            # the row from r is now at piv, live if nonzero; rest keeps row order,
            # so ties go to the lowest row (other orders grew entries at n = 8)
            rest = [i for i in live if i != (r if a[piv][c] else piv)]
            if not rest:
                break
            tail = a[r][c:]
            for i in rest:
                q = a[i][c] // tail[0]
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], tail)]
            live = [r] + [i for i in rest if a[i][c]]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        tail = a[r][c:]
        for i in range(r):
            q = a[i][c] // tail[0]
            if q:
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], tail)]
        r += 1
        if r == nrows:
            break
    return a[:r]


def invariant_factors(m) -> List[int]:
    """Nonzero diagonal entries of the Smith normal form.

    Row-style Hermite forms of the matrix and of its transpose alternate
    until every row has a single nonzero entry.
    """
    a = m
    while True:
        a = hermite_normal_form(a)
        if all(sum(1 for x in row if x) == 1 for row in a):
            break
        a = [list(col) for col in zip(*a)]
    diag = [abs(x) for row in a for x in row if x]
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
    """Is the target vector an integer combination of the rows of m?

    Test oracle for ``ReducedForm.residue``.
    """
    b = list(map(int, target))
    for row in hermite_normal_form(m):
        lead = next(j for j, x in enumerate(row) if x)
        if b[lead] % row[lead] != 0:
            return False
        q = b[lead] // row[lead]
        for j in range(lead, len(b)):
            b[j] -= q * row[j]
    return all(x == 0 for x in b)


SparseRow = Dict[int, int]


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
    as rows change.  Candidate entries sit in a heap under the cost they had
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
        # columns whose count falls: the pivot row's, and any that cancel
        fallen = set(pivot)
        for j in pivot:
            columns[j].discard(k)
        sign = pivot[c]
        for other in sorted(columns[c]):
            row = active[other]
            q = row[c] * sign
            for j, v in pivot.items():
                new = row.get(j, 0) - q * v
                if new:
                    if j not in row:
                        columns[j].add(other)
                    row[j] = new
                else:
                    del row[j]
                    columns[j].discard(other)
                    fallen.add(j)
            if not row:
                del active[other]
                continue
            size = len(row) - 1
            for j, v in row.items():
                if v == 1 or v == -1:
                    heapq.heappush(heap, (size * (len(columns[j]) - 1), other, j))
        for j in fallen:
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
                for j, v in row.items():
                    new = b.get(j, 0) - q * v
                    if new:
                        b[j] = new
                    else:
                        del b[j]
        return dict(sorted(b.items()))


def reduced_form(rows: Iterable[Mapping[int, int]], ncols: int) -> ReducedForm:
    """The ``ReducedForm`` of the matrix with the given sparse rows."""
    pivots, core = eliminate_unit_pivots(rows)
    used = sorted({j for row in core for j in row})
    hermite = hermite_normal_form([[row.get(j, 0) for j in used] for row in core])
    core_rows = ({used[j]: x for j, x in enumerate(row) if x} for row in hermite)
    basis = tuple(pivots) + tuple((min(row), row) for row in core_rows)
    return ReducedForm(ncols, len(pivots), basis)


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
