"""Row reduction over GF(q), on int64 index matrices.

`row_reduce` runs forward elimination, one pivot step per column: find the
pivot at or below the current row, swap it up, scale its row, and clear the
rows below it.  Each row to clear takes its multiple of the pivot row
(`FiniteField.sub_multiples`), and the sum is one more gather on the rows'
own copy, whose index arithmetic runs in place.

The steps update a window of the first 2 * rows columns; when the pivot
search reaches the window's end, the window doubles and the recorded steps
are replayed on the new columns.  Elimination stops once every row holds a
pivot, so a full-rank matrix with its last pivot early (the generator
matrices of the codes here) never touches most of its columns.

The row swaps are tracked: with P A = L U, the first r rows of P A span the
row space of A, so the result names r rows of the input rather than an
echelon form.
"""

from __future__ import annotations

import numpy as np

from .finite_field import FiniteField


def _pivot_step(A: np.ndarray, field: FiniteField, r: int, c: int):
    """The step with its pivot in column c at or below row r, clearing the
    rows below row r that are nonzero in column c: (r, pivot row, inverse of
    the pivot, rows to clear, their column-c entries).  None when column c
    is zero from row r down.

    The pivot is the first nonzero entry from row r down, so when it is not
    row r itself, row r is zero in column c and the swap moves no row that
    is cleared.
    """
    clear = r + A[r:, c].nonzero()[0]
    if len(clear) == 0:
        return None
    piv = int(clear[0])
    clear = clear[1:]
    return r, piv, field.inv(int(A[piv, c])), clear, A[clear, c]


def _apply_step(A: np.ndarray, field: FiniteField, step, cols: slice) -> None:
    """Swap, scale and clear as `step` says, on the columns `cols` of A."""
    r, piv, inv, clear, coeffs = step
    if piv != r:
        A[[r, piv], cols] = A[[piv, r], cols]
    A[r, cols] = field.mul_arr(A[r, cols], inv)
    if len(clear):
        A[clear, cols] = field.sub_multiples(A[clear, cols], coeffs,
                                             A[r, cols])


def row_reduce(mat: np.ndarray, field: FiniteField):
    """(rows, pivots): the ascending int64 indices of rows of `mat` that are
    a basis of its row space, and the pivot columns of its echelon form.
    len(rows) is the rank; `mat` is left unchanged."""
    A = np.array(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = A.shape
    order = list(range(rows))  # the input row at each position of A
    steps = []
    pivots: list[int] = []
    hi = min(cols, 2 * rows)
    for c in range(cols):
        r = len(steps)
        if r == rows:
            break
        if c == hi:
            lo, hi = hi, min(cols, 2 * hi)
            for step in steps:
                _apply_step(A, field, step, slice(lo, hi))
        step = _pivot_step(A, field, r, c)
        if step is None:
            continue
        # Rows from r down are zero left of column c, so only columns c..
        # change in this step.
        _apply_step(A, field, step, slice(c, hi))
        piv = step[1]
        order[r], order[piv] = order[piv], order[r]
        steps.append(step)
        pivots.append(c)
    return np.array(sorted(order[:len(steps)]), dtype=np.int64), pivots
