"""Row reduction and rank over GF(q), on int64 index matrices.

Both run one pivot step: find the pivot in a column, swap it up, scale its
row, and subtract multiples of it from the rows to clear.  The multiples of
the pivot row are built once per step (`FiniteField.sub_multiples`), each
row to clear gathers its own, and the sum is one more gather on the rows'
own copy, whose index arithmetic runs in place.

`row_reduce` clears every other row and returns the reduced row-echelon
form.  `rank` only needs the pivot count, so it runs forward elimination:
it clears the rows below each pivot and stops once every row holds one.
Its steps update a window of the first 2 * rows columns; when the pivot
search reaches the window's end, the window doubles and the recorded steps
are replayed on the new columns.  A full-rank matrix with its last pivot
early (the generator matrices of the codes here) never touches most of its
columns.
"""

from __future__ import annotations

import numpy as np

from .finite_field import FiniteField


def _matrix(mat) -> np.ndarray:
    A = np.array(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    return A


def _pivot_step(A: np.ndarray, field: FiniteField, r: int, c: int,
                first: int):
    """The step with its pivot in column c at or below row r, clearing the
    rows from `first` down that are nonzero in column c: (r, pivot row,
    inverse of the pivot, rows to clear, their column-c entries).  None when
    column c is zero from row r down.

    The pivot is the first nonzero entry from row r down, so when it is not
    row r itself, row r is zero in column c and the swap moves no row that
    is cleared.
    """
    below = A[r:, c].nonzero()[0]
    if len(below) == 0:
        return None
    piv = r + int(below[0])
    clear = first + A[first:, c].nonzero()[0]
    clear = clear[clear != piv]
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
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    A = _matrix(mat)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        step = _pivot_step(A, field, r, c, 0)
        if step is None:
            continue
        # Rows from r down are zero left of column c, so only columns c..
        # change in this step.
        _apply_step(A, field, step, slice(c, cols))
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(mat: np.ndarray, field: FiniteField) -> int:
    """Rank by forward elimination on a doubling column window."""
    A = _matrix(mat)
    rows, cols = A.shape
    steps = []
    hi = min(cols, 2 * rows)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if c == hi:
            lo, hi = hi, min(cols, 2 * hi)
            for step in steps:
                _apply_step(A, field, step, slice(lo, hi))
        step = _pivot_step(A, field, r, c, r)
        if step is None:
            continue
        _apply_step(A, field, step, slice(c, hi))
        steps.append(step)
        r += 1
    return r
