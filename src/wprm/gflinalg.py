"""Row reduction and rank over GF(q), on int64 index matrices.

One elimination for every field: each pivot step scales the pivot row and
clears its column from all other rows at once with an axpy update through the
field's array ops, A[other] + (-A[other, c]) * A[r], one `mul_arr` and one
`add_arr` gather.  Matrices at the scales used here (a few hundred rows) are
cheap.
"""

from __future__ import annotations

import numpy as np

from .finite_field import FiniteField


def row_reduce(mat: np.ndarray, field: FiniteField):
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    A = np.array(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        idx = np.nonzero(A[r:, c])[0]
        if len(idx) == 0:
            continue
        piv = r + int(idx[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        # Rows from r down are zero left of column c, so only columns c..
        # change in this step.
        A[r, c:] = field.mul_arr(A[r, c:], field.inv(int(A[r, c])))
        other = np.nonzero(A[:, c])[0]
        other = other[other != r]
        if len(other):
            A[other, c:] = field.add_arr(
                A[other, c:],
                field.mul_arr(field.neg_arr(A[other, c:c + 1]), A[r, c:]))
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(mat: np.ndarray, field: FiniteField) -> int:
    return row_reduce(mat, field)[0].shape[0]
