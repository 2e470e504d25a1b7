"""Row reduction and rank over GF(q), on int64 index matrices.

One elimination for every field: each pivot step scales the pivot row and
clears its column from all other rows at once.  The multiples of the pivot
row are built once per step (`FiniteField.sub_multiples`), each other row
gathers its own, and the sum is one more gather on the rows' own copy,
whose index arithmetic runs in place.  Matrices at the scales used here (a
few hundred rows) are cheap.
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
        idx = A[r:, c].nonzero()[0]
        if len(idx) == 0:
            continue
        piv = r + int(idx[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        # Rows from r down are zero left of column c, so only columns c..
        # change in this step.
        A[r, c:] = field.mul_arr(A[r, c:], field.inv(int(A[r, c])))
        other = A[:, c].nonzero()[0]
        other = other[other != r]
        if len(other):
            A[other, c:] = field.sub_multiples(A[other, c:], A[other, c],
                                               A[r, c:])
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(mat: np.ndarray, field: FiniteField) -> int:
    return row_reduce(mat, field)[0].shape[0]
