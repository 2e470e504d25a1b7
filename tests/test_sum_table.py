"""Differential tests for the one-gather field sum: `add_arr`, scalar
`add`/`neg`, the axpy elimination and the one-gather `_extend_table`, each
held to the code it replaced, kept verbatim here as the reference; the rows
`row_reduce` picks are held to the replaced RREF of the whole matrix."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import wprm.zero_sets as zs
from wprm.codes import F19_WEIGHT_SYSTEMS, build_code
from wprm.finite_field import GF, field_from_spec
from wprm.gflinalg import row_reduce

# -- the replaced code, verbatim -------------------------------------------------------


def digit_add_arr(self, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if self.e == 1:
        return (a + b) % self.p
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    pk = 1
    for _ in range(self.e):
        out += ((a // pk + b // pk) % self.p) * pk
        pk *= self.p
    return out


def digit_add(self, a: int, b: int) -> int:
    if self.e == 1:
        return (a + b) % self.p
    out, pk = 0, 1
    for _ in range(self.e):
        out += ((a // pk + b // pk) % self.p) * pk
        pk *= self.p
    return out


def digit_neg(self, a: int) -> int:
    if self.e == 1:
        return (-a) % self.p
    out, pk = 0, 1
    for _ in range(self.e):
        out += (-(a // pk) % self.p) * pk
        pk *= self.p
    return out


def matmul_row_reduce(mat: np.ndarray, field):
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
            A[other, c:] = field.matmul(field.neg_arr(A[other, c:c + 1]),
                                        A[r:r + 1, c:], A[other, c:])
        pivots.append(c)
        r += 1
    return A[:r], pivots


def slice_extend_table(T: np.ndarray, row: np.ndarray, field) -> np.ndarray:
    n, cols = T.shape
    out = np.empty((n, field.q, cols), dtype=T.dtype)
    for a in range(field.q):  # one slice at a time keeps temporaries small
        out[:, a] = field.add_arr(field.mul_arr(row, a)[:, None], T)
    return out.reshape(n, field.q * cols)


# -- add_arr, add and neg ----------------------------------------------------------------

GRID_SIZES = [2, 3, 4, 8, 9, 16, 25, 27, 49, 64, 81, 101, 128, 243, 256]


@pytest.mark.parametrize("q", GRID_SIZES)
def test_add_arr_matches_digit_loop_on_every_pair(q):
    fq = field_from_spec(str(q))
    a = np.arange(q, dtype=np.int64)
    got = fq.add_arr(a[:, None], a[None, :])
    assert got.dtype == np.int64
    assert np.array_equal(got, digit_add_arr(fq, a[:, None], a[None, :]))
    narrow = a.astype(np.min_scalar_type(q - 1))
    assert np.array_equal(fq.add_arr(narrow[:, None], narrow), got)


@pytest.mark.parametrize("q", GRID_SIZES)
def test_scalar_add_and_neg_match_digit_loop(q):
    fq = field_from_spec(str(q))
    for a in range(q):
        assert fq.neg(a) == digit_neg(fq, a)
        for b in range(q):
            got = fq.add(a, b)
            assert type(got) is int and got == digit_add(fq, a, b)


@pytest.mark.parametrize("q", GRID_SIZES)
def test_neg_arr_matches_digit_loop(q):
    fq = field_from_spec(str(q))
    a = np.arange(q, dtype=np.int64)
    want = np.array([digit_neg(fq, int(x)) for x in a], dtype=np.int64)
    assert np.array_equal(fq.neg_arr(a), want)


LARGE = [GF(3, 6), GF(2, 16), GF(257)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LARGE), st.data())
def test_large_field_add_matches_digit_loop(fq, data):
    element = st.one_of(st.just(0), st.just(1), st.integers(0, fq.q - 1))
    n = data.draw(st.integers(0, 20))
    a = np.array(data.draw(st.lists(element, min_size=n, max_size=n)),
                 dtype=np.int64)
    b = np.array(data.draw(st.lists(element, min_size=n, max_size=n)),
                 dtype=np.int64)
    got = fq.add_arr(a, b)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert np.array_equal(got, digit_add_arr(fq, a, b))
    assert np.array_equal(fq.add_arr(a[:, None], b),
                          digit_add_arr(fq, a[:, None], b))
    assert np.array_equal(fq.add_arr(a.astype(np.uint16), b), got)
    for x, y in zip(a.tolist(), b.tolist()):
        assert fq.add(x, y) == digit_add(fq, x, y)
        assert fq.neg(x) == digit_neg(fq, x)


# -- row_reduce ---------------------------------------------------------------------------

TABLE_GRID = [("16", 8, [(1, 2, 2), (1, 2, 4), (1, 2, 8), (1, 4, 4)]),
              ("19", 16, F19_WEIGHT_SYSTEMS),
              ("25", 16, F19_WEIGHT_SYSTEMS),
              ("31", 16, F19_WEIGHT_SYSTEMS)]


def assert_same_rref(mat, fq):
    """The rows `row_reduce` picks have the reference's reduced row-echelon
    form of the whole matrix, with the pivots `row_reduce` reports."""
    before = np.array(mat, copy=True)
    rows, pivots = row_reduce(mat, fq)
    assert np.array_equal(mat, before)
    assert rows.dtype == np.int64 and np.all(np.diff(rows) > 0)
    R0, pivots0 = matmul_row_reduce(mat, fq)
    R, _ = matmul_row_reduce(np.asarray(mat)[rows], fq)
    assert R.dtype == R0.dtype and R.shape == R0.shape == (len(rows),
                                                           R0.shape[1])
    assert R.tobytes() == R0.tobytes()
    assert pivots == pivots0


@pytest.mark.parametrize("q,d,systems", TABLE_GRID)
def test_row_reduce_matches_matmul_path_on_table_matrices(q, d, systems):
    fq = field_from_spec(q)
    insts = [build_code("rm", fq, 2, d), build_code("prm", fq, 2, d)]
    insts += [build_code("wprm", fq, 2, d, ws) for ws in systems]
    for inst in insts:
        assert_same_rref(inst.matrix, fq)


@st.composite
def deficient_matrices(draw):
    """A matrix of rank at most `rank` with some columns zeroed."""
    fq = draw(st.sampled_from([GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3),
                               GF(3, 2), GF(2, 4), GF(5, 2), GF(257),
                               GF(3, 6)]))
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 10))
    rank = draw(st.integers(0, rows))
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))

    def matrix(r, c):
        return np.array(draw(st.lists(entry, min_size=r * c, max_size=r * c)),
                        dtype=np.int64).reshape(r, c)

    mat = fq.matmul(matrix(rows, rank), matrix(rank, cols))
    zero = draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    mat[:, zero] = 0
    return fq, mat


@settings(max_examples=200, deadline=None)
@given(deficient_matrices())
def test_row_reduce_matches_matmul_path_on_deficient_matrices(case):
    fq, mat = case
    assert_same_rref(mat, fq)


# -- _extend_table ------------------------------------------------------------------------


@st.composite
def table_cases(draw):
    fq = draw(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5), GF(7),
                               GF(2, 3), GF(3, 2), GF(2, 4), GF(5, 2),
                               GF(257), GF(3, 6)]))
    dtype = np.uint8 if fq.q <= 256 else np.uint16
    n = draw(st.integers(0, 12))
    cols = draw(st.sampled_from([1, fq.q, fq.q ** 2 if fq.q <= 9 else 1]))
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    # arrays(), not lists(): GF(3^6) draws up to 12 x 729 entries, past the
    # largest list Hypothesis generates
    T = draw(hnp.arrays(dtype, (n, cols), elements=entry))
    row = np.array(draw(st.lists(entry, min_size=n, max_size=n)),
                   dtype=np.int64)
    # The gather bound decides how many slices one gather takes: 1 forces
    # one slice per gather, the module default one gather for all of them.
    cells = draw(st.sampled_from([1, 7, 64, zs._GATHER_CELLS]))
    return fq, T, row, cells


@settings(max_examples=120, deadline=None)
@given(table_cases())
def test_extend_table_matches_slice_loop(case):
    fq, T, row, cells = case
    with mock.patch.object(zs, "_GATHER_CELLS", cells):
        got = zs._extend_table(T, row, fq)
    want = slice_extend_table(T, row, fq)
    assert got.dtype == T.dtype
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_full_low_table_matches_slice_loop(q):
    # The whole low table of a sweep-sized matrix, grown digit by digit.
    fq = field_from_spec(str(q))
    V = zs.monomial_matrix((1, 1, 1), fq, 3)
    k, n = V.shape
    T = T0 = np.zeros((n, 1), dtype=np.uint8)
    for w in range(1, zs._low_width(q, k, n) + 1):
        T = zs._extend_table(T, V[k - w], fq)
        T0 = slice_extend_table(T0, V[k - w], fq)
        assert T.tobytes() == T0.tobytes()
