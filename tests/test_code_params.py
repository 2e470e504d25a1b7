"""Differential tests for the code-parameter layer: `row_reduce`, forward
elimination with one multiples gather per step on a doubling column window
that returns a basis of input rows, and `min_distance_exhaustive` with one
sweep per torus orbit on those rows.  Each is held to the code it replaced,
kept verbatim here as the reference: the rows must have the reference's
reduced row-echelon form, and the distance must be the plain sweep's of
it."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wprm.codes as codes
from wprm.codes import F19_WEIGHT_SYSTEMS, build_code, min_distance_exhaustive
from wprm.finite_field import GF, field_from_spec
from wprm.gflinalg import row_reduce
from wprm.verify import _reduction_steps
from wprm.weighted_space import delorme_reduce
from wprm.zero_sets import BudgetExceeded, _max_zeros_sweep

# -- the replaced code, verbatim -------------------------------------------------------


def axpy_row_reduce(mat: np.ndarray, field):
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


def rref_min_distance(inst, *, budget, jobs=None) -> int:
    """Exact minimum Hamming weight by sweeping one codeword per scalar class."""
    R, _ = axpy_row_reduce(inst.matrix, inst.field)
    if R.shape[0] == 0:
        raise ValueError("the zero code has no minimum distance")
    best, *_ = _max_zeros_sweep(R, inst.field, stop_at=inst.n - 1,
                                budget=budget, jobs=jobs)
    return inst.n - best


# -- row_reduce -------------------------------------------------------------------------


def assert_same_rref(mat, fq):
    """The rows `row_reduce` picks are independent and span the row space:
    the reference reduces them to the reduced row-echelon form of the whole
    matrix, with the pivots `row_reduce` reports."""
    before = np.array(mat, copy=True)
    rows, pivots = row_reduce(mat, fq)
    assert np.array_equal(mat, before)
    assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
    assert np.all(np.diff(rows) > 0)
    R0, pivots0 = axpy_row_reduce(mat, fq)
    R, _ = axpy_row_reduce(np.asarray(mat)[rows], fq)
    assert R.dtype == R0.dtype and R.shape == R0.shape == (len(rows),
                                                           R0.shape[1])
    assert R.tobytes() == R0.tobytes()
    assert pivots == pivots0


TABLE_GRID = [("16", 8, [(1, 2, 2), (1, 2, 4), (1, 2, 8), (1, 4, 4)]),
              ("19", 16, F19_WEIGHT_SYSTEMS),
              ("25", 16, F19_WEIGHT_SYSTEMS),
              ("31", 16, F19_WEIGHT_SYSTEMS)]


@pytest.mark.parametrize("q,d,systems", TABLE_GRID)
def test_row_reduce_matches_axpy_on_table_matrices(q, d, systems):
    fq = field_from_spec(q)
    insts = [build_code("rm", fq, 2, d), build_code("prm", fq, 2, d)]
    insts += [build_code("wprm", fq, 2, d, ws) for ws in systems]
    for inst in insts:
        assert_same_rref(inst.matrix, fq)
        assert inst.rank == len(inst.basis)  # full row rank: an early stop


def code_grid(qs):
    """RM and PRM codes on lines and planes and WPRM codes on a few weighted
    planes and one weighted 3-space, over each field, every degree up to a
    few multiples of the weights' lcm; rank-deficient codes included."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > q: "need not be injective"
        for q in qs:
            fq = field_from_spec(str(q))
            for m in (1, 2):
                for d in range(0, 2 * q + 1):
                    out.append(build_code("rm", fq, m, d))
                    out.append(build_code("prm", fq, m, d))
            for ws in [(1, 1, 2), (1, 2, 3), (1, 2, 2), (2, 3, 5),
                       (1, 1, 1, 2)]:
                step = math.lcm(*ws)
                for d in range(step, 4 * step + 1, step):
                    out.append(build_code("wprm", fq, len(ws) - 1, d, ws))
    return out


DEFICIENT_QS = (2, 3, 4, 5)


@pytest.mark.parametrize("q", DEFICIENT_QS)
def test_row_reduce_matches_axpy_on_deficient_code_matrices(q):
    deficient = [inst for inst in code_grid([q])
                 if inst.rank < len(inst.basis)]
    assert deficient
    for inst in deficient:
        assert_same_rref(inst.matrix, inst.field)


def delorme_codes():
    """The WPRM codes of the default delorme verify suite: each reduction
    step's source in degree lcm * b and its reduction in degree lcm."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > q: "need not be injective"
        for q in (2, 3):
            fq = field_from_spec(str(q))
            for source, i, b in _reduction_steps(4, 3):
                red = delorme_reduce(source, i, b).reduced
                k = red.lcm
                out.append(build_code("wprm", fq, red.m, k * b, source))
                out.append(build_code("wprm", fq, red.m, k, red))
    return out


def test_rank_matches_rref_on_deficient_delorme_codes():
    deficient = 0
    for inst in delorme_codes():
        assert_same_rref(inst.matrix, inst.field)
        R, _ = axpy_row_reduce(inst.matrix, inst.field)
        assert inst.rank == R.shape[0], inst
        deficient += R.shape[0] < len(inst.basis)
    assert deficient >= 100


# Every field with a sum table of the sizes the library meets, and two above
# 256 (a prime field and an extension), which take the bounded multiples.
RREF_FIELDS = [field_from_spec(str(q)) for q in
               (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 101)]
RREF_FIELDS += [GF(257), GF(3, 6)]


@st.composite
def rref_cases(draw):
    """A matrix of bounded rank, tall or wide, with duplicate rows, zero
    rows and zero columns drawn on purpose."""
    fq = draw(st.sampled_from(RREF_FIELDS))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    rank = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, fq.q - 1))

    def matrix(r, c):
        return np.array(draw(st.lists(entry, min_size=r * c, max_size=r * c)),
                        dtype=np.int64).reshape(r, c)

    mat = fq.matmul(matrix(rows, rank), matrix(rank, cols))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                            st.integers(0, rows - 1)),
                                  max_size=3)):
        mat[dst] = mat[src]
    mat[draw(st.lists(st.integers(0, rows - 1), max_size=rows))] = 0
    mat[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    return fq, mat


@settings(max_examples=400, deadline=None)
@given(rref_cases())
def test_row_reduce_matches_axpy_on_hypothesis_matrices(case):
    fq, mat = case
    assert_same_rref(mat, fq)


@settings(max_examples=400, deadline=None)
@given(rref_cases())
def test_rank_matches_rref_on_hypothesis_matrices(case):
    # Row rank is column rank: the transpose picks as many rows.
    fq, mat = case
    rank = axpy_row_reduce(mat, fq)[0].shape[0]
    assert len(row_reduce(mat, fq)[0]) == len(row_reduce(mat.T, fq)[0]) \
        == rank


@pytest.mark.parametrize("fq", [GF(5), GF(2, 2), GF(257)])
def test_rank_stops_at_full_row_rank(fq):
    # Entries outside [0, q) fail every bounds-checked gather, so the
    # elimination never touches the columns past its window once each row
    # holds a pivot, nor the row after the last pivot.
    mat = np.full((3, 20), fq.q, dtype=np.int64)
    mat[:, :6] = 0
    mat[0, 1] = mat[1, 3] = mat[2, 4] = 1
    rows, pivots = row_reduce(mat, fq)
    assert rows.tolist() == [0, 1, 2] and pivots == [1, 3, 4]
    with pytest.raises(IndexError):
        axpy_row_reduce(mat, fq)
    # A late pivot doubles the window twice (6 -> 12 -> 20 columns).  Row 1
    # equals row 0, so it has a pivot in column 7 or 13 unless the step that
    # clears it is replayed on each new window.
    mat = np.zeros((3, 20), dtype=np.int64)
    mat[:2, [0, 7, 13]] = 1
    mat[2, 19] = 2
    rows, pivots = row_reduce(mat, fq)
    assert len(rows) == 2 and pivots == [0, 19]
    assert_same_rref(mat, fq)


def test_rank_of_empty_and_zero_matrices():
    fq = GF(3)
    for shape in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        rows, pivots = row_reduce(np.zeros(shape, dtype=np.int64), fq)
        assert rows.dtype == np.int64 and rows.shape == (0,) and pivots == []
    with pytest.raises(ValueError):
        row_reduce(np.zeros(3, dtype=np.int64), fq)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RREF_FIELDS), st.data())
def test_sub_multiples_matches_array_ops(fq, data):
    n = data.draw(st.integers(0, 8))
    w = data.draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    rows = np.array(data.draw(st.lists(entry, min_size=n * w,
                                       max_size=n * w)),
                    dtype=np.int64).reshape(n, w)
    coeffs = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)),
                      dtype=np.int64)
    vec = np.array(data.draw(st.lists(entry, min_size=w, max_size=w)),
                   dtype=np.int64)
    want = fq.sub_arr(rows, fq.mul_arr(coeffs[:, None], vec))
    got = fq.sub_multiples(rows.copy(), coeffs, vec)
    assert got.dtype == np.int64 and got.shape == (n, w)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fq", [field_from_spec(str(q)) for q in
                                (2, 3, 4, 5, 7, 8, 9, 16, 25)])
def test_row_reduce_matches_axpy_on_tall_matrices(fq):
    # Tall matrices clear q rows or more in their first steps and fewer in
    # their last ones; every step multiplies its rows directly.
    rng = np.random.default_rng(fq.q)
    for shape in [(2 * fq.q + 3, 6), (fq.q + 1, 2 * fq.q), (4, 9)]:
        for _ in range(3):
            assert_same_rref(rng.integers(0, fq.q, size=shape), fq)


def test_sub_multiples_rejects_non_elements():
    # Every gather is bounds-checked: a coefficient outside [0, q) raises.
    fq = GF(5)
    with pytest.raises(IndexError):
        fq.sub_multiples(np.zeros((1, 3), dtype=np.int64),
                         np.array([5]), np.array([1, 2, 3]))


# -- min_distance_exhaustive ---------------------------------------------------------------

SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)
SWEEP_BUDGET = 2 * 10 ** 5


@pytest.mark.parametrize("q", SWEEP_QS)
def test_torus_distance_matches_rref_sweep(q):
    kinds = {True: 0, False: 0}
    for inst in code_grid([q]):
        try:
            want = rref_min_distance(inst, budget=SWEEP_BUDGET)
        except BudgetExceeded:
            continue
        assert min_distance_exhaustive(inst, budget=SWEEP_BUDGET) == want, inst
        kinds[inst.rank == len(inst.basis)] += 1
    # Injective and rank-deficient codes both sweep per torus orbit; over
    # GF(8) and GF(9) no deficient code of the grid fits the plain sweep's
    # budget.
    assert kinds[True] and (q >= 8 or kinds[False])


@pytest.mark.parametrize("q", (4, 5))
def test_torus_distance_fits_where_the_rref_sweep_did_not(q):
    # The torus sweep visits fewer tails, so it stays inside budgets the
    # plain sweep overran; the answer is still the plain sweep's.
    inst = build_code("prm", field_from_spec(str(q)), 2, 3)
    assert inst.rank == len(inst.basis) == 10
    with pytest.raises(BudgetExceeded):
        rref_min_distance(inst, budget=3 * 10 ** 5)
    assert min_distance_exhaustive(inst, budget=3 * 10 ** 5) \
        == rref_min_distance(inst, budget=10 ** 7) == (q - 2) * q


def test_torus_distance_fits_on_a_deficient_code():
    # A rank-deficient code sweeps its independent rows per torus orbit, so
    # it too fits a budget the plain sweep of its echelon form overran.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > q: "need not be injective"
        inst = build_code("prm", GF(3), 2, 4)
    assert inst.rank == 12 < len(inst.basis) == 15
    with pytest.raises(BudgetExceeded):
        rref_min_distance(inst, budget=SWEEP_BUDGET)
    assert min_distance_exhaustive(inst, budget=SWEEP_BUDGET) \
        == rref_min_distance(inst, budget=10 ** 6) == 2


def swept_rows_and_exponents(inst):
    """The (V, exponents) that `min_distance_exhaustive` hands its sweep."""
    seen = []

    def recording(V, field, **kwargs):
        seen.append((V, kwargs["exponents"]))
        return 0, (0, 0), 0, 0  # the sweep itself is not under test

    with mock.patch.object(codes, "_max_zeros_sweep", recording):
        min_distance_exhaustive(inst)
    (V, exponents), = seen
    return V, exponents


def test_injective_codes_sweep_the_matrix_with_exponents():
    # Every code sweeps its independent rows with their exponents: all of
    # them for an injective code, a basis of the code for a deficient one.
    injective = build_code("wprm", GF(3), 2, 6, (1, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        deficient = build_code("rm", GF(2), 2, 3)
    assert injective.rank == len(injective.basis)
    assert deficient.rank < len(deficient.basis)
    V1, e1 = swept_rows_and_exponents(injective)
    V2, e2 = swept_rows_and_exponents(deficient)
    assert np.array_equal(V1, injective.matrix) and e1 == injective.basis
    rows = deficient.rows
    assert np.array_equal(V2, deficient.matrix[rows])
    assert e2 == [deficient.basis[i] for i in rows]


@pytest.mark.parametrize("q", (3, 4, 5, 7))
def test_sweep_exponents_are_the_torus_characters_of_its_rows(q):
    # Scaling the coefficient c_j of swept row j by t^beta_j, for t in the
    # torus, gives the codeword of F(t x): a permutation of the points up to
    # nonzero scalars, so every weight is kept.  The torus sweep relies on
    # this, and it holds only when beta_j is the exponent of row j.
    fq = field_from_spec(str(q))
    rng = np.random.default_rng(q)
    deficient = 0
    for inst in code_grid([q]):
        V, exponents = swept_rows_and_exponents(inst)
        beta = np.array(exponents, dtype=np.int64)  # (rows, m + 1)
        for _ in range(20):
            c = rng.integers(0, q, size=len(beta))
            logs = rng.integers(0, q - 1, size=beta.shape[1])  # t = g^logs
            scaled = fq.mul_arr(fq.exp_table[beta @ logs % (q - 1)], c)
            assert np.count_nonzero(fq.matmul(c, V)) \
                == np.count_nonzero(fq.matmul(scaled, V)), inst
        deficient += inst.rank < len(inst.basis)
    assert deficient
