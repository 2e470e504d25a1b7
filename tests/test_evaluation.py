"""Property tests for the single evaluation path: monomial_values, the
field's matrix product, and encoding as coefficients times the generator
matrix, each held to a pure-Python reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wprm.codes import build_code, encode
from wprm.finite_field import GF
from wprm.weighted_poly import (WeightedPolynomial, monomial_basis,
                                monomial_values)
from reference import affine_points, evaluate_terms

FIELDS = [GF(2), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]

fields = st.sampled_from(FIELDS)


def _matrix(draw, fq, rows, cols):
    # Entries from the whole field, with zeros drawn often on purpose.
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    return np.array(draw(st.lists(st.lists(entry, min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, cols)


@settings(max_examples=150, deadline=None)
@given(fields, st.data())
def test_monomial_values_match_scalar_evaluation(fq, data):
    npos = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 12))
    coords = _matrix(data.draw, fq, n, npos)
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 2 * fq.q)] * npos),
                              min_size=0, max_size=6))
    V = monomial_values(fq, coords, exps)
    assert V.shape == (len(exps), n) and V.dtype == np.int64
    for i, e in enumerate(exps):
        assert [int(v) for v in V[i]] == [evaluate_terms(fq, {e: 1}, row)
                                          for row in coords]


@settings(max_examples=150, deadline=None)
@given(fields, st.data())
def test_matmul_matches_scalar_sum(fq, data):
    r, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _matrix(data.draw, fq, r, k)
    B = _matrix(data.draw, fq, k, n)
    C = _matrix(data.draw, fq, r, n)
    want = np.zeros((r, n), dtype=np.int64)
    for i in range(r):
        for j in range(n):
            acc = 0
            for t in range(k):
                acc = fq.add(acc, fq.mul(int(A[i, t]), int(B[t, j])))
            want[i, j] = acc
    assert np.array_equal(fq.matmul(A, B), want)
    assert np.array_equal(fq.matmul(A, B, C), fq.add_arr(C, want))
    if r:
        assert np.array_equal(fq.matmul(A[0], B), want[0])


_CODES = [("wprm", 2, 6, (1, 2, 3)), ("wprm", 2, 4, (1, 2, 2)),
          ("wprm", 2, 2, (1, 1, 2)), ("prm", 2, 2, None), ("rm", 2, 2, None)]


@pytest.mark.filterwarnings("ignore:.*need not be injective")
@settings(max_examples=100, deadline=None)
@given(fields, st.sampled_from(_CODES), st.data())
def test_encode_matches_pointwise_evaluation(fq, code, data):
    kind, m, d, ws = code
    inst = build_code(kind, fq, m, d, ws)
    coeffs = data.draw(st.lists(st.integers(0, fq.q - 1),
                                min_size=len(inst.basis),
                                max_size=len(inst.basis)))
    poly = WeightedPolynomial.from_coefficients(inst.ws, fq, d, inst.basis,
                                                coeffs)
    if kind == "rm":
        # F(1, y) at the affine points y, as RM codes were once built
        affine = {exps[1:]: c for exps, c in poly.terms.items()}
        want = [evaluate_terms(fq, affine, y) for y in affine_points(fq, m)]
    else:
        # the codeword as it was built before the generator matrix carried
        # the normalisers: values at the points times the normalisers
        want = fq.mul_arr(poly.evaluate_many(inst.points), inst.normalizers)
    assert [int(c) for c in encode(inst, poly)] == [int(c) for c in want]
