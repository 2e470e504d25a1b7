"""Property tests for the single evaluation path: monomial_values, the
field's matrix product, and encoding as coefficients times the generator
matrix, each held to a pure-Python reference; and the one-pass log-domain
kernel and the generator matrices built with it held to the kernel with a
separate zero mask that it replaced."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from wprm.codes import build_code, encode
from wprm.finite_field import GF
from wprm.weighted_poly import (WeightedPolynomial, monomial_basis,
                                monomial_values)
from wprm.weighted_space import space
from wprm.zero_sets import count_zeros
from reference import affine_points, evaluate_terms

FIELDS = [GF(2), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]
# GF(2), a prime field, an extension field and one above the sum tables' 256
KERNEL_FIELDS = [GF(2), GF(7), GF(3, 2), GF(2, 9)]

fields = st.sampled_from(FIELDS)


def _matrix(draw, fq, rows, cols):
    # Entries from the whole field, with zeros drawn often on purpose.
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    return np.array(draw(st.lists(st.lists(entry, min_size=cols,
                                           max_size=cols),
                                  min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, cols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS + [GF(2, 9)]), st.data())
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


# -- the one-pass kernel against the kernel it replaced ----------------------------------


def _exponent_rows(draw, q: int, npos: int) -> list[tuple[int, ...]]:
    # None to many rows, zero rows and rows whose sum passes 2q among them
    entry = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2 * q + 3))
    return draw(st.lists(st.tuples(*[entry] * npos), min_size=0, max_size=8))


def _offsets(draw, q: int, n: int) -> np.ndarray:
    return np.array(draw(st.lists(st.integers(0, 3 * (q - 1)), min_size=n,
                                  max_size=n)), dtype=np.int64)


def _assert_matches_reference(fq, coords, exps, offset):
    want = reference.monomial_values(fq, coords, exps)
    got = monomial_values(fq, coords, exps)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    scaled = fq.mul_arr(want, fq.exp_table[offset % (fq.q - 1)][None, :])
    assert np.array_equal(monomial_values(fq, coords, exps, offset), scaled)


SPACE_WEIGHTS = [(1,), (1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3),
                 (1, 2, 2), (1, 1, 2, 3)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.sampled_from(SPACE_WEIGHTS),
       st.data())
def test_kernel_matches_reference_on_space_points(fq, ws, data):
    sp = space(ws, fq)
    assume(sp.expected_point_count <= 5000)  # checked before enumerating
    coords = sp.point_coords()
    exps = _exponent_rows(data.draw, fq.q, len(ws))
    _assert_matches_reference(fq, coords, exps,
                              _offsets(data.draw, fq.q, len(coords)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(1, 4), st.data())
def test_kernel_matches_reference_on_rows_with_many_zeros(fq, npos, data):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(0, 40))
    coords = rng.integers(0, fq.q, size=(n, npos))
    coords[rng.random((n, npos)) < 0.6] = 0  # the zero row among them
    exps = _exponent_rows(data.draw, fq.q, npos)
    _assert_matches_reference(fq, coords, exps,
                              _offsets(data.draw, fq.q, n))


@pytest.mark.parametrize("fq,e", [(GF(7), 3_000_000_000),
                                  (GF(2, 16), 12_000_000)])
def test_kernel_handles_exponents_past_int64_products(fq, e):
    # unreduced, these exponents push E @ log(x).T with the zero sentinel
    # past 2^63, so a zero coordinate would read as a unit
    coords = np.array([(0, 1), (1, 0), (1, 1), (0, 5), (3, 2), (fq.q - 1, 0)])
    exps = [(e, 0), (0, e), (e, e), (e, 1), (0, 0)]
    assert np.array_equal(monomial_values(fq, coords, exps),
                          reference.monomial_values(fq, coords, exps))
    poly = WeightedPolynomial((1, 1), fq, e, {(e, 0): 1})
    assert count_zeros(poly, space((1, 1), fq)) == 1  # the point (0:1)


@pytest.mark.filterwarnings("ignore:.*need not be injective")
@pytest.mark.parametrize("kind,fq,m,d,ws", [
    ("wprm", GF(7), 2, 6, (1, 2, 3)), ("wprm", GF(3, 2), 2, 4, (1, 2, 2)),
    ("wprm", GF(5), 2, 4, (1, 1, 2)), ("wprm", GF(2), 2, 4, (1, 2, 2)),
    ("wprm", GF(2, 9), 1, 6, (2, 3)), ("wprm", GF(2, 2), 3, 6, (1, 1, 2, 3)),
    ("prm", GF(2, 3), 2, 3, None), ("prm", GF(3), 3, 4, None),
    ("rm", GF(7), 2, 3, None), ("rm", GF(2, 9), 1, 2, None)])
def test_generator_matrix_matches_reference_values_times_normalizers(
        kind, fq, m, d, ws):
    inst = build_code(kind, fq, m, d, ws)
    points = inst.points
    # x_c^(d/a_c) at each point's chart c, through the replaced kernel
    chart = (points != 0).argmax(axis=1)
    powers = reference.monomial_values(
        fq, points, np.diag([d // a for a in inst.ws]))
    normalizers = fq.inv_arr(powers[chart, np.arange(len(points))])
    assert np.array_equal(inst.normalizers, normalizers)
    want = fq.mul_arr(reference.monomial_values(fq, points, inst.basis),
                      normalizers[None, :])
    assert inst.matrix.dtype == np.int64
    assert np.array_equal(inst.matrix, want)


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
