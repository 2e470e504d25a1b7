"""Differential and property tests for the vectorised field ops: `mul_arr`,
`add_arr` and `neg_arr` against the scalar `mul`/`add`/`neg`, with zeros
drawn often, across broadcasting, list and narrow-dtype inputs, and the
field axioms on the array ops themselves."""

import numpy as np
from hypothesis import given, settings, strategies as st

from wprm.finite_field import GF

# GF(2^16) is sampled by hypothesis like the rest; no test walks its grid.
FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2),
          GF(3, 3), GF(2, 16)]


def element(fq):
    return st.one_of(st.just(0), st.just(1), st.integers(0, fq.q - 1))


@st.composite
def field_arrays(draw, count, min_size=0):
    """A field and `count` int64 index arrays of one drawn length."""
    fq = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_size, 24))
    arrs = [np.array(draw(st.lists(element(fq), min_size=n, max_size=n)),
                     dtype=np.int64) for _ in range(count)]
    return fq, arrs


def scalar_map(fn, *arrs):
    return np.array([fn(*(int(x) for x in xs)) for xs in zip(*arrs)],
                    dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(field_arrays(2))
def test_array_ops_match_scalar_ops(case):
    fq, (a, b) = case
    for got, want in ((fq.mul_arr(a, b), scalar_map(fq.mul, a, b)),
                      (fq.add_arr(a, b), scalar_map(fq.add, a, b)),
                      (fq.neg_arr(a), scalar_map(fq.neg, a)),
                      (fq.sub_arr(a, b),
                       scalar_map(lambda x, y: fq.add(x, fq.neg(y)), a, b))):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(field_arrays(2, min_size=1), st.data())
def test_array_ops_broadcast_and_coerce(case, data):
    fq, (a, b) = case
    s = data.draw(element(fq))
    narrow = np.min_scalar_type(fq.q - 1)  # uint8, or uint16 for GF(2^16)
    col = a[:, None]
    outer_mul = np.array([[fq.mul(int(x), int(y)) for y in b] for x in a])
    outer_add = np.array([[fq.add(int(x), int(y)) for y in b] for x in a])
    cases = [
        (fq.mul_arr(s, b), scalar_map(lambda y: fq.mul(s, y), b)),
        (fq.mul_arr(a, s), scalar_map(lambda x: fq.mul(x, s), a)),
        (fq.add_arr(s, b), scalar_map(lambda y: fq.add(s, y), b)),
        (fq.mul_arr(col, b), outer_mul),
        (fq.add_arr(col, b), outer_add),
        (fq.mul_arr(a.tolist(), b.tolist()), scalar_map(fq.mul, a, b)),
        (fq.add_arr(a.tolist(), b.tolist()), scalar_map(fq.add, a, b)),
        (fq.neg_arr(a.tolist()), scalar_map(fq.neg, a)),
        (fq.mul_arr(a.astype(narrow), b.astype(narrow)),
         scalar_map(fq.mul, a, b)),
        (fq.add_arr(col.astype(narrow), b), outer_add),
        (fq.neg_arr(a.astype(narrow)), scalar_map(fq.neg, a)),
        (fq.mul_arr(s, s), np.int64(fq.mul(s, s))),
    ]
    for got, want in cases:
        got = np.asarray(got)
        assert got.dtype == np.int64
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(field_arrays(3))
def test_array_ops_satisfy_field_axioms(case):
    fq, (a, b, c) = case
    mul, add = fq.mul_arr, fq.add_arr
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(add(a, b), add(b, a))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    assert not add(a, fq.neg_arr(a)).any()
    assert np.array_equal(mul(a, 1), a)
    assert not mul(a, 0).any()
    units = a[a != 0]
    assert (mul(units, fq.inv_arr(units)) == 1).all()
