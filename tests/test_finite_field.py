import itertools

import numpy as np
import pytest

from wprm.finite_field import (FIELD_SIZE_CAP, GF, FiniteField,
                               _is_irreducible, field_from_spec, is_prime,
                               prime_factors)

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (19, 1), (61, 1),
          (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]


@pytest.fixture(params=FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def fq(request):
    return GF(*request.param)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(360) == [2, 3, 5]


def test_construction_errors():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(2, 17)  # 2^17 over the cap
    assert GF(2, 16).q == FIELD_SIZE_CAP


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 16)])
def test_tables_match_scalar_loop(p, e):
    # the doubling build against g^k by repeated table-free products, and
    # the reduction polynomial against a scan that skips no tail
    f = GF(p, e)
    want = np.empty(f.q - 1, dtype=np.int64)
    acc = 1
    for i in range(f.q - 1):
        want[i] = acc
        acc = f._mul_slow(acc, f.generator)
    assert f.exp_table.dtype == np.int64
    assert np.array_equal(f.exp_table, want)
    assert np.array_equal(f.log_table[want], np.arange(f.q - 1))
    assert f.log_table[0] == -1
    assert f.reduction_poly == next(
        t for t in itertools.product(range(p), repeat=e)
        if _is_irreducible(t, e, p))


def test_canonical_reduction_polys():
    # unique irreducible quadratic over GF(2); lex-least cubic is X^3+X^2+1
    assert GF(2, 2).reduction_poly == (1, 1)
    assert GF(2, 3).reduction_poly == (1, 0, 1)
    assert GF(3, 1).reduction_poly == ()


def test_field_axioms_exhaustive(fq):
    # associativity, commutativity, distributivity on the full q^3 grid
    if fq.q > 64:
        pytest.skip("exhaustive grid reserved for q <= 64")
    idx = np.arange(fq.q, dtype=np.int64)
    A = idx[:, None, None]
    B = idx[None, :, None]
    C = idx[None, None, :]
    assert np.array_equal(fq.add_arr(A, B), fq.add_arr(B, A))
    assert np.array_equal(fq.mul_arr(A, B), fq.mul_arr(B, A))
    assert np.array_equal(fq.add_arr(fq.add_arr(A, B), C),
                          fq.add_arr(A, fq.add_arr(B, C)))
    assert np.array_equal(fq.mul_arr(fq.mul_arr(A, B), C),
                          fq.mul_arr(A, fq.mul_arr(B, C)))
    assert np.array_equal(fq.mul_arr(A, fq.add_arr(B, C)),
                          fq.add_arr(fq.mul_arr(A, B), fq.mul_arr(A, C)))


def test_inverse_and_negation(fq):
    for a in range(fq.q):
        assert fq.add(a, fq.neg(a)) == 0
        if a:
            assert fq.mul(a, fq.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        fq.inv(0)


def test_identities(fq):
    for a in range(fq.q):
        assert fq.add(a, 0) == a
        assert fq.mul(a, 1) == a
        assert fq.mul(a, 0) == 0
    assert fq.inv(1) == 1


def test_generator_sweeps_units(fq):
    q = fq.q
    powers = {fq.pow(fq.generator, k) for k in range(q - 1)}
    assert powers == set(range(1, q))
    assert fq.pow(fq.generator, q - 1) == 1
    assert sorted(fq.exp_table.tolist()) == list(range(1, q))


def test_frobenius_is_additive(fq):
    idx = np.arange(fq.q, dtype=np.int64)
    A, B = idx[:, None], idx[None, :]
    lhs = fq.pow_arr(fq.add_arr(A, B), fq.p)
    rhs = fq.add_arr(fq.pow_arr(A, fq.p), fq.pow_arr(B, fq.p))
    assert np.array_equal(lhs, rhs)


def test_pow_edge_cases(fq):
    assert fq.pow(0, 0) == 1
    assert fq.pow(0, 5) == 0
    if fq.q > 2:
        a = 2 % fq.q
        assert fq.pow(a, -1) == fq.inv(a)


def test_known_values():
    F19 = GF(19)
    assert F19.mul(2, 10) == 1
    assert F19.inv(2) == 10
    F4 = GF(2, 2)
    # x * x = x + 1 under the forced reduction X^2 + X + 1
    assert F4.mul(2, 2) == 3
    assert F4.add(2, 3) == 1


def test_vector_scalar_agreement(fq):
    rng = np.random.default_rng(0)
    a = rng.integers(0, fq.q, 200)
    b = rng.integers(0, fq.q, 200)
    assert all(int(x) == fq.add(int(u), int(v))
               for x, u, v in zip(fq.add_arr(a, b), a, b))
    assert all(int(x) == fq.mul(int(u), int(v))
               for x, u, v in zip(fq.mul_arr(a, b), a, b))
    assert all(int(x) == fq.pow(int(u), 3)
               for x, u in zip(fq.pow_arr(a, 3), a))
    nz = a[a != 0]
    assert all(int(x) == fq.inv(int(u))
               for x, u in zip(fq.inv_arr(nz), nz))


def test_from_int_embeds_prime_subfield(fq):
    assert fq.from_int(0) == 0
    assert fq.from_int(1) == 1
    assert fq.from_int(fq.p) == 0
    assert fq.from_int(-1) == fq.neg(1)


def test_field_from_spec():
    assert field_from_spec("19") is GF(19)
    assert field_from_spec("2^2") is GF(2, 2)
    assert field_from_spec("4") is GF(2, 2)
    assert field_from_spec("9") is GF(3, 2)
    for bad in ("6", "1", "12"):
        with pytest.raises(ValueError):
            field_from_spec(bad)


def test_fields_are_cached_and_picklable():
    import pickle
    f = GF(3, 2)
    assert GF(3, 2) is f
    assert pickle.loads(pickle.dumps(f)) is f
