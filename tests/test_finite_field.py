import itertools
import math

import numpy as np
import pytest

from wprm.finite_field import (FIELD_SIZE_CAP, GF, FiniteField,
                               field_from_spec, is_prime, prime_factors)

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


# -- the scalar-loop constructor, kept verbatim as the reference ----------------------
#
# FiniteField.__init__ once built its tables with scalar polynomial products:
# trial division by every monic of degree <= e // 2, a generator test by
# square-and-multiply, and a doubling whose rows came from `_mul_slow`.  The
# build now works with GF(p)-linear maps; its tables must stay byte-identical.


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    # Remainder of num modulo a monic den; coefficient lists run low to high.
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    return num[:dn]


def _is_irreducible(tail: tuple[int, ...], e: int, p: int) -> bool:
    # tail = non-leading coefficients (low to high) of a monic degree-e poly.
    # Trial division by every monic polynomial of degree <= e // 2.
    f = list(tail) + [1]
    for deg in range(1, e // 2 + 1):
        for t in itertools.product(range(p), repeat=deg):
            den = list(t) + [1]
            if not any(_poly_rem(f, den, p)):
                return False
    return True


def _canonical_reduction(p: int, e: int) -> tuple[int, ...]:
    # Lexicographically smallest irreducible monic of degree e, comparing
    # coefficients low degree first under 0 < 1 < ... < p-1.
    for tail in itertools.product(range(p), repeat=e):
        # X divides every candidate whose constant term is 0
        if tail[0] and _is_irreducible(tail, e, p):
            return tail
    raise RuntimeError(f"no irreducible of degree {e} over GF({p})")


def _radix(p: int, e: int) -> np.ndarray:
    return p ** np.arange(e, dtype=np.int64)


def _digits(p: int, e: int) -> np.ndarray:
    return (np.arange(p ** e, dtype=np.int64)[:, None] // _radix(p, e)
            % p).astype(np.uint16)


class ScalarLoopField:
    """The tables of GF(p^e) as the scalar-loop constructor built them."""

    def __init__(self, p: int, e: int = 1):
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        self.reduction_poly = () if e == 1 else _canonical_reduction(p, e)
        self.generator = self._find_generator()
        exp = self._powers_of_generator()
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        self.exp_table = exp
        self.log_table = log
        if (exp == 0).any() or np.count_nonzero(log >= 0) != q - 1:
            raise AssertionError("exp table is not a bijection onto the units")
        self._zlog = np.where(log < 0, 2 * (q - 1), log)
        self._zexp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
        self._zexp[:2 * (q - 1)] = np.tile(exp, 2)
        self._sum = None
        if q <= 256:
            # _sum[a * q + b] = a + b: digit sums mod p, read back in base p
            d = _digits(p, e)
            self._sum = ((d[:, None] + d[None]) % p @ _radix(p, e)).ravel()

    def _to_digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _from_digits(self, digits: list[int]) -> int:
        a = 0
        for c in reversed(digits):
            a = a * self.p + (c % self.p)
        return a

    def _mul_slow(self, a: int, b: int) -> int:
        # Table-free product, used while the tables are being built.
        if self.e == 1:
            return (a * b) % self.p
        da, db = self._to_digits(a), self._to_digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % self.p
        red = list(self.reduction_poly) + [1]
        return self._from_digits(_poly_rem(prod, red, self.p))

    def _powers_of_generator(self) -> np.ndarray:
        # exp[k] = g^k for k < q - 1, by doubling: exp[k:2k] = g^k exp[0:k].
        # Multiplication by y = g^k is GF(p)-linear on base-p digit vectors;
        # row t of its matrix is the digits of y X^t, and X^t has index p^t.
        p = self.p
        radix = _radix(p, self.e)
        exp = np.ones(1, dtype=np.int64)
        while len(exp) < self.q - 1:
            k = len(exp)
            y = self._pow_slow(self.generator, k)
            rows = np.array([self._to_digits(self._mul_slow(y, int(x)))
                             for x in radix], dtype=np.int64)
            digits = exp[:self.q - 1 - k, None] // radix % p
            exp = np.concatenate([exp, (digits @ rows % p) @ radix])
        return exp

    def _pow_slow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            n >>= 1
        return r

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        order_factors = prime_factors(self.q - 1)
        for g in range(2, self.q):
            if all(self._pow_slow(g, (self.q - 1) // r) != 1
                   for r in order_factors):
                return g
        raise RuntimeError("no generator found")  # unreachable


def _prime_power(q):
    factors = prime_factors(q)
    if len(factors) != 1:
        return None
    p = factors[0]
    return p, round(math.log(q, p))


DIFFERENTIAL_FIELDS = (
    [pe for pe in map(_prime_power, range(2, 1025)) if pe]
    + [(2, 16), (3, 10), (2, 15), (5, 6), (7, 5), (13, 4), (251, 2)])


@pytest.mark.parametrize("p,e", DIFFERENTIAL_FIELDS,
                         ids=[f"GF({p}^{e})" for p, e in DIFFERENTIAL_FIELDS])
def test_construction_matches_scalar_loop_constructor(p, e):
    got, want = FiniteField(p, e), ScalarLoopField(p, e)
    assert p ** e == got.q == want.q
    assert got.reduction_poly == want.reduction_poly
    assert all(type(c) is int for c in got.reduction_poly)
    assert type(got.generator) is int and got.generator == want.generator
    for name in ("exp_table", "log_table", "_zexp", "_zlog", "_sum"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 16)])
def test_tables_match_scalar_loop(p, e):
    # the doubling build against g^k by repeated table-free products, and
    # the reduction polynomial against a scan that skips no tail
    f = GF(p, e)
    slow = ScalarLoopField(p, e)
    want = np.empty(f.q - 1, dtype=np.int64)
    acc = 1
    for i in range(f.q - 1):
        want[i] = acc
        acc = slow._mul_slow(acc, f.generator)
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
