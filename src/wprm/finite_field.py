"""Arithmetic in the finite field GF(p^e) for prime-power sizes up to 2**16.

Elements travel as plain integer indices in [0, q).  Index 0 is the additive
zero and index 1 the multiplicative one; for e > 1 the index encodes the
coefficient vector of the residue polynomial in base p, constant term in the
lowest digit, so indices 0..p-1 are exactly the prime subfield.  Products are
looked up in generator exp/log tables (Zech-style).  `exp_table` lists g^k for
k < q - 1 and `log_table` inverts it, with -1 at index 0.

The array product uses a second pair of tables with a zero sentinel, so that
it is one add and one gather with no mask: `_zlog` is `log_table` with the log
of 0 set to 2(q - 1), and `_zexp` is `exp_table` written out twice and then
padded with zeros to length 4(q - 1) + 1.  Two unit logs sum to less than
2(q - 1) and land in the doubled table; a sum with any zero operand lands in
the padding.

Sums are gathers too.  Every field with q <= 256 holds a q x q sum table,
built once next to the product tables, and the array sum is the one gather
`_sum[a * q + b]`, for prime and extension fields alike.  Above 256 a prime
field adds as (a + b) mod p, and an extension field adds the rows of a
base-p digit table (built on first use, once per (p, e)) mod p and reads
the index back off in one product with the radix vector.
Row reduction subtracts multiples of the pivot row through `sub_multiples`:
one table of multiples, one row gather, and with a sum table the sum taken
in place on the caller's copy of the rows.
A negation is plain integer arithmetic mod p on prime fields and the
product with -1 (index p - 1) for e > 1.  The field owns the GF(p) /
GF(p^e) split: callers use its array ops and `matmul` and never branch on
the extension degree themselves.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

FIELD_SIZE_CAP = 1 << 16
_SUM_TABLE_MAX_Q = 256  # fields up to this size add through a q x q table


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


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


class FiniteField:
    """Immutable arithmetic context for GF(p^e); safe to share freely."""

    __slots__ = ("p", "e", "q", "reduction_poly", "generator",
                 "exp_table", "log_table", "_zexp", "_zlog", "_sum")

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > FIELD_SIZE_CAP:
            raise ValueError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
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
        if q <= _SUM_TABLE_MAX_Q:
            # _sum[a * q + b] = a + b: digit sums mod p, read back in base p
            d = _digits(p, e)
            self._sum = ((d[:, None] + d[None]) % p @ _radix(p, e)).ravel()

    # -- construction helpers ------------------------------------------------

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

    # -- scalar arithmetic on indices ----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self._sum is not None:
            return self._sum.item(a * self.q + b)
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.mul(a, self.p - 1)  # -1 is the prime-subfield index p - 1

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[(self.log_table[a] + self.log_table[b])
                                  % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp_table[(-self.log_table[a]) % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        return int(self.exp_table[(self.log_table[a] * n) % (self.q - 1)])

    def from_int(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p^e) (lands in the prime subfield)."""
        return n % self.p

    # -- vectorised arithmetic on int64 index arrays --------------------------

    def add_arr(self, a, b) -> np.ndarray:
        # a in int64, so that a * q cannot overflow a narrow dtype; a narrow b
        # is widened element by element as it is added, with no int64 copy
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b)
        if self._sum is not None:
            return self._sum[a * self.q + b]
        if self.e == 1:
            return (a + b) % self.p
        d = _digits(self.p, self.e)
        return (d[a] + d[b]) % self.p @ _radix(self.p, self.e)

    def neg_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.e == 1:
            return (-a) % self.p
        return self.mul_arr(a, self.p - 1)  # -a = (-1) a, one gather

    def sub_arr(self, a, b) -> np.ndarray:
        return self.add_arr(a, self.neg_arr(b))

    def sub_multiples(self, rows: np.ndarray, coeffs, vec) -> np.ndarray:
        """rows[i] - coeffs[i] * vec for every i, for an int64 array rows
        that the caller gives up: it is overwritten as scratch.

        The multiples of -vec are built once, one per field element where
        the field has a sum table and one per distinct coefficient otherwise,
        so the table never outgrows rows.  Each row gathers its multiple; with
        a sum table the sum is then taken in place on rows, one more gather.
        """
        neg = self.neg_arr(vec)
        if self._sum is not None:
            rows *= self.q
            rows += self.mul_arr(np.arange(self.q)[:, None], neg)[coeffs]
            return self._sum[rows]
        keys, pick = np.unique(coeffs, return_inverse=True)
        return self.add_arr(rows, self.mul_arr(keys[:, None], neg)[pick])

    def mul_arr(self, a, b) -> np.ndarray:
        zlog = self._zlog
        return self._zexp[zlog[np.asarray(a, dtype=np.int64)]
                          + zlog[np.asarray(b, dtype=np.int64)]]

    def pow_arr(self, a, n: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if n == 0:
            return np.ones(a.shape, dtype=np.int64)
        if n < 0:
            return self.pow_arr(self.inv_arr(a), -n)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        if nz.any():
            out[nz] = self.exp_table[(self.log_table[a[nz]] * n) % (self.q - 1)]
        return out

    def inv_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if (a == 0).any():
            raise ZeroDivisionError("inverse of zero")
        return np.asarray(self.exp_table[(-self.log_table[a]) % (self.q - 1)],
                          dtype=np.int64)

    def matmul(self, a, b, c=None) -> np.ndarray:
        """c + a @ b over GF(q), for index arrays a (..., k) and b (k, n) and
        an optional c of the product's shape (zero when omitted)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            out = a @ b
            if c is not None:
                out += c  # so that the whole update takes one reduction
            return out % self.p
        # For e > 1 integer arithmetic on indices is not field arithmetic, so
        # add up one rank-1 term per inner index through the table ops,
        # skipping the all-zero columns of a.
        out = (np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
               if c is None else np.asarray(c, dtype=np.int64))
        for j in range(b.shape[0]):
            col = a[..., j]
            if col.any():
                out = self.add_arr(out, self.mul_arr(col[..., None], b[j]))
        return out

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash((FiniteField, self.p, self.e))

    def __reduce__(self):
        return (GF, (self.p, self.e))

    def __repr__(self):
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


@functools.lru_cache(maxsize=None)
def _radix(p: int, e: int) -> np.ndarray:
    out = p ** np.arange(e, dtype=np.int64)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _digits(p: int, e: int) -> np.ndarray:
    # Row a holds the e base-p digits of index a, constant term first.  uint16
    # holds the sum of two digits for p < 2^15, which covers every field that
    # adds through this table: q <= 256, or e > 1 under the size cap.
    out = (np.arange(p ** e, dtype=np.int64)[:, None] // _radix(p, e)
           % p).astype(np.uint16)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, e: int) -> FiniteField:
    return FiniteField(p, e)


def GF(p: int, e: int = 1) -> FiniteField:
    """Cached field constructor; GF(p, e) is GF of size p**e."""
    return _cached_field(p, e)


def field_from_spec(spec: str) -> FiniteField:
    """Parse a field description, either "q" or "p^e" (e.g. "19", "2^2")."""
    s = spec.strip()
    if "^" in s:
        ps, es = s.split("^", 1)
        return GF(int(ps), int(es))
    q = int(s)
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"not a prime power: {q}")
    p = factors[0]
    e = 0
    n = q
    while n > 1:
        n //= p
        e += 1
    return GF(p, e)
