"""Arithmetic in the finite field GF(p^e) for prime-power sizes up to 2**16.

Elements travel as plain integer indices in [0, q).  Index 0 is the additive
zero and index 1 the multiplicative one; for e > 1 the index encodes the
coefficient vector of the residue polynomial in base p, constant term in the
lowest digit, so indices 0..p-1 are exactly the prime subfield.

The tables are built with GF(p)-linear maps on these digit vectors, in
blocks of array operations.  The reduction polynomial is the lex-least
irreducible monic: each candidate's remainders modulo every monic of degree
<= e/2 come from one product with a table of the remainders of X^j.  The
product with y is the matrix M_y = sum_t y_t C^t, C the companion matrix of
the reduction polynomial.  The generator g is the least index >= 2 whose
M_g^((q-1)/r) is not the identity for any prime r | q - 1.  `exp_table`
lists g^k for k < q - 1, by doubling: one exact float product with M_(g^k)
mod p turns the digits of exp[:k] into those of exp[k:2k].  `log_table`
inverts it, with -1 at index 0.

The array product is one add and one gather with no mask: `_zlog` is
`log_table` with the log of 0 set to 2(q - 1), and `_zexp` is `exp_table`
written out twice and then padded with zeros to length 4(q - 1) + 1, so two
unit logs land in the doubled table and a zero operand in the padding.

Sums are gathers too.  Every field with q <= 256 holds a q x q sum table and
adds as the one gather `_sum[a * q + b]`, for prime and extension fields
alike.  Above 256 a prime field adds as (a + b) mod p, and an extension
field adds the rows of a base-p digit table (built on first use, once per
(p, e)) mod p and reads the index back off with the radix vector.
`sub_multiples` clears a column for row reduction: each row to clear takes
its multiple of the pivot row and the sum is one more gather.  A negation is
integer arithmetic mod p on prime fields and the product with -1 (index
p - 1) for e > 1.  The field owns the GF(p) / GF(p^e) split: callers use its
array ops and `matmul` and never branch on the extension degree themselves.

Every memo of the package is `shared`: an LRU cache of `CACHE_ENTRIES` (256)
results per function, whose arrays every caller shares read-only.
"""

from __future__ import annotations

import functools

import numpy as np

CACHE_ENTRIES = 256  # results kept by each `shared` function
FIELD_SIZE_CAP = 1 << 16
_SUM_TABLE_MAX_Q = 256  # fields up to this size add through a q x q table
_ONE_THREAD_MACS = 1 << 18  # BLAS runs a product this small on one thread
_GENERATOR_BLOCK = 32  # candidate generators tested at once


def shared(fn):
    """fn memoised in an LRU cache of CACHE_ENTRIES results.  A miss makes
    an array result, or each array at the top level of a tuple result,
    read-only; a hit costs what an `lru_cache` hit costs.  An exception is
    not cached."""
    @functools.wraps(fn)
    def build(*args, **kwargs):
        out = fn(*args, **kwargs)
        for value in out if isinstance(out, tuple) else (out,):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return out
    return functools.lru_cache(maxsize=CACHE_ENTRIES)(build)


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


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    # x mod p in place for integer-valued floats, ~10x faster than np.fmod
    x -= p * np.floor(x / p)
    return x


def _canonical_reduction(p: int, e: int) -> tuple[int, ...]:
    # Lexicographically smallest irreducible monic of degree e, comparing
    # coefficients low degree first under 0 < 1 < ... < p-1.  X divides the
    # candidates with constant term 0, which come first; any other is
    # reducible iff a monic D of degree d <= e // 2 with D(0) != 0 divides
    # it.  Row j of rems[d-1] holds X^j mod D for every such D.
    rems = []
    for d in range(1, e // 2 + 1):
        den = _digits(p, d)[np.arange(p ** d) % p != 0]  # tails of such D
        r = np.zeros((e + 1, len(den), d))
        r[:d] = np.eye(d)[:, None]  # X^j for j < d
        for j in range(d - 1, e):  # X^(j+1) = X X^j, and X^d = -(tail of D)
            r[j + 1, :, 1:] = r[j, :, :-1]
            r[j + 1] = (r[j + 1] - r[j, :, -1:] * den) % p
        rems.append(r.reshape(e + 1, -1))
    lex = p ** np.arange(e - 1, -1, -1)  # tail[0] is the slowest digit
    block = max(1, _ONE_THREAD_MACS // rems[-1].size)
    for lo in range(p ** (e - 1), p ** e, block):
        f = np.ones((min(block, p ** e - lo), e + 1))
        f[:, :e] = np.arange(lo, lo + len(f))[:, None] // lex % p
        irreducible = np.ones(len(f), dtype=bool)
        for d, r in enumerate(rems, 1):
            rem = _mod_p(f @ r, p).reshape(len(f), -1, d)
            irreducible &= rem.any(axis=2).all(axis=1)
        if irreducible.any():
            return tuple(int(c) for c in f[np.argmax(irreducible), :e])
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
        self.generator, m_g = self._find_generator()
        exp = self._powers_of_generator(m_g)
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

    def _find_generator(self) -> tuple[int, np.ndarray]:
        # The least index g >= 2 of order q - 1, and M_g: column t holds the
        # digits of g X^t, so M_g^n is the identity exactly where g^n = 1.
        # Each M_g^((q-1)/r) is a product of the shared squares M_g^(2^i).
        p, e, q = self.p, self.e, self.q
        basis = np.empty((e, e, e))  # C^t
        basis[0] = np.eye(e)
        if e > 1:
            companion = np.eye(e, k=-1)  # X X^t = X^(t+1) for t < e - 1
            companion[:, -1] = (-np.asarray(self.reduction_poly)) % p
            for t in range(1, e):
                basis[t] = _mod_p(basis[t - 1] @ companion, p)
        for lo in range(min(2, q - 1), q, _GENERATOR_BLOCK):  # 1 on GF(2)
            g = np.arange(lo, min(lo + _GENERATOR_BLOCK, q))
            m = (g[:, None] // _radix(p, e) % p) @ basis.reshape(e, -1)
            squares = [_mod_p(m, p).reshape(-1, e, e)]
            while 2 ** len(squares) <= (q - 1) // 2:
                squares.append(_mod_p(squares[-1] @ squares[-1], p))
            primitive = np.ones(len(g), dtype=bool)
            for r in prime_factors(q - 1):
                n = (q - 1) // r
                powered = functools.reduce(
                    lambda a, b: _mod_p(a @ b, p),
                    [s for i, s in enumerate(squares) if n >> i & 1])
                primitive &= ~(powered == np.eye(e)).all(axis=(1, 2))
            if primitive.any():
                i = int(np.argmax(primitive))
                return int(g[i]), squares[0][i]
        raise RuntimeError("no generator found")  # unreachable

    def _powers_of_generator(self, m_g: np.ndarray) -> np.ndarray:
        # exp[k] = g^k for k < q - 1 by doubling, on the rows of `digits`.
        # float32 is exact, as e (p-1)^2 < 2^24 when 1 < e and p^e <= 2^16; a
        # prime field's 1 x 1 products take float64 (no BLAS in numpy).
        # The rows go in blocks that BLAS runs on the calling thread: waking
        # its worker threads made the whole build 3-6 times slower in about
        # half of the fresh interpreters on 2 CPUs.
        p, e, n = self.p, self.e, self.q - 1
        step = max(1, _ONE_THREAD_MACS // e ** 2)
        digits = np.zeros((n, e), dtype=np.float32 if e > 1 else np.float64)
        digits[0, 0] = 1
        m_y = m_g.astype(digits.dtype)
        k = 1
        while k < n:
            m = min(k, n - k)
            for i in range(0, m, step):
                rows = digits[k + i:k + min(i + step, m)]
                _mod_p(np.matmul(digits[i:i + len(rows)], m_y.T, out=rows), p)
            m_y = _mod_p(m_y @ m_y, p)
            k += m
        # einsum, not BLAS: a matrix-vector product this long runs threaded
        radix = _radix(p, e).astype(digits.dtype)
        return np.einsum("ij,j->i", digits, radix).astype(np.int64)

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

        With a sum table each row takes its multiple of -vec directly and
        the sum is taken in place on rows, one more gather.  Without a sum
        table the multiples are built once per distinct coefficient, so the
        table never outgrows rows.
        """
        neg = self.neg_arr(vec)
        if self._sum is not None:
            rows *= self.q
            rows += self.mul_arr(np.asarray(coeffs)[:, None], neg)
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


@shared
def _radix(p: int, e: int) -> np.ndarray:
    return p ** np.arange(e, dtype=np.int64)


@shared
def _digits(p: int, e: int) -> np.ndarray:
    # Row a holds the e base-p digits of index a, constant term first.  uint16
    # holds the sum of two digits for p < 2^15, which covers every field that
    # adds through this table: q <= 256, or e > 1 under the size cap.
    return (np.arange(p ** e, dtype=np.int64)[:, None] // _radix(p, e)
            % p).astype(np.uint16)


@shared
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
