"""Weighted homogeneous polynomials: graded monomial bases, evaluation and
a text format.

Every evaluation in the library goes through `monomial_values`, the matrix
of monomial values at a set of coordinate rows; a polynomial's values are
its coefficient vector times that matrix over GF(q) (`evaluate_many`, also
for a single row).  A polynomial on the chart x_0 != 0 of P^m is its
homogenisation in X_0, so the Reed-Muller codes need no second type.

A polynomial is a sparse map from exponent tuples to nonzero coefficient
indices, all terms sharing one weighted degree.  Bases are emitted in
ascending lexicographic exponent order so downstream matrices are
reproducible bit for bit.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .finite_field import FiniteField, shared
from .weighted_space import as_weights


def weighted_degree(ws, exponents) -> int:
    ws = as_weights(ws)
    return sum(a * r for a, r in zip(ws, exponents))


def monomial_basis(ws, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples with sum a_i r_i = d, lex ascending; may be empty.

    Each call returns a fresh list, so callers may mutate it."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return list(_monomial_basis(as_weights(ws).weights, d))


@shared
def _monomial_basis(ws: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(ws) - 1:
            if remaining % ws[i] == 0:
                out.append(prefix + (remaining // ws[i],))
            return
        for r in range(remaining // ws[i] + 1):
            rec(i + 1, remaining - r * ws[i], prefix + (r,))

    rec(0, d, ())
    return tuple(out)


def dim_Sd(ws, d: int) -> int:
    """Dimension of the space of weighted homogeneous polynomials of degree d."""
    return len(monomial_basis(ws, d))


def dim_plane_formula(a: int, b: int, d: int) -> int:
    """Closed form for weights (1, a, b) when lcm(a, b) divides d."""
    if d % math.lcm(a, b):
        raise ValueError(f"lcm({a},{b}) does not divide {d}")
    num = (d + 2 * a) * (d + b) + (math.gcd(a, b) - a) * d
    if num % (2 * a * b):
        raise AssertionError("closed form is not integral")
    return num // (2 * a * b)


def dim_plane_equal_weight_formula(a: int, d: int) -> int:
    """Closed form for weights (1, 1, a) when a divides d."""
    if d % a:
        raise ValueError(f"{a} does not divide {d}")
    num = (d + a) * (d + 2)
    if num % (2 * a):
        raise AssertionError("closed form is not integral")
    return num // (2 * a)


def monomial_values(field: FiniteField, coords, exponents) -> np.ndarray:
    """(k, n) matrix of the values of k exponent tuples at n coordinate rows.

    Works in the log domain: one integer product E @ log(x).T mod (q - 1)
    gives every product of powers of units, and a zero mask sets a value to
    0 where some x_j = 0 has r_j > 0 (x^0 = 1, also at x = 0).
    """
    coords = np.asarray(coords, dtype=np.int64)
    E = np.array(exponents, dtype=np.int64).reshape(-1, coords.shape[1])
    zero = coords == 0
    logs = np.where(zero, 0, field.log_table[coords])
    out = field.exp_table[(E @ logs.T) % (field.q - 1)]
    out[(E > 0).astype(np.int64) @ zero.T.astype(np.int64) > 0] = 0
    return out


def coefficient_vector(poly, basis_index: dict) -> np.ndarray:
    """Coefficients of a polynomial over a basis given as {exponents: position}."""
    v = np.zeros(len(basis_index), dtype=np.int64)
    for exps, c in poly.terms.items():
        v[basis_index[exps]] = c
    return v


class WeightedPolynomial:
    """Element of S_d as a sparse exponent-tuple -> coefficient-index map."""

    __slots__ = ("ws", "field", "degree", "terms")

    def __init__(self, ws, field: FiniteField, degree: int, terms: dict):
        ws = as_weights(ws)
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(r) for r in exps)
            coeff = int(coeff)
            if len(exps) != len(ws):
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(r < 0 for r in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not 0 <= coeff < field.q:
                raise ValueError(f"coefficient {coeff} outside GF({field.q})")
            deg = sum(a * r for a, r in zip(ws.weights, exps))
            if deg != degree:
                raise ValueError(f"monomial {exps} has weighted degree "
                                 f"{deg}, expected {degree}")
            if coeff:
                clean[exps] = coeff
        self.ws = ws
        self.field = field
        self.degree = int(degree)
        self.terms = clean

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, ws, field, degree: int) -> "WeightedPolynomial":
        return cls(ws, field, degree, {})

    @classmethod
    def monomial(cls, ws, field, exponents, coeff: int = 1) -> "WeightedPolynomial":
        ws = as_weights(ws)
        d = weighted_degree(ws, exponents)
        return cls(ws, field, d, {tuple(exponents): coeff})

    @classmethod
    def from_coefficients(cls, ws, field, degree: int,
                          basis, coeffs) -> "WeightedPolynomial":
        terms = {tuple(e): int(c) for e, c in zip(basis, coeffs) if c}
        return cls(ws, field, degree, terms)

    # -- ring structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _compat(self, other: "WeightedPolynomial"):
        if self.ws != other.ws or self.field != other.field:
            raise ValueError("polynomials from different graded rings")

    def __add__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        self._compat(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError(
                f"cannot add degrees {self.degree} and {other.degree}")
        f = self.field
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = f.add(terms.get(exps, 0), c)
        deg = self.degree if self.terms or not other.terms else other.degree
        return WeightedPolynomial(self.ws, f, deg, terms)

    def __neg__(self) -> "WeightedPolynomial":
        f = self.field
        return WeightedPolynomial(
            self.ws, f, self.degree,
            {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        return self + (-other)

    def __mul__(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        self._compat(other)
        f = self.field
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = f.add(terms.get(e, 0), f.mul(c1, c2))
        return WeightedPolynomial(self.ws, f, self.degree + other.degree, terms)

    def __pow__(self, n: int) -> "WeightedPolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = WeightedPolynomial(self.ws, self.field, 0,
                                 {(0,) * len(self.ws): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, WeightedPolynomial)
                and self.ws == other.ws and self.field == other.field
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ws, self.field, self.degree,
                     tuple(sorted(self.terms.items()))))

    # -- evaluation ------------------------------------------------------------------

    def evaluate_many(self, coords: np.ndarray) -> np.ndarray:
        """Values at every row of an (n, m+1) coordinate index array."""
        coeffs = np.array(list(self.terms.values()), dtype=np.int64)
        return self.field.matmul(
            coeffs, monomial_values(self.field, coords, list(self.terms)))

    def __repr__(self):
        return f"WeightedPolynomial({format_polynomial(self)!r}, ws={self.ws.weights})"


# -- text format ------------------------------------------------------------------


def format_polynomial(poly: WeightedPolynomial) -> str:
    """Render as `c*X0^r0*X1*...` terms joined by ' + '; zero renders as '0'."""
    if poly.is_zero:
        return "0"
    parts = []
    for exps in sorted(poly.terms):
        coeff = poly.terms[exps]
        factors = [str(coeff)]
        for j, r in enumerate(exps):
            if r == 1:
                factors.append(f"X{j}")
            elif r > 1:
                factors.append(f"X{j}^{r}")
        parts.append("*".join(factors))
    return " + ".join(parts)


_FACTOR_RE = re.compile(r"^X(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, ws, field: FiniteField) -> WeightedPolynomial:
    """Parse the `c*X0^r0*...` format; terms separated by '+'."""
    ws = as_weights(ws)
    npos = len(ws)
    terms: dict = {}
    degree = None
    body = text.strip()
    if body in ("", "0"):
        raise ValueError("cannot parse the zero polynomial without a degree")
    for raw_term in body.split("+"):
        exps = [0] * npos
        coeff = None
        for factor in raw_term.strip().split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {raw_term!r}")
            mt = _FACTOR_RE.match(factor)
            if mt:
                j = int(mt.group(1))
                if j >= npos:
                    raise ValueError(f"variable X{j} out of range")
                exps[j] += int(mt.group(2) or 1)
            else:
                if coeff is not None:
                    raise ValueError(f"two coefficients in term {raw_term!r}")
                coeff = int(factor)
        coeff = 1 if coeff is None else coeff
        if not 0 <= coeff < field.q:
            raise ValueError(f"coefficient {coeff} outside GF({field.q})")
        e = tuple(exps)
        d = weighted_degree(ws, e)
        if degree is None:
            degree = d
        elif degree != d:
            raise ValueError(
                f"mixed weighted degrees {degree} and {d} in {text!r}")
        terms[e] = field.add(terms.get(e, 0), coeff)
    return WeightedPolynomial(ws, field, degree, terms)
