"""Pure-Python references the tests hold the library to.

`affine_points` and `affine_monomials` are the point set and the monomial
order that Reed-Muller codes were built from before RM became the chart
x_0 != 0 of the projective code; `evaluate` is the scalar evaluator that
`monomial_values` and `WeightedPolynomial.evaluate_many` replaced, and
`monomial_values` the array kernel with a separate zero mask that the
one-pass log-domain kernel replaced.
"""

import numpy as np


def affine_points(field, m: int) -> np.ndarray:
    """All q^m affine tuples, lex ascending with the first coordinate most significant."""
    q = field.q
    keys = np.arange(q ** m, dtype=np.int64)
    radix = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return (keys[:, None] // radix) % q


def affine_monomials(m: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples in m variables with total degree <= d, lex ascending."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, budget: int, prefix: tuple[int, ...]):
        if i == m:
            out.append(prefix)
            return
        for r in range(budget + 1):
            rec(i + 1, budget - r, prefix + (r,))

    rec(0, d, ())
    return out


def evaluate_terms(field, terms: dict, coords) -> int:
    """Scalar sum of c * x^e over an {exponents: coefficient} map."""
    total = 0
    for exps, coeff in terms.items():
        v = coeff
        for x, r in zip(coords, exps):
            if r:
                v = field.mul(v, field.pow(int(x), r))
                if v == 0:
                    break
        total = field.add(total, v)
    return total


def evaluate(poly, coords) -> int:
    """A polynomial's value at one coordinate tuple, term by term."""
    return evaluate_terms(poly.field, poly.terms, coords)


def monomial_values(field, coords, exponents) -> np.ndarray:
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
