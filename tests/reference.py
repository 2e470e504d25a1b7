"""Pure-Python references the tests hold the library to.

`affine_points` and `affine_monomials` are the point set and the monomial
order that Reed-Muller codes were built from before RM became the chart
x_0 != 0 of the projective code; `evaluate` is the scalar evaluator that
`monomial_values` and `WeightedPolynomial.evaluate_many` replaced, and
`monomial_values` the array kernel with a separate zero mask that the
one-pass log-domain kernel replaced.  `torus_sweep_plan` is the sweep plan
that visited one tail per torus class of high parts on every support, before
the normal form zeroed the killed digits.
"""

import math

import numpy as np

from wprm.weighted_space import stabiliser_chain
from wprm.zero_sets import _LeadPlan, _SweepPlan, _lead_shape, _torus_rank


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


def torus_sweep_plan(k: int, L: int, field, exponents) -> _SweepPlan:
    """The visited tails of every leading position of a sweep with k rows
    and L low digits, and their total: the torus-canonical high parts of
    every high support, or every tail without a torus plan."""
    q, n1 = field.q, field.q - 1
    r = _torus_rank(q, exponents)
    leads = []
    for lead in range(k):
        cols, hw = _lead_shape(q, k, L, lead)
        if r is None or hw == 0:
            leads.append(_LeadPlan(cols, hw, None, cols * q ** hw))
            continue
        alpha = exponents[lead]
        chars = [[(b - a) % n1 for b, a in zip(exponents[lead + 1 + p], alpha)]
                 for p in range(hw)]
        widths, count = [], 0
        for mask in range(1 << hw):
            positions = tuple(p for p in range(hw) if mask >> p & 1)
            chain = stabiliser_chain(
                tuple(zip(*(chars[p] for p in positions))), field)
            row = [0] * hw
            for p, link in zip(positions, chain):
                row[p] = link.width
            widths.append(tuple(row))
            count += math.prod(link.width for link in chain)
        leads.append(_LeadPlan(cols, hw, tuple(widths), cols * count))
    return _SweepPlan(tuple(leads), sum(lp.visited for lp in leads))
