"""Zero counting for weighted homogeneous polynomials, the product family with
its closed-form count, the exhaustive max-zeros search, and bound checkers.

The search kernel precomputes one monomial-value matrix per (weights, q, d) so
a block of candidate polynomials costs one matrix product over GF(q) against
it (`FiniteField.matmul`); candidate coefficient
vectors are normalised to leading coefficient 1, which cuts the sweep to
(q^k - 1)/(q - 1) scalar classes.  Sweeps over a big candidate block can fan
out over processes; the reduction is an ordered max, so results and witnesses
are identical at any parallelism.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .finite_field import GF, FiniteField
from .weighted_space import (BudgetExceeded, WeightedProjectiveSpace, as_weights,
                             projective_count, space)
from .weighted_poly import WeightedPolynomial, monomial_basis, monomial_values

DEFAULT_CANDIDATE_BUDGET = 10 ** 8
_BLOCK = 1 << 14
_PARALLEL_MIN = 1 << 21


# -- single-polynomial counting -----------------------------------------------------


def zero_mask(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> np.ndarray:
    """Boolean mask over sp.point_coords() rows where poly vanishes."""
    if poly.is_zero:
        raise ValueError("zero polynomial has no well-defined zero set")
    return poly.evaluate_many(sp.point_coords()) == 0


def count_zeros(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> int:
    """Number of rational points of the space where poly vanishes."""
    return int(zero_mask(poly, sp).sum())


def count_zeros_affine(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> int:
    """Zeros on the chart x_0 != 0; meaningful when a_0 = 1."""
    return int((zero_mask(poly, sp) & (sp.point_coords()[:, 0] != 0)).sum())


@functools.lru_cache(maxsize=256)
def _cached_monomial_matrix(weights: tuple, field: FiniteField,
                            d: int) -> np.ndarray:
    out = monomial_values(field, space(weights, field).point_coords(),
                          monomial_basis(weights, d))
    out.setflags(write=False)  # every caller shares the cached array
    return out


def monomial_matrix(ws, field: FiniteField, d: int) -> np.ndarray:
    """Cached (read-only) monomial-value matrix for S_d on P(ws)(F_q)."""
    return _cached_monomial_matrix(as_weights(ws).weights, field, d)


# -- candidate sweep kernel -----------------------------------------------------------


def batch_zero_counts(coeffs: np.ndarray, V: np.ndarray,
                      field: FiniteField) -> np.ndarray:
    """Zeros of each candidate row of coeffs (B, k) against the value matrix V."""
    return (field.matmul(coeffs, V) == 0).sum(axis=1)


def _scan_lead_range(field: FiniteField, V: np.ndarray, lead: int,
                     lo: int, hi: int, stop_at, block: int) -> tuple[int, int]:
    """Best zero count over tails [lo, hi) for a fixed leading position.

    Returns (best, first tail index attaining it); tails enumerate the free
    coefficients after the leading 1 in ascending mixed-radix order.
    """
    k = V.shape[0]
    q = field.q
    width = k - lead - 1
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    best, best_tail = -1, -1
    for start in range(lo, hi, block):
        tails = np.arange(start, min(start + block, hi), dtype=np.int64)
        C = np.zeros((len(tails), k), dtype=np.int64)
        C[:, lead] = 1
        if width:
            C[:, lead + 1:] = (tails[:, None] // powers) % q
        z = batch_zero_counts(C, V, field)
        i = int(np.argmax(z))
        if int(z[i]) > best:
            best, best_tail = int(z[i]), int(tails[i])
            if stop_at is not None and best >= stop_at:
                return best, best_tail
    return best, best_tail


def _scan_worker(args):
    p, e, V, lead, lo, hi, stop_at, block = args
    return _scan_lead_range(GF(p, e), V, lead, lo, hi, stop_at, block)


def _resolve_jobs(jobs) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("WPRM_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _max_zeros_sweep(V: np.ndarray, field: FiniteField, *, stop_at=None,
                     budget: int = DEFAULT_CANDIDATE_BUDGET,
                     jobs=None, block: int = _BLOCK):
    """Maximum zero count over all leading-1 coefficient vectors.

    Leading positions are scanned from the last basis element backwards, so
    sparse candidates come first; returns (best, (lead, tail), total).
    """
    k = V.shape[0]
    q = field.q
    total = (q ** k - 1) // (q - 1)  # one leading-1 vector per scalar class
    if total > budget:
        raise BudgetExceeded(
            f"sweep needs {total} candidates, over the budget of {budget}; "
            f"raise the budget or shrink the instance")
    jobs = _resolve_jobs(jobs)
    best, best_lead, best_tail = -1, -1, -1
    for lead in range(k - 1, -1, -1):
        tail_count = q ** (k - 1 - lead)
        if jobs > 1 and tail_count >= _PARALLEL_MIN:
            b, t = _scan_lead_parallel(field, V, lead, tail_count, stop_at,
                                       block, jobs)
        else:
            b, t = _scan_lead_range(field, V, lead, 0, tail_count, stop_at, block)
        if b > best:
            best, best_lead, best_tail = b, lead, t
            if stop_at is not None and best >= stop_at:
                break
    return best, (best_lead, best_tail), total


def _scan_lead_parallel(field, V, lead, tail_count, stop_at, block, jobs):
    step = -(-tail_count // (jobs * 4))
    step = -(-step // block) * block
    ranges = [(lo, min(lo + step, tail_count))
              for lo in range(0, tail_count, step)]
    args = [(field.p, field.e, V, lead, lo, hi, stop_at, block)
            for lo, hi in ranges]
    best, best_tail = -1, -1
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
        futures = [ex.submit(_scan_worker, a) for a in args]
        try:
            for fut in futures:
                b, t = fut.result()
                if b > best:
                    best, best_tail = b, t
                    if stop_at is not None and best >= stop_at:
                        break
        finally:
            for fut in futures:
                fut.cancel()
    return best, best_tail


def coeffs_at(q: int, k: int, lead: int, tail: int) -> list[int]:
    """Coefficient vector for a sweep position (leading 1 at index lead)."""
    out = [0] * k
    out[lead] = 1
    for j in range(k - 1, lead, -1):
        out[j] = tail % q
        tail //= q
    return out


# -- the max-zeros search (exhaustive oracle) -------------------------------------------


@dataclass(frozen=True)
class MaxZerosResult:
    defined: bool
    value: int | None
    witness: WeightedPolynomial | None
    candidates: int

    def __repr__(self):
        if not self.defined:
            return "MaxZerosResult(undefined)"
        return f"MaxZerosResult(value={self.value}, candidates={self.candidates})"


def max_zeros(ws, field: FiniteField, d: int, *,
              budget: int = DEFAULT_CANDIDATE_BUDGET, jobs=None,
              want_witness: bool = True) -> MaxZerosResult:
    """Exact maximum of |V(F)| over nonzero F of weighted degree d.

    Undefined (defined=False) when there are no monomials of degree d.
    """
    ws = as_weights(ws)
    basis = monomial_basis(ws, d)
    if not basis:
        return MaxZerosResult(False, None, None, 0)
    sp = space(ws, field)
    V = monomial_matrix(ws, field, d)
    n = V.shape[1]
    best, (lead, tail), total = _max_zeros_sweep(
        V, field, stop_at=n, budget=budget, jobs=jobs)
    witness = None
    if want_witness:
        coeffs = coeffs_at(field.q, len(basis), lead, tail)
        witness = WeightedPolynomial.from_coefficients(
            ws, field, d, basis, coeffs)
        if count_zeros(witness, sp) != best:
            raise AssertionError(f"witness {witness!r} misses the {best} "
                                 f"zeros the sweep found")
    return MaxZerosResult(True, best, witness, total)


# -- lower bound via products of binary forms ------------------------------------------


def min_pair_lcm(ws) -> tuple[int, tuple[int, int]]:
    """Smallest lcm(a_r, a_s) over coordinate pairs, with the first minimising pair."""
    ws = as_weights(ws)
    if len(ws) < 2:
        raise ValueError("need at least two weights")
    best, pair = None, None
    for r in range(len(ws)):
        for s in range(r + 1, len(ws)):
            l = math.lcm(ws[r], ws[s])
            if best is None or l < best:
                best, pair = l, (r, s)
    return best, pair


def max_zeros_lower_bound(ws, d: int, q: int) -> int | None:
    """min(p_m, (d/a) q^{m-1} + p_{m-2}) with a the least pairwise lcm; None if a ∤ d."""
    ws = as_weights(ws)
    a, _ = min_pair_lcm(ws)
    if d % a:
        return None
    m = ws.m
    return min(projective_count(q, m),
               (d // a) * q ** (m - 1) + projective_count(q, m - 2))


def projective_line_points(field: FiniteField) -> list[tuple[int, int]]:
    """The q+1 points of the projective line as (alpha, beta) representatives."""
    return [(1, x) for x in range(field.q)] + [(0, 1)]


def lower_bound_witness(ws, d: int, field: FiniteField, *,
                        pair: tuple[int, int] | None = None,
                        line_points=None) -> WeightedPolynomial:
    """Product of binary forms attaining the lower bound count.

    With t = d/a <= q+1 the construction uses t distinct projective-line
    points and has exactly (d/a) q^{m-1} + p_{m-2} zeros; for larger t it
    repeats a factor and is space-filling.
    """
    ws = as_weights(ws)
    a, best_pair = min_pair_lcm(ws)
    if pair is not None:
        r, s = pair
        if math.lcm(ws[r], ws[s]) != a:
            raise ValueError(f"pair {pair} does not attain the least lcm {a}")
    else:
        r, s = best_pair
    if d % a:
        raise ValueError(f"least pairwise lcm {a} does not divide {d}")
    t = d // a
    pts = list(line_points) if line_points is not None \
        else projective_line_points(field)
    if t <= len(pts):
        chosen = pts[:t]
        if len(set(chosen)) != len(chosen):
            raise ValueError("projective line points must be distinct")
    else:
        chosen = pts + [pts[0]] * (t - len(pts))
    er = tuple(a // ws[r] if j == r else 0 for j in range(len(ws)))
    es = tuple(a // ws[s] if j == s else 0 for j in range(len(ws)))
    out = WeightedPolynomial(ws, field, 0, {(0,) * len(ws): 1})
    for alpha, beta in chosen:
        factor = WeightedPolynomial(ws, field, a, {})
        if alpha:
            factor = factor + WeightedPolynomial(ws, field, a, {er: alpha})
        if beta:
            factor = factor + WeightedPolynomial(ws, field, a,
                                                 {es: field.neg(beta)})
        out = out * factor
    return out


# -- the product family and its closed-form count ---------------------------------------


def _support(exps) -> tuple[int, ...]:
    return tuple(i for i, r in enumerate(exps) if r)


@dataclass(frozen=True)
class PrimitivePair:
    """Two monomials of equal weighted degree, disjoint supports, and jointly
    coprime exponents."""

    m0: tuple[int, ...]
    m1: tuple[int, ...]

    @property
    def s0(self) -> int:
        return len(_support(self.m0))

    @property
    def s1(self) -> int:
        return len(_support(self.m1))

    def validate(self, ws) -> None:
        ws = as_weights(ws)
        for mono in (self.m0, self.m1):
            if len(mono) != len(ws):
                raise ValueError(f"monomial {mono} has wrong arity")
            if not any(mono):
                raise ValueError("pair monomials must be nonconstant")
        d0 = sum(a * r for a, r in zip(ws, self.m0))
        d1 = sum(a * r for a, r in zip(ws, self.m1))
        if d0 != d1:
            raise ValueError(f"pair degrees differ: {d0} vs {d1}")
        if set(_support(self.m0)) & set(_support(self.m1)):
            raise ValueError("pair monomials share a variable")
        exps = [r for r in self.m0 + self.m1 if r]
        if math.gcd(*exps) != 1:
            raise ValueError(f"pair exponents have gcd {math.gcd(*exps)} != 1")

    def degree(self, ws) -> int:
        ws = as_weights(ws)
        return sum(a * r for a, r in zip(ws, self.m0))


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of mu0 * mu1 * prod_i (M0 - t_i M1)."""

    pair: PrimitivePair
    t: tuple[int, ...]          # distinct nonzero field indices
    mu0: tuple[int, ...]
    mu1: tuple[int, ...]

    @property
    def ell(self) -> int:
        return len(self.t)

    @property
    def sigma0(self) -> int:
        return len(_support(self.mu0))

    @property
    def sigma1(self) -> int:
        return len(_support(self.mu1))

    def degree(self, ws) -> int:
        ws = as_weights(ws)
        return (self.ell * self.pair.degree(ws)
                + sum(a * r for a, r in zip(ws, self.mu0))
                + sum(a * r for a, r in zip(ws, self.mu1)))

    def validate(self, ws, field: FiniteField) -> None:
        ws = as_weights(ws)
        self.pair.validate(ws)
        if len(self.t) != len(set(self.t)):
            raise ValueError("the t_i must be distinct")
        if any(not 0 < t < field.q for t in self.t):
            raise ValueError("the t_i must be nonzero field elements")
        for mu, mono, sigma in ((self.mu0, self.pair.m0, self.sigma0),
                                (self.mu1, self.pair.m1, self.sigma1)):
            if len(mu) != len(ws):
                raise ValueError(f"monomial {mu} has wrong arity")
            if not set(_support(mu)) <= set(_support(mono)):
                raise ValueError(
                    f"mu support {_support(mu)} not inside pair support")
        if self.ell == 0 and (self.sigma0 != self.pair.s0
                              or self.sigma1 != self.pair.s1):
            raise ValueError("with no product factors, each mu_i must touch "
                             "every variable of its pair monomial")


def build_family(spec: FamilySpec, ws, field: FiniteField) -> WeightedPolynomial:
    """Expand mu0 * mu1 * prod (M0 - t_i M1) as a weighted polynomial."""
    ws = as_weights(ws)
    spec.validate(ws, field)
    mu = tuple(a + b for a, b in zip(spec.mu0, spec.mu1))
    out = WeightedPolynomial.monomial(ws, field, mu)
    pair_deg = spec.pair.degree(ws)
    for t in spec.t:
        factor = WeightedPolynomial(ws, field, pair_deg, {
            spec.pair.m0: 1})
        factor = factor + WeightedPolynomial(ws, field, pair_deg, {
            spec.pair.m1: field.neg(t)})
        out = out * factor
    return out


def family_zero_count(spec: FamilySpec, ws, q: int) -> int:
    """Closed-form |V| of the family polynomial: lambda q^{m+1-s0-s1} + p_{m-s0-s1}."""
    ws = as_weights(ws)
    m = ws.m
    s0, s1 = spec.pair.s0, spec.pair.s1
    g0, g1 = spec.sigma0, spec.sigma1
    bracket = (q ** s0 - (q - 1) ** s0) * (q ** s1 - (q - 1) ** s1) - 1
    if bracket % (q - 1):
        raise AssertionError("interior term is not integral")
    lam = (spec.ell * (q - 1) ** (s0 + s1 - 2)
           + bracket // (q - 1)
           + (q - 1) ** (s1 - 1) * q ** (s0 - g0) * (q ** g0 - (q - 1) ** g0)
           + (q - 1) ** (s0 - 1) * q ** (s1 - g1) * (q ** g1 - (q - 1) ** g1))
    return lam * q ** (m + 1 - s0 - s1) + projective_count(q, m - s0 - s1)


# -- torus counting -------------------------------------------------------------------


def _torus_side_values(exponents, scale: int, field: FiniteField) -> np.ndarray:
    # scale * x^exponents at every point of the unit torus (F_q^*)^s.
    units = np.arange(1, field.q, dtype=np.int64)
    torus = np.stack(np.meshgrid(*[units] * len(exponents), indexing="ij"),
                     axis=-1).reshape(-1, len(exponents))
    return field.mul_arr(scale, monomial_values(field, torus, [exponents])[0])


def torus_count(a_exps, b_exps, alpha: int, beta: int,
                field: FiniteField) -> int:
    """Solutions in the unit torus of alpha x1^a1...xs^as = beta y1^b1...yt^bt."""
    if alpha == 0 or beta == 0:
        raise ValueError("alpha and beta must be nonzero")
    if not a_exps or not b_exps:
        raise ValueError("each side needs at least one variable")
    if any(e < 1 for e in tuple(a_exps) + tuple(b_exps)):
        raise ValueError("exponents must be positive")
    lhs = _torus_side_values(a_exps, alpha, field)
    rhs = _torus_side_values(b_exps, beta, field)
    cl = np.bincount(lhs, minlength=field.q)
    cr = np.bincount(rhs, minlength=field.q)
    return int((cl * cr).sum())


def torus_closed_form(a_exps, b_exps, q: int) -> int:
    """(q-1)^{s0+s1-1}; valid when the exponents are jointly coprime."""
    exps = tuple(a_exps) + tuple(b_exps)
    if math.gcd(*exps) != 1:
        raise ValueError(f"exponents {exps} are not jointly coprime")
    return (q - 1) ** (len(exps) - 1)


# -- bound checking -------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: int
    bound: int
    satisfied: bool
    sharp: bool | None  # None when no oracle budget allowed the comparison


def check_bounds(poly: WeightedPolynomial, sp: WeightedProjectiveSpace, *,
                 oracle_budget: int | None = None) -> list[BoundReport]:
    """Every applicable upper bound on |V(poly)|, each with its hypotheses checked.

    With an oracle budget, a bound is sharp when the exhaustive maximum over
    the nonzero F of degree d equals it: over all points for the projective
    bounds, over the chart x_0 != 0 for the affine one.  Each of the two
    maxima is swept at most once per call.
    """
    if poly.is_zero:
        raise ValueError("bounds apply to nonzero polynomials")
    ws, q, m, d = sp.ws, sp.q, sp.m, poly.degree
    reports = []

    @functools.cache
    def _maximum(affine: bool) -> int | None:
        if oracle_budget is None:
            return None
        V = monomial_matrix(ws, sp.field, d)
        if affine:
            V = V[:, sp.point_coords()[:, 0] != 0]
        try:
            return _max_zeros_sweep(V, sp.field, stop_at=V.shape[1],
                                    budget=oracle_budget)[0]
        except BudgetExceeded:
            return None

    def _report(name, value, bound, affine=False):
        best = _maximum(affine)
        reports.append(BoundReport(name, value, bound, value <= bound,
                                   None if best is None else best == bound))

    count = count_zeros(poly, sp)
    if all(a == 1 for a in ws):
        _report("serre", count,
                d * q ** (m - 1) + projective_count(q, m - 2))
    if m == 2 and ws[0] == 1 and ws[1] <= ws[2]:
        a1, a2 = ws[1], ws[2]
        if d % (a1 * a2) == 0:
            if d <= a1 * (q + 1):
                _report("weighted_plane", count, (d // a1) * q + 1)
            _report("weighted_ore_affine", count_zeros_affine(poly, sp),
                    (d // a1) * q, affine=True)
    if m == 1 and ws[0] == 1 and d % ws[1] == 0:
        _report("weighted_dalembert", count, d // ws[1])
    return reports
