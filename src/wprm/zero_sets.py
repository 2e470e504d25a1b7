"""Zero counting for weighted homogeneous polynomials, the product family with
its closed-form count, the exhaustive max-zeros search, and bound checkers.

The product family mu0 mu1 prod_i (M0 - t_i M1) is built from its l + 1
coefficients (-1)^j e_j(t) of M0^(l-j) M1^j, one length-(l+1) array update
per factor, and never as a product of polynomials; so is the lower-bound
witness prod_i (alpha_i X_r^(a/a_r) - beta_i X_s^(a/a_s)).

The search sweeps one monomial-value matrix V per (weights, q, d) against
every coefficient vector with leading coefficient 1, which cuts the sweep to
(q^k - 1)/(q - 1) scalar classes.  Its kernel splits each vector into a high
part and a low part of its last L coefficients.  The codewords of all q^L low
parts form a byte table, built once per sweep and one digit per leading
position as the tails widen, so a sweep that stops early builds only what it
used.  Each high part h costs one small product h.V_hi over GF(q)
(`FiniteField.matmul`); the zero counts of its q^L candidates are then one
equality compare per point against -h.V_hi.  Only the field's array ops
touch field elements, so prime and extension fields share the kernel.

The zero count is also invariant under the torus (F_q^*)^(m+1), which maps
the coefficient c_j of monomial beta_j to t^(beta_j - alpha_lead) c_j once the
leading coefficient is scaled back to 1.  When the sweep knows the basis
exponents, it visits for each leading position only the high parts that are
lex-least in their torus orbit: per support of the high digits, the
characters beta_j - alpha_lead restricted to it generate a stabiliser chain
(`weighted_space.stabiliser_chain`), and the canonical high parts are the
Cartesian product of its coset minima, built from the chain widths by
`weighted_space.coset_product_keys`, as the points are.  The
low table stays complete, so every orbit of full tails keeps a visited
member, and the first maximiser in (lead, tail) order is lex-least in its
orbit, so it is visited: values, witnesses and tie-breaks are those of the
plain sweep.  Over GF(2), for a leading position with no high digit, and
for sweeps without exponents (the tests' plain reference), the same scan
runs over all q^hw high parts, so every tail is visited.  The budget bounds
the visited tails, counted from the chain widths before the sweep starts.

A leading position whose visited tails times points reach _PARALLEL_MIN
(2^28 cells, where a second worker began to pay for its pool) fans out over
one process pool per sweep; the reduction is an ordered max, so results and
witnesses are identical at any parallelism.  Only such a lead resolves the
worker count (`jobs`, else WPRM_JOBS, else the CPU count).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .finite_field import FiniteField, shared
from .weighted_space import (BudgetExceeded, WeightedProjectiveSpace, as_weights,
                             coset_product_keys, projective_count, space,
                             stabiliser_chain)
from .weighted_poly import WeightedPolynomial, monomial_basis, monomial_values

DEFAULT_CANDIDATE_BUDGET = 10 ** 8
_BLOCK = 1 << 14
_SCAN_CELLS = 3 << 20  # compare cells of one scan block: 2^14 tails x 192 points
_PARALLEL_MIN = 1 << 28  # cells (visited tails x points) of a lead worth a pool
_TABLE_CELLS = 1 << 18
_GATHER_CELLS = 1 << 16  # int64 cells of one `_extend_table` gather


# -- single-polynomial counting -----------------------------------------------------


def zero_mask(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> np.ndarray:
    """Boolean mask over sp.point_coords() rows where poly vanishes."""
    if poly.ws != sp.ws or poly.field != sp.field:
        raise ValueError(f"the polynomial lives on P{poly.ws.weights} over "
                         f"{poly.field!r}, not on {sp!r}")
    if poly.is_zero:
        raise ValueError("zero polynomial has no well-defined zero set")
    return poly.evaluate_many(sp.point_coords()) == 0


def count_zeros(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> int:
    """Number of rational points of the space where poly vanishes."""
    return int(zero_mask(poly, sp).sum())


def count_zeros_affine(poly: WeightedPolynomial, sp: WeightedProjectiveSpace) -> int:
    """Zeros on the chart x_0 != 0; meaningful when a_0 = 1."""
    return int((zero_mask(poly, sp) & (sp.point_coords()[:, 0] != 0)).sum())


@shared
def _cached_monomial_matrix(weights: tuple, field: FiniteField,
                            d: int) -> np.ndarray:
    return monomial_values(field, space(weights, field).point_coords(),
                           monomial_basis(weights, d))


def monomial_matrix(ws, field: FiniteField, d: int) -> np.ndarray:
    """Cached (read-only) monomial-value matrix for S_d on P(ws)(F_q)."""
    return _cached_monomial_matrix(as_weights(ws).weights, field, d)


# -- candidate sweep kernel -----------------------------------------------------------


def batch_zero_counts(coeffs: np.ndarray, V: np.ndarray,
                      field: FiniteField) -> np.ndarray:
    """Zeros of each candidate row of coeffs (B, k) against the value matrix V."""
    return (field.matmul(coeffs, V) == 0).sum(axis=1)


def _low_width(q: int, k: int, n: int) -> int:
    """Digits in a low part: the largest L < k with q^L * n <= _TABLE_CELLS."""
    L = 0
    while L + 1 < k and q ** (L + 1) * max(n, 1) <= _TABLE_CELLS:
        L += 1
    return L


def _extend_table(T: np.ndarray, row: np.ndarray,
                  field: FiniteField) -> np.ndarray:
    """Prepend one digit to the low parts of the table T (n, q^w).

    Column t of T is the codeword of the low part whose base-q digits are t;
    column a*q^w + t of the result is a*row + T[:, t].  The first q^w columns
    are T again.  The slices a = 0..q-1 come from one `add_arr` gather of the
    multiples a*row against T, split into runs of slices only where a gather
    would pass _GATHER_CELLS, so its int64 temporaries stay bounded.
    """
    n, cols = T.shape
    q = field.q
    multiples = field.mul_arr(row[:, None], np.arange(q))[:, :, None]
    out = np.empty((n, q, cols), dtype=T.dtype)
    step = max(1, _GATHER_CELLS // max(n * cols, 1))
    for a in range(0, q, step):
        out[:, a:a + step] = field.add_arr(multiples[:, a:a + step],
                                           T[:, None])
    return out.reshape(n, q * cols)


def _scan_lead_range(field: FiniteField, V: np.ndarray, T: np.ndarray,
                     lead: int, highs: np.ndarray,
                     stop_at: int) -> tuple[int, int]:
    """Best zero count over the tails of a leading position whose high parts
    are in highs, a sorted int64 array.

    Tails enumerate the free coefficients after the leading 1 in ascending
    mixed-radix order.  Returns (best, first tail attaining it) over the
    scanned tails up to the first one whose count reaches stop_at.  The last
    w = min(L, width) digits of a tail are its low part, whose codeword is a
    column of the low table T; the leading 1 and the other digits are its
    high part h, and the tail is h * q^w + low.  The tail vanishes at a
    point exactly where that column equals -h.V_hi, so one compare per point
    counts the zeros of every low part of h at once.
    """
    k, n = V.shape
    q = field.q
    width = k - lead - 1
    cols = min(T.shape[1], q ** width)
    low = round(math.log(cols, q))  # cols == q ** low
    Tw = T[:, :cols]
    V_hi = V[lead:k - low]
    powers = q ** np.arange(width - low - 1, -1, -1, dtype=np.int64)
    per = max(1, min(_BLOCK, _SCAN_CELLS // max(n, 1)) // cols)  # high parts per block
    counts = np.min_scalar_type(n)  # summing in a narrow dtype is faster
    best, best_tail = -1, -1
    for a in range(0, len(highs), per):
        h = highs[a:a + per]
        H = np.ones((len(h), width - low + 1), dtype=np.int64)
        H[:, 1:] = (h[:, None] // powers) % q  # the high digits
        W = field.matmul(field.neg_arr(H), V_hi).astype(T.dtype)
        # z[i] is the count of tail h[i // cols] * cols + i % cols
        z = (Tw[None] == W[:, :, None]).sum(axis=1, dtype=counts).ravel()
        i = int(np.argmax(z))
        if z[i] > best:
            stop = z[i] >= stop_at
            if stop:
                i = int(np.argmax(z >= stop_at))
            best, best_tail = int(z[i]), int(h[i // cols]) * cols + i % cols
            if stop:
                break
    return best, best_tail


def _resolve_jobs(jobs) -> int:
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("WPRM_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class _LeadPlan(NamedTuple):
    """How a sweep visits the tails of one leading position."""

    cols: int      # low parts per high part
    hw: int        # high digits after the leading 1
    widths: tuple | None  # chain width row per high support; None: all
    visited: int   # tails visited


class _SweepPlan(NamedTuple):
    leads: tuple[_LeadPlan, ...]  # indexed by leading position
    visited: int


def _lead_shape(q: int, k: int, L: int, lead: int) -> tuple[int, int]:
    # (low parts per high part, high digits) of a leading position
    width = k - 1 - lead
    return q ** min(L, width), max(0, width - L)


def _torus_rank(q: int, exponents) -> int | None:
    """Rank of the torus acting on the coefficients: the rank of the
    exponent-row differences, which bounds that of the characters
    beta_j - alpha_lead on any support (m for monomials of one weighted
    degree, whose differences are orthogonal to the weights).  None where
    the sweep visits every tail: no exponents, or GF(2)."""
    if exponents is None or q == 2:
        return None
    if len(exponents) < 2:
        return 0
    # small integer entries, so the floating-point rank is exact
    return int(np.linalg.matrix_rank(np.diff(np.asarray(exponents), axis=0)))


def _visited_floor(k: int, L: int, q: int, exponents) -> int:
    """A lower bound on the tails a sweep visits, from sizes alone.

    An orbit of a torus of rank r has at most (q-1)^r members, so a support
    of s high digits holds at least max(1, (q-1)^(s-r)) canonical high parts.
    A sweep over this floor is refused before any chain is built.
    """
    r = _torus_rank(q, exponents)
    out = 0
    for lead in range(k):
        cols, hw = _lead_shape(q, k, L, lead)
        out += cols * (q ** hw if r is None else sum(
            math.comb(hw, s) * (q - 1) ** max(0, s - r)
            for s in range(hw + 1)))
    return out


@shared
def _sweep_plan(k: int, L: int, field: FiniteField, exponents) -> _SweepPlan:
    """The visited tails of every leading position of a sweep with k rows
    and L low digits, and their total.

    Torus coordinate i adds (beta_j - alpha_lead)_i to log c_j, so on a
    support of the high digits the generator rows are those character
    entries, one column per high digit in order.
    """
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


def _canonical_highs(plan: _LeadPlan, field: FiniteField) -> np.ndarray:
    """The high parts a lead visits, ascending: all q^hw of them for a lead
    without a torus plan, else per support the Cartesian product of its
    links' coset minima, the first digit most significant."""
    if plan.widths is None:
        return np.arange(field.q ** plan.hw, dtype=np.int64)
    return coset_product_keys(field, plan.widths)


def _max_zeros_sweep(V: np.ndarray, field: FiniteField, *, exponents=None,
                     stop_at=None, budget: int = DEFAULT_CANDIDATE_BUDGET,
                     jobs=None):
    """Maximum zero count over all leading-1 coefficient vectors.

    Leading positions are scanned from the last basis element backwards, so
    sparse candidates come first; returns (best, (lead, tail), total,
    visited), with the sweep cut short once the count reaches stop_at (n
    when None: no count exceeds n, so the first tail with n zeros is the
    first maximiser).  total counts the scalar classes covered and visited
    the tails of the plan, however early the sweep stops.  Every lead scans
    the sorted array of its high parts (`_canonical_highs`): with the
    exponents of the monomials of V's rows, only the high parts lex-least
    in their torus orbit (`_sweep_plan`), else all of them; the result is
    the same.
    """
    k, n = V.shape
    q = field.q
    total = (q ** k - 1) // (q - 1)  # one leading-1 vector per scalar class
    stop_at = n if stop_at is None else stop_at
    L = _low_width(q, k, n)
    if exponents is not None:
        exponents = tuple(tuple(int(x) for x in e) for e in exponents)
    floor = _visited_floor(k, L, q, exponents)
    if floor > budget:
        raise BudgetExceeded(
            f"sweep covers {total} classes in at least {floor} visited "
            f"tails, over the budget of {budget}; raise the budget or "
            f"shrink the instance")
    plan = _sweep_plan(k, L, field, exponents)
    if plan.visited > budget:
        raise BudgetExceeded(
            f"sweep covers {total} classes in {plan.visited} visited tails, "
            f"over the budget of {budget}; raise the budget or shrink the "
            f"instance")
    T = np.zeros((n, 1), dtype=np.uint8 if q <= 256 else np.uint16)
    best, best_lead, best_tail = -1, -1, -1
    with contextlib.ExitStack() as stack:
        pool = None
        for lead in range(k - 1, -1, -1):
            width = k - 1 - lead
            if 0 < width <= L:
                T = _extend_table(T, V[k - width], field)
            lp = plan.leads[lead]
            highs = _canonical_highs(lp, field)
            # Only a lead worth a pool asks how many workers there are.
            workers = _resolve_jobs(jobs) \
                if lp.visited * n >= _PARALLEL_MIN else 1
            if workers > 1:
                if pool is None:
                    pool = stack.enter_context(
                        concurrent.futures.ProcessPoolExecutor(
                            max_workers=workers))
                b, t = _scan_lead_parallel(pool, field, V, T, lead, highs,
                                           stop_at, workers)
            else:
                b, t = _scan_lead_range(field, V, T, lead, highs, stop_at)
            if b > best:
                best, best_lead, best_tail = b, lead, t
                if best >= stop_at:
                    break
    return best, (best_lead, best_tail), total, plan.visited


def _scan_lead_parallel(pool, field, V, T, lead, highs, stop_at, jobs):
    # jobs * 4 consecutive slices of the high parts, reduced in order.
    step = -(-len(highs) // (jobs * 4))
    # The field pickles as GF(p, e), so a worker gets its cached copy.
    futures = [pool.submit(_scan_lead_range, field, V, T, lead,
                           highs[a:a + step], stop_at)
               for a in range(0, len(highs), step)]
    best, best_tail = -1, -1
    try:
        for fut in futures:
            b, t = fut.result()
            if b > best:
                best, best_tail = b, t
                if best >= stop_at:
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
    candidates: int  # scalar classes covered, (q^k - 1)/(q - 1)
    visited: int     # tails the sweep visits, one per torus class of high parts

    def __repr__(self):
        if not self.defined:
            return "MaxZerosResult(undefined)"
        return (f"MaxZerosResult(value={self.value}, "
                f"candidates={self.candidates}, visited={self.visited})")


def max_zeros(ws, field: FiniteField, d: int, *,
              budget: int = DEFAULT_CANDIDATE_BUDGET, jobs=None,
              want_witness: bool = True) -> MaxZerosResult:
    """Exact maximum of |V(F)| over nonzero F of weighted degree d.

    Undefined (defined=False) when there are no monomials of degree d.
    """
    ws = as_weights(ws)
    basis = monomial_basis(ws, d)
    if not basis:
        return MaxZerosResult(False, None, None, 0, 0)
    sp = space(ws, field)
    V = monomial_matrix(ws, field, d)
    best, (lead, tail), total, visited = _max_zeros_sweep(
        V, field, exponents=basis, budget=budget, jobs=jobs)
    witness = None
    if want_witness:
        coeffs = coeffs_at(field.q, len(basis), lead, tail)
        witness = WeightedPolynomial.from_coefficients(
            ws, field, d, basis, coeffs)
        if count_zeros(witness, sp) != best:
            raise AssertionError(f"witness {witness!r} misses the {best} "
                                 f"zeros the sweep found")
    return MaxZerosResult(True, best, witness, total, visited)


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
    """min(p_m, (d/a) q^{m-1} + p_{m-2}), a the least pairwise lcm; 0 at d = 0;
    None if a ∤ d."""
    ws = as_weights(ws)
    a, _ = min_pair_lcm(ws)
    if d % a:
        return None
    if d == 0:
        return 0
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

    With 1 <= t = d/a <= q+1 the construction uses t distinct projective-line
    points and has exactly (d/a) q^{m-1} + p_{m-2} zeros; for larger t it
    repeats a factor and is space-filling.  The count needs t >= 1: at t = 0
    the product is the constant 1, which has no zeros.  The point
    (alpha, beta) gives the factor alpha X_r^(a/a_r) - beta X_s^(a/a_s), and
    the product comes from its t + 1 coefficients (`binary_form_coefficients`).
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
    if any(not 0 <= x < field.q for pt in chosen for x in pt):
        raise ValueError("projective line points must be pairs of field "
                         "elements")
    er = tuple(a // ws[r] if j == r else 0 for j in range(len(ws)))
    es = tuple(a // ws[s] if j == s else 0 for j in range(len(ws)))
    coeffs = binary_form_coefficients(chosen, field)
    terms = {tuple((t - j) * u + j * v for u, v in zip(er, es)): cj
             for j, cj in enumerate(coeffs) if cj}
    return WeightedPolynomial(ws, field, d, terms)


def binary_form_coefficients(factors, field: FiniteField) -> list[int]:
    """Coefficients of prod_i (alpha_i M0 - beta_i M1) for field elements
    (alpha_i, beta_i): entry j multiplies M0^(t-j) M1^j, t = len(factors).

    c starts as [1, 0, ..., 0] and factor i maps c[j] to alpha_i c[j] -
    beta_i c[j-1] for j <= i: one `mul_arr` and one `add_arr` per factor,
    and one more `mul_arr` where alpha_i != 1.
    """
    c = np.zeros(len(factors) + 1, dtype=np.int64)
    c[0] = 1
    for i, (alpha, beta) in enumerate(factors, start=1):
        shifted = field.mul_arr(field.neg(beta), c[:i])
        if alpha != 1:
            c[:i] = field.mul_arr(alpha, c[:i])
        c[1:i + 1] = field.add_arr(c[1:i + 1], shifted)
    return c.tolist()


# -- the product family and its closed-form count ---------------------------------------


def _support(exps) -> tuple[int, ...]:
    return tuple(i for i, r in enumerate(exps) if r)


@dataclass(frozen=True)
class PrimitivePair:
    """Two monomials of equal weighted degree, disjoint supports, and jointly
    coprime exponents."""

    m0: tuple[int, ...]
    m1: tuple[int, ...]

    @functools.cached_property
    def supports(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The variables of m0 and of m1, computed once per pair."""
        return _support(self.m0), _support(self.m1)

    @property
    def s0(self) -> int:
        return len(self.supports[0])

    @property
    def s1(self) -> int:
        return len(self.supports[1])

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
        sup0, sup1 = self.supports
        if set(sup0) & set(sup1):
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

    @functools.cached_property
    def mu_supports(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The variables of mu0 and of mu1, computed once per spec."""
        return _support(self.mu0), _support(self.mu1)

    @property
    def sigma0(self) -> int:
        return len(self.mu_supports[0])

    @property
    def sigma1(self) -> int:
        return len(self.mu_supports[1])

    def degree(self, ws) -> int:
        ws = as_weights(ws)
        return (self.ell * self.pair.degree(ws)
                + sum(a * r for a, r in zip(ws, self.mu0))
                + sum(a * r for a, r in zip(ws, self.mu1)))

    def validate(self, ws, field: FiniteField) -> None:
        """Raise ValueError unless the spec is valid on P(ws) over field:
        a valid primitive pair, distinct nonzero t_i in the field, and mu_i
        inside the support of M_i, the whole of it when there are no t_i.
        `build_family` calls it once per polynomial it builds."""
        ws = as_weights(ws)
        self.pair.validate(ws)
        if len(self.t) != len(set(self.t)):
            raise ValueError("the t_i must be distinct")
        if any(not 0 < t < field.q for t in self.t):
            raise ValueError("the t_i must be nonzero field elements")
        for mu, mu_sup, sup in zip((self.mu0, self.mu1), self.mu_supports,
                                   self.pair.supports):
            if len(mu) != len(ws):
                raise ValueError(f"monomial {mu} has wrong arity")
            if not set(mu_sup) <= set(sup):
                raise ValueError(f"mu support {mu_sup} not inside pair "
                                 f"support")
        if self.ell == 0 and (self.sigma0 != self.pair.s0
                              or self.sigma1 != self.pair.s1):
            raise ValueError("with no product factors, each mu_i must touch "
                             "every variable of its pair monomial")


def build_family(spec: FamilySpec, ws, field: FiniteField) -> WeightedPolynomial:
    """Expand mu0 * mu1 * prod (M0 - t_i M1) as a weighted polynomial.

    The product is sum_j (-1)^j e_j(t) M0^(l-j) M1^j, so only its l + 1
    coefficients are computed (`binary_form_coefficients`).  Then c[j] is
    the coefficient of mu0 mu1 M0^(l-j) M1^j; these exponent tuples are
    distinct because M0 and M1 are nonconstant with disjoint supports.
    """
    ws = as_weights(ws)
    spec.validate(ws, field)
    ell = spec.ell
    c = binary_form_coefficients([(1, t) for t in spec.t], field)
    mu = [a + b for a, b in zip(spec.mu0, spec.mu1)]
    terms = {tuple(u + (ell - j) * r0 + j * r1
                   for u, r0, r1 in zip(mu, spec.pair.m0, spec.pair.m1)): cj
             for j, cj in enumerate(c) if cj}
    return WeightedPolynomial(ws, field, spec.degree(ws), terms)


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


@shared
def _torus_histogram(exponents: tuple, field: FiniteField) -> np.ndarray:
    # How often each log k (x^exponents = g^k) occurs on the unit torus
    # (F_q^*)^s, counted by evaluating the monomial at every torus point.
    units = np.arange(1, field.q, dtype=np.int64)
    torus = np.stack(np.meshgrid(*[units] * len(exponents), indexing="ij"),
                     axis=-1).reshape(-1, len(exponents))
    values = monomial_values(field, torus, [exponents])[0]
    return np.bincount(field.log_table[values], minlength=field.q - 1)


def _torus_correlation(a_exps: tuple, b_exps: tuple,
                       field: FiniteField) -> np.ndarray:
    # out[s] = sum_k ha[k] hb[(k + s) mod (q - 1)]: the unit-torus solutions
    # of x^a = g^s y^b for every shift s at once, one linear correlation of
    # ha against hb written out twice.
    ha = _torus_histogram(a_exps, field)
    hb = _torus_histogram(b_exps, field)
    return np.correlate(np.concatenate([hb, hb[:-1]]), ha, mode="valid")


def torus_count(a_exps, b_exps, alpha, beta, field: FiniteField):
    """Solutions in the unit torus of alpha x1^a1...xs^as = beta y1^b1...yt^bt.

    alpha and beta are nonzero field elements, or equal-length int arrays of
    them: then the int64 array of the counts of every (alpha[j], beta[j])
    comes from one gather.
    """
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    if alpha.dtype.kind not in "iu" or beta.dtype.kind not in "iu":
        raise ValueError("alpha and beta must be integers")
    if alpha.shape != beta.shape or alpha.ndim > 1:
        raise ValueError("alpha and beta must be scalars or equal-length "
                         "1-d arrays")
    if np.count_nonzero(alpha < 1) or np.count_nonzero(beta < 1):
        raise ValueError("alpha and beta must be nonzero")
    if not a_exps or not b_exps:
        raise ValueError("each side needs at least one variable")
    if any(e < 1 for e in tuple(a_exps) + tuple(b_exps)):
        raise ValueError("exponents must be positive")
    corr = _torus_correlation(tuple(int(e) for e in a_exps),
                              tuple(int(e) for e in b_exps), field)
    # In logs the equation reads log alpha + k = log beta + l (mod q - 1), so
    # each k on the left pairs with l = k + log alpha - log beta.  The
    # bounds-checked gather raises IndexError for an entry past the field.
    counts = corr[(field.log_table[alpha] - field.log_table[beta])
                  % (field.q - 1)]
    return int(counts) if counts.ndim == 0 else counts


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

    @shared
    def _maximum(affine: bool) -> int | None:
        if oracle_budget is None:
            return None
        V = monomial_matrix(ws, sp.field, d)
        if affine:
            V = V[:, sp.point_coords()[:, 0] != 0]
        try:
            return _max_zeros_sweep(V, sp.field,
                                    exponents=monomial_basis(ws, d),
                                    budget=oracle_budget)[0]
        except BudgetExceeded:
            return None

    def _report(name, value, bound, affine=False):
        best = _maximum(affine)
        reports.append(BoundReport(name, value, bound, value <= bound,
                                   None if best is None else best == bound))

    count = count_zeros(poly, sp)
    if m >= 1 and all(a == 1 for a in ws):
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
