"""Grid-based verification suites: every closed form, bound and invariance in
the library checked against brute force over exhaustive or seeded-random
grids.  The CLI `verify` subcommand and the acceptance tests both run these.

Each suite returns a SuiteResult with the number of checks performed, the
number of cases skipped because they went over a budget, and a (capped) list
of counterexample descriptions; an empty failure list means the suite passed.
A skipped case is never counted as a check.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .finite_field import FiniteField, field_from_spec
from .weighted_space import (BudgetExceeded, WeightSystem, as_weights,
                             delorme_reduce, format_point, projective_count,
                             space)
from .weighted_poly import (WeightedPolynomial, coefficient_vector, dim_Sd,
                            monomial_basis)
from .zero_sets import (FamilySpec, PrimitivePair, batch_zero_counts,
                        build_family, count_zeros, family_zero_count,
                        lower_bound_witness, max_zeros, max_zeros_lower_bound,
                        min_pair_lcm, monomial_matrix, projective_line_points,
                        torus_closed_form, torus_count)
from .plane_lines import LineSystem
from . import codes as codes_mod

_MAX_FAILURES = 20


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    skipped: int = 0
    failures: list[str] = dc_field(default_factory=list)
    elapsed: float = 0.0
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str = "") -> None:
        self.checks += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        """Keep a counterexample of a check already counted."""
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        skipped = f", {self.skipped} skipped" if self.skipped else ""
        return (f"{status} {self.name}: {self.checks} checks, "
                f"{len(self.failures)} failures{skipped}, {self.elapsed:.2f}s")


@contextlib.contextmanager
def _quiet_wprm_past_q():
    """Silence the warning of `build_code` for WPRM codes of degree d > q,
    which a suite builds on purpose; the warning filters are restored on
    exit."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"WPRM with d = \d+ > q = \d+: ",
                                UserWarning)
        yield


def _field_for(q: int) -> FiniteField:
    return field_from_spec(str(q))


def _weight_tuples(max_entry: int, npos: int):
    for ws in itertools.product(range(1, max_entry + 1), repeat=npos):
        if math.gcd(*ws) == 1:
            yield ws


def _random_nonzero_rows(rng, count: int, k: int, q: int) -> np.ndarray:
    C = rng.integers(0, q, size=(count + 8, k), dtype=np.int64)
    C = C[C.any(axis=1)]
    while C.shape[0] < count:
        extra = rng.integers(0, q, size=(count, k), dtype=np.int64)
        C = np.concatenate([C, extra[extra.any(axis=1)]])
    return C[:count]


# -- point counts ----------------------------------------------------------------------


def _strictly_ascending(rows: np.ndarray) -> bool:
    """Whether each row is lex greater than the one before; this proves the
    rows distinct in one pass, without sorting them."""
    step = np.diff(rows, axis=0)
    first = np.argmax(step != 0, axis=1)  # 0 for a row equal to its predecessor
    return bool((step[np.arange(len(step)), first] > 0).all())


def suite_point_counts(qs=(2, 3, 4, 5, 7, 8, 9), max_entry: int = 6,
                       max_m: int = 3) -> SuiteResult:
    """|P(a)(F_q)| = p_m with the canonical points distinct and lex
    ascending, whenever the characteristic divides no weight."""
    res = SuiteResult("point-counts")
    t0 = time.perf_counter()
    for q in qs:
        fq = _field_for(q)
        for m in range(1, max_m + 1):
            for ws in _weight_tuples(max_entry, m + 1):
                if any(a % fq.p == 0 for a in ws):
                    continue
                sp = space(ws, fq)
                coords = sp.point_coords()
                n = coords.shape[0]
                ascending = _strictly_ascending(coords)
                expected = projective_count(q, m)
                res.record(n == expected and ascending,
                           f"P{ws}(F_{q}): got {n} points (distinct and "
                           f"lex ascending={ascending}), expected {expected}")
    res.elapsed = time.perf_counter() - t0
    return res


# -- the product family ------------------------------------------------------------------


_FAMILY_WS = {
    2: [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 5)],
    3: [(1, 1, 1, 1), (1, 1, 2, 3), (1, 2, 3, 5)],
}


def _primitive_pairs(ws: WeightSystem, max_exp: int = 3,
                     cap: int = 8) -> list[PrimitivePair]:
    npos = len(ws)
    pairs: list[PrimitivePair] = []
    seen = set()
    for size0 in (1, 2, 3):
        for size1 in (1, 2, 3):
            if size0 + size1 > npos:
                continue
            for sup0 in itertools.combinations(range(npos), size0):
                rest = [i for i in range(npos) if i not in sup0]
                for sup1 in itertools.combinations(rest, size1):
                    for e0 in itertools.product(range(1, max_exp + 1),
                                                repeat=size0):
                        d0 = sum(ws[i] * e for i, e in zip(sup0, e0))
                        for e1 in itertools.product(range(1, max_exp + 1),
                                                    repeat=size1):
                            d1 = sum(ws[i] * e for i, e in zip(sup1, e1))
                            if d0 != d1:
                                continue
                            if math.gcd(*(e0 + e1)) != 1:
                                continue
                            m0 = tuple(dict(zip(sup0, e0)).get(j, 0)
                                       for j in range(npos))
                            m1 = tuple(dict(zip(sup1, e1)).get(j, 0)
                                       for j in range(npos))
                            if (m0, m1) in seen:
                                continue
                            seen.add((m0, m1))
                            pairs.append(PrimitivePair(m0, m1))
                            if len(pairs) >= cap:
                                return pairs
    return pairs


def _mu_for(pair_mono: tuple[int, ...], sigma: int, rng) -> tuple[int, ...]:
    support = [i for i, r in enumerate(pair_mono) if r]
    chosen = support[:sigma]
    return tuple(int(rng.integers(1, 3)) if i in chosen else 0
                 for i in range(len(pair_mono)))


def generate_family_specs(ws: WeightSystem, fq: FiniteField, rng,
                          pair_cap: int = 8):
    """Deterministic-under-seed list of FamilySpecs for one space, valid by
    construction: the pairs are `_primitive_pairs`, t is a draw of distinct
    nonzero field elements, each mu lies inside its pair monomial's support,
    and with no product factors it takes the whole support."""
    q = fq.q
    out = []
    for pair in _primitive_pairs(ws, cap=pair_cap):
        for ell in sorted({0, 1, min(2, q - 1), q - 1}):
            if ell == 0:
                sigmas = [(pair.s0, pair.s1)]
            else:
                sigmas = [(pair.s0, pair.s1), (0, 0),
                          (int(rng.integers(0, pair.s0 + 1)),
                           int(rng.integers(0, pair.s1 + 1)))]
            t = tuple(int(x) for x in
                      rng.choice(np.arange(1, q), size=ell, replace=False))
            for s0, s1 in sigmas:
                mu0 = _mu_for(pair.m0, s0, rng)
                mu1 = _mu_for(pair.m1, s1, rng)
                out.append(FamilySpec(pair, t, mu0, mu1))
    return out


def worked_plane_specs() -> list[tuple[tuple[int, ...], FamilySpec, int]]:
    """The two worked P(2,3,5) family polynomials with their q=5 counts."""
    ws = (2, 3, 5)
    spec_a = FamilySpec(PrimitivePair((1, 1, 0), (0, 0, 1)),
                        (1, 2, 3, 4), (1, 1, 0), (0, 0, 1))
    spec_b = FamilySpec(PrimitivePair((3, 0, 0), (0, 2, 0)),
                        (1, 2, 3), (3, 0, 0), (0, 2, 0))
    return [(ws, spec_a, 7 * 5 - 4), (ws, spec_b, 5 * 5 + 1)]


def suite_family_counts(qs=(3, 4, 5, 7), seed: int = 0,
                        min_specs: int = 200) -> SuiteResult:
    """Closed-form family count == brute-force count over generated specs."""
    res = SuiteResult("family-counts", seed=seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    for q in qs:
        fq = _field_for(q)
        for m, systems in _FAMILY_WS.items():
            for wst in systems:
                ws = as_weights(wst)
                sp = space(ws, fq)
                for spec in generate_family_specs(ws, fq, rng):
                    poly = build_family(spec, ws, fq)
                    got = count_zeros(poly, sp)
                    want = family_zero_count(spec, ws, q)
                    res.record(got == want,
                               f"P{wst}(F_{q}) spec ell={spec.ell} "
                               f"pair={spec.pair.m0}/{spec.pair.m1} "
                               f"sigma=({spec.sigma0},{spec.sigma1}): "
                               f"count {got} != closed form {want}")
    for wst, spec, expected in worked_plane_specs():
        fq = _field_for(5)
        poly = build_family(spec, wst, fq)
        got = count_zeros(poly, space(wst, fq))
        closed = family_zero_count(spec, wst, 5)
        res.record(got == expected == closed,
                   f"worked example on P{wst}: {got} vs {expected}/{closed}")
    if res.checks < min_specs:
        res.failures.append(
            f"only {res.checks} family specs generated, need {min_specs}")
    res.elapsed = time.perf_counter() - t0
    return res


# -- torus counts -----------------------------------------------------------------------


def suite_torus(qs=(2, 3, 4, 5, 7), max_vars: int = 4, max_exp: int = 5,
                seed: int = 0) -> SuiteResult:
    """Unit-torus solution count == (q-1)^{s0+s1-1} for jointly coprime exponents."""
    res = SuiteResult("torus", seed=seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    splits = [(s0, s1) for s0 in (1, 2, 3) for s1 in (1, 2, 3)
              if s0 + s1 <= max_vars]
    for q in qs:
        fq = _field_for(q)
        if q <= 4:
            ab_pairs = [(a, b) for a in range(1, q) for b in range(1, q)]
        else:
            ab_pairs = [(1, 1)] + [
                (int(rng.integers(1, q)), int(rng.integers(1, q)))
                for _ in range(2)]
        alphas, betas = np.array(ab_pairs, dtype=np.int64).T
        for s0, s1 in splits:
            for exps in itertools.product(range(1, max_exp + 1),
                                          repeat=s0 + s1):
                if math.gcd(*exps) != 1:
                    continue
                a_exps, b_exps = exps[:s0], exps[s0:]
                want = torus_closed_form(a_exps, b_exps, q)
                got = torus_count(a_exps, b_exps, alphas, betas, fq)
                res.checks += len(ab_pairs)
                for (alpha, beta), count in zip(ab_pairs, got.tolist()):
                    if count != want:
                        res.fail(f"torus q={q} exps={exps} alpha={alpha} "
                                 f"beta={beta}: {count} != {want}")
    res.elapsed = time.perf_counter() - t0
    return res


# -- max-zeros grids ----------------------------------------------------------------------


def suite_classical_max(qs=(2, 3), max_m: int = 2,
                        budget: int = 10 ** 8) -> SuiteResult:
    """Exhaustive max-zeros equals min(p_m, d q^{m-1} + p_{m-2}) on plain weights."""
    res = SuiteResult("classical-max")
    t0 = time.perf_counter()
    for q in qs:
        fq = _field_for(q)
        for m in range(1, max_m + 1):
            ws = (1,) * (m + 1)
            for d in range(1, q + 2):
                got = max_zeros(ws, fq, d, budget=budget, want_witness=False)
                want = min(projective_count(q, m),
                           d * q ** (m - 1) + projective_count(q, m - 2))
                res.record(got.defined and got.value == want,
                           f"max zeros d={d} m={m} q={q}: "
                           f"{got.value} != {want}")
    res.elapsed = time.perf_counter() - t0
    return res


def _plane_pairs(max_weight: int):
    return [(a1, a2) for a1 in range(1, max_weight + 1)
            for a2 in range(a1 + 1, max_weight + 1)
            if math.gcd(a1, a2) == 1]


def suite_plane_max(qs=(2, 3), max_weight: int = 4,
                    budget: int = 10 ** 8) -> SuiteResult:
    """Exhaustive max-zeros equals (d/a1) q + 1 on P(1,a1,a2) in the proven range."""
    res = SuiteResult("plane-max")
    t0 = time.perf_counter()
    for q in qs:
        fq = _field_for(q)
        for a1, a2 in _plane_pairs(max_weight):
            step = a1 * a2
            for d in range(step, a1 * (q + 1) + 1, step):
                got = max_zeros((1, a1, a2), fq, d, budget=budget,
                                want_witness=False)
                want = (d // a1) * q + 1
                res.record(got.defined and got.value == want,
                           f"max zeros on P(1,{a1},{a2})(F_{q}) d={d}: "
                           f"{got.value} != {want}")
    res.elapsed = time.perf_counter() - t0
    return res


# -- line geometry -----------------------------------------------------------------------


_LINE_WS = [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 5)]


def suite_lines(qs=(2, 3, 5, 7), weight_systems=None,
                seed: int = 0) -> SuiteResult:
    """Catalog size, q+1 points per line, pairwise meeting, affine incidence,
    and zero-count preservation under line normalisation."""
    res = SuiteResult("lines", seed=seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    systems = weight_systems or _LINE_WS
    for q in qs:
        fq = _field_for(q)
        for wst in systems:
            ws = as_weights(wst)
            if not ws[1] < ws[2] or math.gcd(ws[1], ws[2]) != 1:
                continue
            sp = space(ws, fq)
            ls = LineSystem(sp)
            lines = ls.lines()
            res.record(len(lines) == 1 + q + q * q,
                       f"catalog size {len(lines)} on P{wst}(F_{q})")
            # incidence[l, x]: point x lies on line l
            incidence = np.array([ls.line_points(l) for l in lines])
            for l, size in zip(lines, incidence.sum(axis=1).tolist()):
                res.record(size == q + 1,
                           f"line {l} on P{wst}(F_{q}) has {size} points")
            apart = np.argwhere(np.triu(~(incidence @ incidence.T), 1))
            if len(apart):  # the first pair in combinations order
                i, j = apart[0]
                res.record(False, f"lines {lines[i]} and {lines[j]} on "
                                  f"P{wst}(F_{q}) do not meet")
            else:
                res.record(True)
            kinds = np.array([l.kind for l in lines])
            on1 = incidence[kinds == 1].sum(axis=0).tolist()
            on2 = incidence[kinds == 2].sum(axis=0).tolist()
            for row, n1, n2 in zip(sp.point_coords().tolist(), on1, on2):
                if row[0]:
                    res.record(n1 == 1 and n2 == q,
                               f"affine point {format_point(row)} on "
                               f"P{wst}(F_{q}) lies on {n1} vertical and "
                               f"{n2} non-vertical lines")
            d = ws[1] * ws[2]
            basis = monomial_basis(ws, d)
            for line in (lines[0], lines[1 + q // 2],
                         lines[1 + q + (q * q) // 2]):
                subst = ls.normalize_line(line)
                for _ in range(3):
                    coeffs = _random_nonzero_rows(rng, 1, len(basis), q)[0]
                    poly = WeightedPolynomial.from_coefficients(
                        ws, fq, d, basis, coeffs)
                    if poly.is_zero:
                        continue
                    moved = subst.apply(poly)
                    res.record(
                        moved.degree == poly.degree
                        and count_zeros(moved, sp) == count_zeros(poly, sp),
                        f"normalisation of {line} on P{wst}(F_{q}) "
                        f"changed degree or zero count")
    res.elapsed = time.perf_counter() - t0
    return res


# -- bound suites ------------------------------------------------------------------------


def _batch_bound_check(res, rng, fq, ws, d, count, bound, *, affine=False,
                       label=""):
    ws = as_weights(ws)
    basis = monomial_basis(ws, d)
    if not basis:
        return
    V = monomial_matrix(ws, fq, d)
    if affine:
        coords = space(ws, fq).point_coords()
        V = V[:, coords[:, 0] != 0]
    C = _random_nonzero_rows(rng, count, len(basis), fq.q)
    zeros = batch_zero_counts(C, V, fq)
    bad = np.nonzero(zeros > bound)[0]
    res.checks += len(C)
    for i in bad[:3]:
        res.failures.append(
            f"{label}: polynomial #{int(i)} on P{ws.weights}(F_{fq.q}) d={d} "
            f"has {int(zeros[i])} zeros, bound {bound}")


_BOUND_PLANES = ((1, 2), (1, 3), (2, 3), (3, 4))  # (a1, a2) of P(1, a1, a2)


def suite_bounds(seed: int = 0, per_bound: int = 10_000) -> SuiteResult:
    """Randomised never-violated checks for each upper bound, plus exact
    attainment of the lower-bound witness construction."""
    res = SuiteResult("bounds", seed=seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    counts = {}

    def bump(name, res_before):
        counts[name] = counts.get(name, 0) + (res.checks - res_before)

    # Random polynomials never exceed a bound: (q, weights, d, bound,
    # affine) per family, each family checked on about per_bound polynomials.
    families = {
        "classical": [
            (q, (1,) * (m + 1), d,
             d * q ** (m - 1) + projective_count(q, m - 2), False)
            for q in (2, 3, 4, 5) for m in (1, 2) for d in range(1, q + 2)],
        # weighted plane bound (d/a1) q + 1
        "weighted-plane": [
            (q, (1, a1, a2), d, (d // a1) * q + 1, False)
            for q in (2, 3, 4, 5) for a1, a2 in _BOUND_PLANES
            for d in range(a1 * a2, a1 * (q + 1) + 1, a1 * a2)],
        # weighted affine bound (d/a1) q, no cap on d
        "weighted-affine": [
            (q, (1, a1, a2), d, (d // a1) * q, True)
            for q in (2, 3, 4, 5) for a1, a2 in _BOUND_PLANES
            for d in (a1 * a2, 2 * a1 * a2, 3 * a1 * a2)],
        # weighted binary bound d/a1 on P(1, a)
        "weighted-binary": [
            (q, (1, a), t * a, t, False)
            for q in (2, 3, 4, 5, 7) for a in (2, 3, 4, 5)
            for t in range(1, q + 3)],
    }
    for label, configs in families.items():
        each = -(-per_bound // len(configs))
        for q, ws, d, bound, affine in configs:
            before = res.checks
            _batch_bound_check(res, rng, _field_for(q), ws, d, each, bound,
                               affine=affine, label=label)
            bump(label, before)

    # lower-bound witnesses attain min(p_m, (d/a) q^{m-1} + p_{m-2}) exactly
    wit_ws = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 5), (1, 2, 2),
              (2, 3), (3, 4), (1, 1, 1, 1), (1, 1, 2, 2)]
    wit_cfg = []
    for q in (2, 3, 4, 5):
        for wst in wit_ws:
            a, _ = min_pair_lcm(wst)
            for t in range(1, q + 2):
                wit_cfg.append((q, wst, a * t))
    each = -(-per_bound // len(wit_cfg))
    before_total = res.checks
    for q, wst, d in wit_cfg:
        fq = _field_for(q)
        ws = as_weights(wst)
        a, _ = min_pair_lcm(ws)
        pairs = [(r, s) for r in range(len(ws)) for s in range(r + 1, len(ws))
                 if math.lcm(ws[r], ws[s]) == a]
        want = max_zeros_lower_bound(ws, d, q)
        basis = monomial_basis(ws, d)
        index = {e: i for i, e in enumerate(basis)}
        V = monomial_matrix(ws, fq, d)
        n = V.shape[1]
        rows = []
        for _ in range(each):
            pair = pairs[int(rng.integers(0, len(pairs)))]
            pts = projective_line_points(fq)
            order = rng.permutation(len(pts))
            chosen = [pts[i] for i in order[:min(d // a, len(pts))]]
            wit = lower_bound_witness(ws, d, fq, pair=pair, line_points=chosen)
            rows.append(coefficient_vector(wit, index))
        zeros = batch_zero_counts(np.stack(rows), V, fq)
        bad = np.nonzero(zeros != want)[0]
        res.checks += each
        for i in bad[:3]:
            res.failures.append(
                f"lower-bound witness on P{wst}(F_{q}) d={d}: "
                f"{int(zeros[i])} zeros, expected exactly {want}")
    bump("lower-bound-witness", before_total)

    res.elapsed = time.perf_counter() - t0
    res.seed = seed
    res.failures = res.failures[:_MAX_FAILURES] + (
        [f"per-bound counts: {counts}"] if any(
            v < per_bound for v in counts.values()) else [])
    return res


# -- weight reduction invariance -------------------------------------------------------------


def _reduction_steps(max_weight: int, max_b: int):
    out = []
    for m in (1, 2):
        for red in _weight_tuples(max_weight, m + 1):
            for b in range(2, max_b + 1):
                for i in range(m + 1):
                    if math.gcd(b, red[i]) != 1:
                        continue
                    source = tuple(a if j == i else a * b
                                   for j, a in enumerate(red))
                    out.append((source, i, b))
    return out


class _ReducedSide:
    """The answers on one reduced space P(red) over one field at degree
    k = lcm(red): its max-zeros result (None where the budget refuses the
    sweep) and its code's (rank, d_min), each computed the first time a step
    asks for it."""

    def __init__(self, red: WeightSystem, fq: FiniteField, budget: int):
        self.red, self.fq, self.budget = red, fq, budget
        self.k = red.lcm

    @functools.cached_property
    def max_zeros(self):
        try:
            return max_zeros(self.red, self.fq, self.k, budget=self.budget,
                             want_witness=False)
        except BudgetExceeded:
            return None

    @functools.cached_property
    def code(self) -> tuple[int, int]:
        inst = codes_mod.build_code("wprm", self.fq, self.red.m, self.k,
                                    self.red)
        return inst.rank, codes_mod.min_distance_exhaustive(
            inst, budget=self.budget)


@_quiet_wprm_past_q()
def suite_delorme(qs=(2, 3), max_weight: int = 4, max_b: int = 3,
                  budget: int = 10 ** 6, seed: int = 0) -> SuiteResult:
    """Point bijection, equal max-zeros, and equal code parameters across
    each weight-reduction pair.

    Many steps share a reduced space, so each (field, reduced weights) pair
    computes its answers once and every source space is compared against
    them.
    """
    res = SuiteResult("delorme", seed=seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    for q in qs:
        fq = _field_for(q)
        sides: dict[WeightSystem, _ReducedSide] = {}
        for source, i, b in _reduction_steps(max_weight, max_b):
            step = delorme_reduce(source, i, b)
            red = step.reduced
            side = sides.get(red)
            if side is None:
                side = sides[red] = _ReducedSide(red, fq, budget)
            sp_src = space(source, fq)
            sp_red = space(red, fq)
            # a bijection onto the points: its sorted images are the points
            mapped = step.map_points(fq, sp_src.point_coords())
            res.record(
                np.array_equal(mapped[np.lexsort(mapped.T[::-1])],
                               sp_red.point_coords()),
                f"point map P{source} -> P{red.weights} over F_{q} "
                f"is not a bijection")
            k = red.lcm
            K = k * b
            if dim_Sd(red, k) == 0:
                continue
            ez_red = side.max_zeros
            try:
                ez_src = None if ez_red is None else max_zeros(
                    source, fq, K, budget=budget, want_witness=False)
            except BudgetExceeded:
                ez_src = None
            if ez_src is None:
                res.skipped += 1
                continue
            res.record(ez_red.value == ez_src.value,
                       f"max zeros differ across P{source} (d={K}, "
                       f"{ez_src.value}) and P{red.weights} (d={k}, "
                       f"{ez_red.value}) over F_{q}")
            inst_src = codes_mod.build_code("wprm", fq, red.m, K, source)
            d_src = codes_mod.min_distance_exhaustive(inst_src, budget=budget)
            rank_red, d_red = side.code
            res.record(
                (inst_src.rank, d_src) == (rank_red, d_red),
                f"code parameters differ across reduction: "
                f"P{source} gives (k={inst_src.rank}, d={d_src}), "
                f"P{red.weights} gives (k={rank_red}, d={d_red})")
            basis = monomial_basis(red, k)
            coeffs = _random_nonzero_rows(rng, 1, len(basis), q)[0]
            poly_red = WeightedPolynomial.from_coefficients(
                red, fq, k, basis, coeffs)
            if not poly_red.is_zero:
                poly_src = step.untransform_poly(poly_red)
                res.record(
                    count_zeros(poly_src, sp_src)
                    == count_zeros(poly_red, sp_red),
                    f"zero counts differ under the polynomial transform "
                    f"on P{source} over F_{q}")
    res.elapsed = time.perf_counter() - t0
    return res


# -- small-code distance cross-check ------------------------------------------------------------


@_quiet_wprm_past_q()
def suite_small_code_distance(qs=(2, 3), max_a2: int = 3,
                              budget: int = 10 ** 7) -> SuiteResult:
    """Exhaustive minimum distance equals the plane formula, and the witness
    agrees with both, on every admissible (1, a1, a2) instance (lcm | d and
    d/a1 <= q): `code_parameters` with method "both"."""
    res = SuiteResult("small-code-distance")
    t0 = time.perf_counter()
    for q in qs:
        fq = _field_for(q)
        for a1 in range(1, max_a2 + 1):
            for a2 in range(a1 + 1, max_a2 + 1):
                if math.gcd(a1, a2) != 1:
                    continue
                step = math.lcm(a1, a2)
                for d in range(step, a1 * q + 1, step):
                    inst = codes_mod.build_code("wprm", fq, 2, d, (1, a1, a2))
                    try:
                        codes_mod.code_parameters(inst, "both", budget=budget)
                        failure = ""
                    except (ValueError, AssertionError) as exc:
                        failure = f"WPRM_{q}({d},2;(1,{a1},{a2})): {exc}"
                    res.record(not failure, failure)
    res.elapsed = time.perf_counter() - t0
    return res


SUITES = {
    "points": suite_point_counts,
    "family-counts": suite_family_counts,
    "torus": suite_torus,
    "classical-max": suite_classical_max,
    "plane-max": suite_plane_max,
    "lines": suite_lines,
    "bounds": suite_bounds,
    "delorme": suite_delorme,
    "code-distance": suite_small_code_distance,
}
