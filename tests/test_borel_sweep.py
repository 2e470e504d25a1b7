"""The normal form on top of the torus: `_killed_digits` against graded
translations (`plane_lines.GradedSubstitution`), and the sweep that skips the
high supports holding a killed digit against the torus-only sweep
(`reference.torus_sweep_plan`) and the plain sweep that visits every tail."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wprm.zero_sets as zs
from wprm.codes import build_code
from wprm.finite_field import GF
from wprm.plane_lines import GradedSubstitution
from wprm.weighted_poly import WeightedPolynomial, monomial_basis
from reference import torus_sweep_plan

FIELDS = [GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]
# (2, 3, 5) has rows pi = alpha - e_i + M with M no monomial, which the kill
# rule must refuse
WEIGHTS = [(1, 1), (1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 2),
           (1, 1, 1, 1), (2, 3, 5)]
MAX_CLASSES = 2 * 10 ** 5  # q^k for the plain sweep


class Case:
    """A sweep's rows: V, the exponents of their monomials, and the weights
    and degree those monomials have."""

    def __init__(self, name, field, ws, d, V, exponents):
        self.name, self.field, self.ws, self.d = name, field, ws, d
        self.V = np.asarray(V)
        self.exponents = tuple(tuple(int(x) for x in e) for e in exponents)

    def __repr__(self):
        return f"{self.name}(q={self.field.q}, ws={self.ws}, d={self.d})"


@functools.cache
def space_cases() -> tuple:
    out = []
    for fq in FIELDS:
        for ws in WEIGHTS:
            for d in range(1, 11):
                basis = monomial_basis(ws, d)
                if basis and fq.q ** len(basis) <= MAX_CLASSES:
                    out.append(Case("space", fq, ws, d,
                                    zs.monomial_matrix(ws, fq, d), basis))
    return tuple(out)


def _code_case(name, inst):
    rows = inst.rows
    return Case(name, inst.field, inst.ws.weights, inst.d,
                inst.matrix[rows], [inst.basis[i] for i in rows])


@functools.cache
def rm_cases() -> tuple:
    # the rows of RM codes follow the lex order of their X_1..X_m exponents
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fq in FIELDS:
            for m in (1, 2):
                for d in range(1, m * (fq.q - 1) + 1):
                    inst = build_code("rm", fq, m, d)
                    if fq.q ** inst.rank <= MAX_CLASSES:
                        out.append(_code_case("rm", inst))
    return tuple(out)


@functools.cache
def deficient_cases() -> tuple:
    # the independent rows of WPRM codes whose matrix has rank below k
    out = []
    for fq in FIELDS:
        for ws in WEIGHTS:
            lcm = int(np.lcm.reduce(ws))
            for d in range(lcm, 13, lcm):
                inst = build_code("wprm", fq, len(ws) - 1, d, ws)
                if inst.rank < len(inst.basis) \
                        and fq.q ** inst.rank <= MAX_CLASSES:
                    out.append(_code_case("deficient", inst))
    return tuple(out)


def test_the_case_families_hold_killed_digits():
    for family in (space_cases, rm_cases, deficient_cases):
        cases = family()
        assert len(cases) >= 10
        killed = [c for c in cases if any(zs._killed_digits(
            c.exponents, c.field.p, 0))]
        assert len(killed) >= 5, family.__name__


def cases():
    return st.sampled_from(space_cases()) | st.sampled_from(rm_cases()) \
        | st.sampled_from(deficient_cases())


def low_table(V, fq):
    k, n = V.shape
    T = np.zeros((n, 1), dtype=np.uint8)
    for w in range(1, zs._low_width(fq.q, k, n) + 1):
        T = zs._extend_table(T, V[k - w], fq)
    return T


def check_against_torus_and_plain(case, stop_at, jobs, cells):
    fq, V = case.field, case.V
    k, n = V.shape
    exps = case.exponents
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zs, "_TABLE_CELLS", cells)
        if jobs > 1:
            mp.setattr(zs, "_PARALLEL_MIN", 4)
        borel = zs._max_zeros_sweep(V, fq, exponents=exps, stop_at=stop_at,
                                    jobs=jobs)
        plain = zs._max_zeros_sweep(V, fq, stop_at=stop_at, jobs=jobs)
        L = zs._low_width(fq.q, k, n)
        plan = zs._sweep_plan(k, L, fq, exps)
        floor = zs._visited_floor(k, L, fq.q, exps)
        T = low_table(V, fq)
        mp.setattr(zs, "_sweep_plan", torus_sweep_plan)
        torus = zs._max_zeros_sweep(V, fq, exponents=exps, stop_at=stop_at,
                                    jobs=jobs)
        old = torus_sweep_plan(k, L, fq, exps)
    assert borel[:3] == torus[:3] == plain[:3], case
    assert floor <= borel[3] == plan.visited <= torus[3] == old.visited \
        <= plain[3]
    # every lead keeps its maximum
    for lead in range(k):
        got, want = (zs._scan_lead_range(
            fq, V, T, lead, zs._canonical_highs(p.leads[lead], fq), n + 1)[0]
            for p in (plan, old))
        assert got == want, (case, lead)


@settings(max_examples=150, deadline=None)
@given(cases(), st.data())
def test_sweep_matches_torus_and_plain_sweeps(case, data):
    n = case.V.shape[1]
    cells = data.draw(st.sampled_from([1, case.field.q * 64,
                                       case.field.q ** 2 * 64,
                                       zs._TABLE_CELLS]))
    check_against_torus_and_plain(case, data.draw(st.integers(0, n + 1)), 1,
                                  cells)


@settings(max_examples=25, deadline=None)
@given(cases(), st.data())
def test_parallel_sweep_matches_torus_and_plain_sweeps(case, data):
    n = case.V.shape[1]
    check_against_torus_and_plain(case, data.draw(st.integers(0, n + 1)), 2,
                                  case.field.q * 64)


def killed_pairs(case):
    """(lead, pos, i, M) for every killed digit pos of every lead: pos is
    alpha - e_i + M, alpha the lead's exponents."""
    out = []
    exps = case.exponents
    for lead, mask in enumerate(zs._killed_digits(exps, case.field.p, 0)):
        for pos in (lead + 1 + j for j in range(mask.bit_length())
                    if mask >> j & 1):
            alpha, pi = exps[lead], exps[pos]
            i = max(j for j, (a, b) in enumerate(zip(alpha, pi)) if a != b)
            M = tuple(b - a + (j == i)
                      for j, (a, b) in enumerate(zip(alpha, pi)))
            out.append((lead, pos, i, M))
    return out


def test_every_kill_is_a_graded_translation():
    # M is a monomial of weight a_i in X_0..X_(i-1), and p does not divide
    # the exponent alpha_i that the translation reduces
    kills = 0
    for case in space_cases() + rm_cases() + deficient_cases():
        for lead, pos, i, M in killed_pairs(case):
            assert min(M) >= 0 and not any(M[i:]), (case, lead, pos)
            assert sum(a * r for a, r in zip(case.ws, M)) == case.ws[i]
            assert case.exponents[lead][i] % case.field.p
            kills += 1
    assert kills > 500


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_a_translation_moves_only_the_killed_digit_and_later_rows(case, data):
    fq, exps = case.field, case.exponents
    pairs = killed_pairs(case)
    if not pairs:
        return
    lead, pos, i, M = data.draw(st.sampled_from(pairs))
    alpha = exps[lead]
    elem = st.integers(0, fq.q - 1)
    b = data.draw(st.integers(1, fq.q - 1))
    coeffs = [0] * lead + [1] + data.draw(
        st.lists(elem, min_size=len(exps) - lead - 1,
                 max_size=len(exps) - lead - 1))
    poly = WeightedPolynomial(case.ws, fq, case.d,
                              {e: c for e, c in zip(exps, coeffs) if c})
    delta = WeightedPolynomial.monomial(case.ws, fq, M, b)
    moved = GradedSubstitution(i, delta).apply(poly)
    index = {e: j for j, e in enumerate(exps)}
    assert set(moved.terms) <= set(index)  # it stays in the sweep's rows
    after = [0] * len(exps)
    for e, c in moved.terms.items():
        after[index[e]] = c
    assert after[:pos] == coeffs[:pos]  # nothing before pos moves
    assert after[pos] == fq.add(coeffs[pos],
                                fq.mul(alpha[i] % fq.p, b))
