import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import wprm.zero_sets as zs
from wprm.finite_field import GF, field_from_spec
from wprm.weighted_space import BudgetExceeded, projective_count, space
from wprm.weighted_poly import WeightedPolynomial, monomial_basis
from wprm.zero_sets import (FamilySpec, PrimitivePair,
                            build_family, check_bounds, coeffs_at,
                            count_zeros, count_zeros_affine,
                            family_zero_count, lower_bound_witness,
                            max_zeros, max_zeros_lower_bound, min_pair_lcm,
                            torus_closed_form, torus_count)


def naive_count(F, sp):
    return sum(1 for pt in sp.points() if F.evaluate(pt.coords) == 0)


def naive_max_zeros(ws, fq, d):
    """Oracle: every nonzero coefficient vector, point-by-point evaluation."""
    basis = monomial_basis(ws, d)
    sp = space(ws, fq)
    best = -1
    for coeffs in itertools.product(range(fq.q), repeat=len(basis)):
        if not any(coeffs):
            continue
        F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
        best = max(best, naive_count(F, sp))
    return best


def random_poly(ws, fq, d, rng):
    basis = monomial_basis(ws, d)
    coeffs = rng.integers(0, fq.q, len(basis))
    while not coeffs.any():
        coeffs = rng.integers(0, fq.q, len(basis))
    return WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)


# -- counting ------------------------------------------------------------------------


def test_count_matches_naive_loop():
    rng = np.random.default_rng(7)
    for ws, q, d in [((1, 2, 3), 3, 6), ((2, 3, 5), 4, 30), ((1, 1), 5, 3),
                     ((1, 1, 2), 2, 2)]:
        fq = field_from_spec(str(q))
        sp = space(ws, fq)
        for _ in range(5):
            F = random_poly(ws, fq, d, rng)
            assert count_zeros(F, sp) == naive_count(F, sp)


def test_count_rejects_zero_polynomial():
    fq = GF(3)
    sp = space((1, 1), fq)
    with pytest.raises(ValueError):
        count_zeros(WeightedPolynomial.zero((1, 1), fq, 2), sp)


def test_space_filling_classical():
    # X0^(d-q-1) (X0^q X1 - X0 X1^q) vanishes on the whole space once d > q
    for q, m, d in [(2, 2, 3), (3, 2, 4), (2, 3, 3), (3, 2, 6), (2, 2, 5)]:
        fq = GF(q)
        ws = (1,) * (m + 1)
        pad = d - q - 1
        e0 = tuple([q + pad, 1] + [0] * (m - 1))
        e1 = tuple([1 + pad, q] + [0] * (m - 1))
        F = WeightedPolynomial(ws, fq, d, {e0: 1, e1: fq.neg(1)})
        assert count_zeros(F, space(ws, fq)) == projective_count(q, m)


def test_count_examples():
    fq = GF(3)
    F = WeightedPolynomial.monomial((1, 2, 3), fq, (1, 0, 0))
    assert count_zeros(F, space((1, 2, 3), fq)) == 4  # P(2,3)(F_3) copy
    fq = GF(2)
    F = WeightedPolynomial((1, 1, 1), fq, 1,
                           {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert count_zeros(F, space((1, 1, 1), fq)) == 3


def test_cone_identity_for_hypersurfaces():
    # affine solution count over the full tuple space is (q-1)|V| + 1
    rng = np.random.default_rng(5)
    for ws, q, d in [((1, 2, 3), 3, 6), ((2, 3), 5, 6), ((1, 1, 2), 4, 4)]:
        fq = field_from_spec(str(q))
        sp = space(ws, fq)
        F = random_poly(ws, fq, d, rng)
        cone = sum(1 for t in itertools.product(range(q), repeat=len(ws))
                   if F.evaluate(t) == 0)
        assert cone == (q - 1) * count_zeros(F, sp) + 1


def test_affine_count():
    fq = GF(3)
    ws = (1, 2, 3)
    sp = space(ws, fq)
    F = WeightedPolynomial.monomial(ws, fq, (0, 0, 1))  # X2
    affine = count_zeros_affine(F, sp)
    assert affine == sum(1 for pt in sp.points()
                         if pt.coords[0] != 0 and F.evaluate(pt.coords) == 0)


# -- the product family ---------------------------------------------------------------


def test_paper_family_values():
    ws = (2, 3, 5)
    fq = GF(5)
    sp = space(ws, fq)
    spec = FamilySpec(PrimitivePair((1, 1, 0), (0, 0, 1)),
                      (1, 2, 3, 4), (1, 1, 0), (0, 0, 1))
    F = build_family(spec, ws, fq)
    assert F.degree == 30
    assert count_zeros(F, sp) == family_zero_count(spec, ws, 5) == 7 * 5 - 4
    spec2 = FamilySpec(PrimitivePair((3, 0, 0), (0, 2, 0)),
                       (1, 2, 3), (3, 0, 0), (0, 2, 0))
    F2 = build_family(spec2, ws, fq)
    assert F2.degree == 30
    assert count_zeros(F2, sp) == family_zero_count(spec2, ws, 5) == 5 * 5 + 1


def test_family_monomial_degenerate():
    # no product factors: F = mu0 mu1, a monomial touching both supports
    ws = (1, 1, 1)
    fq = GF(4, 1) if False else GF(5)
    spec = FamilySpec(PrimitivePair((1, 0, 0), (0, 1, 0)), (),
                      (1, 0, 0), (0, 1, 0))
    F = build_family(spec, ws, fq)
    assert F.terms == {(1, 1, 0): 1}
    q = 5
    assert family_zero_count(spec, ws, q) == 2 * q + 1
    assert count_zeros(F, space(ws, fq)) == 2 * q + 1


def test_family_validation():
    fq = GF(5)
    ws = (2, 3, 5)
    with pytest.raises(ValueError):  # shared variable
        PrimitivePair((1, 1, 0), (1, 0, 1)).validate(ws)
    with pytest.raises(ValueError):  # unequal degrees
        PrimitivePair((1, 0, 0), (0, 0, 1)).validate(ws)
    with pytest.raises(ValueError):  # exponents share a factor
        PrimitivePair((0, 0, 2), (2, 2, 0)).validate((2, 3, 5))
    pair = PrimitivePair((1, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):  # duplicate t
        build_family(FamilySpec(pair, (1, 1), (1, 1, 0), (0, 0, 1)), ws, fq)
    with pytest.raises(ValueError):  # t = 0
        build_family(FamilySpec(pair, (0,), (1, 1, 0), (0, 0, 1)), ws, fq)
    with pytest.raises(ValueError):  # ell = 0 forces full mu support
        build_family(FamilySpec(pair, (), (1, 0, 0), (0, 0, 1)), ws, fq)
    with pytest.raises(ValueError):  # mu outside its monomial's support
        build_family(FamilySpec(pair, (1,), (0, 0, 1), (0, 0, 1)), ws, fq)


def test_family_closed_form_grid():
    rng = np.random.default_rng(11)
    for q in (3, 4):
        fq = field_from_spec(str(q))
        ws = (1, 1, 1)
        sp = space(ws, fq)
        pair = PrimitivePair((2, 0, 0), (0, 1, 1))
        for ell in range(q):
            t = tuple(int(x) for x in
                      rng.choice(np.arange(1, q), ell, replace=False))
            if ell == 0:
                spec = FamilySpec(pair, t, (2, 0, 0), (0, 1, 1))
            else:
                spec = FamilySpec(pair, t, (0, 0, 0), (0, 1, 0))
            F = build_family(spec, ws, fq)
            assert count_zeros(F, sp) == family_zero_count(spec, ws, q)


# -- torus counts ----------------------------------------------------------------------


def test_torus_examples():
    assert torus_count((1,), (1,), 1, 1, GF(5)) == 4
    fq = GF(2, 2)
    for alpha in (1, 2, 3):
        for beta in (1, 2, 3):
            assert torus_count((3,), (2,), alpha, beta, fq) == 3
    assert torus_closed_form((3,), (2,), 4) == 3
    assert torus_closed_form((1, 2), (3,), 5) == 16


def test_torus_non_coprime_raw_count():
    # x^2 = y^2 over F_5 units: x = +-y, so 8 solutions, not (q-1) = 4
    assert torus_count((2,), (2,), 1, 1, GF(5)) == 8
    with pytest.raises(ValueError):
        torus_closed_form((2,), (2,), 5)


def test_torus_validation():
    fq = GF(5)
    with pytest.raises(ValueError):
        torus_count((1,), (1,), 0, 1, fq)
    with pytest.raises(ValueError):
        torus_count((), (1,), 1, 1, fq)
    with pytest.raises(ValueError):
        torus_count((0,), (1,), 1, 1, fq)


def test_torus_matches_brute_force():
    fq = GF(3)
    for a_exps, b_exps in [((1, 2), (1,)), ((2,), (3,)), ((1, 1), (2, 3))]:
        for alpha, beta in [(1, 1), (2, 1), (2, 2)]:
            s0, s1 = len(a_exps), len(b_exps)
            brute = 0
            for xs in itertools.product(range(1, 3), repeat=s0):
                for ys in itertools.product(range(1, 3), repeat=s1):
                    lhs = alpha
                    for x, a in zip(xs, a_exps):
                        lhs = fq.mul(lhs, fq.pow(x, a))
                    rhs = beta
                    for y, b in zip(ys, b_exps):
                        rhs = fq.mul(rhs, fq.pow(y, b))
                    brute += lhs == rhs
            assert torus_count(a_exps, b_exps, alpha, beta, fq) == brute


# -- exhaustive max-zeros ------------------------------------------------------------------


def test_max_zeros_binary_pair():
    for q in (2, 3, 4, 5):
        fq = field_from_spec(str(q))
        assert max_zeros((3, 4), fq, 7).value == 2
        assert max_zeros((3, 4), fq, 8).value == 1


def test_max_zeros_not_monotonic_in_degree():
    # regression witness: the maximum drops from degree 7 to degree 8
    fq = GF(3)
    assert max_zeros((3, 4), fq, 7).value > max_zeros((3, 4), fq, 8).value


def test_max_zeros_undefined():
    res = max_zeros((3, 4), GF(3), 5)
    assert not res.defined and res.value is None and res.witness is None


def test_max_zeros_against_naive_oracle():
    cases = [((1, 1), GF(2), 2), ((1, 1), GF(3), 2), ((1, 1, 2), GF(2), 2),
             ((3, 4), GF(3), 12), ((1, 2), GF(3), 2)]
    for ws, fq, d in cases:
        assert max_zeros(ws, fq, d).value == naive_max_zeros(ws, fq, d)


def test_max_zeros_witness_and_candidates():
    fq = GF(2)
    res = max_zeros((1, 1, 2), fq, 2)
    assert res.value == 5
    assert res.candidates == 2 ** 4 - 1
    assert count_zeros(res.witness, space((1, 1, 2), fq)) == 5


def test_max_zeros_plane_formula_extension_field():
    # the plane value (d/a1) q + 1 holds over any field; GF(4) runs the
    # generic (non-prime) sweep kernel
    fq = GF(2, 2)
    assert max_zeros((1, 1, 2), fq, 2).value == 2 * 4 + 1
    assert max_zeros((1, 2, 3), fq, 6).value == 3 * 4 + 1


def test_max_zeros_budget():
    with pytest.raises(BudgetExceeded):
        max_zeros((1, 1, 1), GF(3), 3, budget=10)


def test_parallel_sweep_matches_serial(monkeypatch):
    ws, d = (1, 1, 1), 3
    fq = GF(3)
    serial = max_zeros(ws, fq, d, jobs=1)
    monkeypatch.setattr(zs, "_PARALLEL_MIN", 4)
    parallel = max_zeros(ws, fq, d, jobs=2)
    assert parallel.value == serial.value
    assert parallel.witness == serial.witness


def test_jobs_resolution(monkeypatch):
    monkeypatch.setenv("WPRM_JOBS", "3")
    assert zs._resolve_jobs(None) == 3
    assert zs._resolve_jobs(2) == 2
    monkeypatch.delenv("WPRM_JOBS")
    assert zs._resolve_jobs(None) >= 1


def test_coeffs_at_round_trip():
    q, k = 3, 4
    seen = set()
    for lead in range(k):
        for tail in range(q ** (k - 1 - lead)):
            c = tuple(coeffs_at(q, k, lead, tail))
            assert c[lead] == 1 and not any(c[:lead])
            seen.add(c)
    assert len(seen) == (q ** k - 1) // (q - 1)


# -- lower bound and witnesses -----------------------------------------------------------------


def test_min_pair_lcm():
    assert min_pair_lcm((2, 3, 5)) == (6, (0, 1))
    assert min_pair_lcm((1, 4, 4)) == (4, (0, 1))


def test_lower_bound_values():
    assert max_zeros_lower_bound((2, 3, 5), 30, 5) == 5 * 5 + 1
    assert max_zeros_lower_bound((2, 3, 5), 7, 5) is None
    assert max_zeros_lower_bound((1, 1), 2, 2) == 2
    # saturates at the space size
    assert max_zeros_lower_bound((2, 3, 5), 30, 4) == projective_count(4, 2)


def test_witness_attains_bound():
    for ws, q, mult in [((2, 3, 5), 5, 5), ((1, 1, 2), 3, 2), ((2, 3), 5, 4),
                        ((1, 1, 1), 2, 3), ((2, 3, 5), 4, 5)]:
        fq = field_from_spec(str(q))
        a, _ = min_pair_lcm(ws)
        d = a * mult
        F = lower_bound_witness(ws, d, fq)
        assert F.degree == d
        assert count_zeros(F, space(ws, fq)) == \
            max_zeros_lower_bound(ws, d, q)


def test_space_filling_weighted_example():
    # degree-30 product on P(2,3,5) over F_4 covers the whole space
    fq = GF(2, 2)
    F = lower_bound_witness((2, 3, 5), 30, fq)
    assert count_zeros(F, space((2, 3, 5), fq)) == 21


def test_lower_bound_consistent_with_search():
    for ws, q, d in [((1, 1, 2), 2, 2), ((1, 2, 3), 3, 6), ((1, 1), 3, 2)]:
        fq = field_from_spec(str(q))
        lb = max_zeros_lower_bound(ws, d, q)
        assert max_zeros(ws, fq, d).value >= lb


# -- bound reports ----------------------------------------------------------------------


def test_classical_bound_met_with_equality():
    # product of d distinct linear forms meets d q^{m-1} + p_{m-2} exactly
    q, m, d = 3, 2, 3
    fq = GF(q)
    ws = (1,) * (m + 1)
    F = lower_bound_witness(ws, d, fq)
    sp = space(ws, fq)
    reports = {r.name: r for r in check_bounds(F, sp, oracle_budget=10 ** 6)}
    r = reports["serre"]
    assert r.value == r.bound == d * q + 1
    assert r.satisfied and r.sharp


def test_vertical_line_product_hits_plane_bound():
    q = 3
    fq = GF(q)
    ws = (1, 2, 3)
    a1, a2 = 2, 3
    d = a1 * a2
    t = d // a1
    F = WeightedPolynomial(ws, fq, 0, {(0, 0, 0): 1})
    for alpha in range(t):
        F = F * WeightedPolynomial(ws, fq, a1, {(a1, 0, 0): alpha, (0, 1, 0): 1})
    sp = space(ws, fq)
    assert count_zeros(F, sp) == t * q + 1
    reports = {r.name: r for r in check_bounds(F, sp)}
    assert reports["weighted_plane"].satisfied
    assert reports["weighted_plane"].value == reports["weighted_plane"].bound


def test_binary_bound_report():
    fq = GF(5)
    ws = (1, 3)
    F = lower_bound_witness(ws, 6, fq)
    sp = space(ws, fq)
    reports = {r.name: r for r in check_bounds(F, sp)}
    assert reports["weighted_dalembert"].bound == 2
    assert reports["weighted_dalembert"].satisfied


def test_bounds_only_under_hypotheses():
    fq = GF(3)
    ws = (1, 2, 3)
    F = WeightedPolynomial.monomial(ws, fq, (1, 1, 0))  # degree 3, 6 ∤ 3
    names = {r.name for r in check_bounds(F, space(ws, fq))}
    assert "weighted_plane" not in names and "serre" not in names


def test_ore_affine_report():
    fq = GF(3)
    ws = (1, 2, 3)
    F = lower_bound_witness(ws, 6, fq)
    sp = space(ws, fq)
    reports = {r.name: r for r in check_bounds(F, sp)}
    assert reports["weighted_ore_affine"].value == count_zeros_affine(F, sp)
    assert reports["weighted_ore_affine"].bound == 3 * 3
    assert reports["weighted_ore_affine"].satisfied


def test_ore_affine_sharpness_judged_on_the_affine_chart():
    # Three vertical lines X1 = t X0^2 on P(1,2,3)/F5 have 3 * 5 affine
    # zeros, exactly the affine bound (d/a1) q; the projective maximum is
    # another number and must not decide the affine report.
    fq = GF(5)
    ws = (1, 2, 3)
    F = WeightedPolynomial(ws, fq, 0, {(0, 0, 0): 1})
    for t in range(3):
        F = F * WeightedPolynomial(ws, fq, 2, {(2, 0, 0): fq.neg(t),
                                               (0, 1, 0): 1})
    sp = space(ws, fq)
    reports = {r.name: r for r in check_bounds(F, sp, oracle_budget=10 ** 6)}
    r = reports["weighted_ore_affine"]
    assert r.value == r.bound == 15
    assert r.sharp is True


def test_check_bounds_sweeps_each_maximum_once(monkeypatch):
    # On P^2 three bounds apply (serre, weighted_plane, affine): one
    # projective sweep serves the first two, one affine sweep the third.
    calls = []
    sweep = zs._max_zeros_sweep

    def counting(V, *args, **kwargs):
        calls.append(V.shape)
        return sweep(V, *args, **kwargs)

    monkeypatch.setattr(zs, "_max_zeros_sweep", counting)
    fq = GF(3)
    ws = (1, 1, 1)
    sp = space(ws, fq)
    reports = check_bounds(lower_bound_witness(ws, 2, fq), sp,
                           oracle_budget=10 ** 6)
    assert [r.name for r in reports] == ["serre", "weighted_plane",
                                         "weighted_ore_affine"]
    assert sorted(n for _, n in calls) == [9, 13]


def test_witness_check_survives_python_O():
    # `python -O` strips asserts; the witness check must still raise.
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent("""
        import wprm.zero_sets as zs
        from wprm.finite_field import GF
        zs.count_zeros = lambda poly, sp: -1
        try:
            zs.max_zeros((1, 1, 1), GF(2), 1)
        except AssertionError:
            raise SystemExit(0)
        raise SystemExit(1)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=120)
    assert proc.returncode == 0
