import math
from fractions import Fraction

import numpy as np
import pytest

from wprm.finite_field import GF, field_from_spec
from wprm.weighted_space import space
from wprm.weighted_poly import (AffinePolynomial, WeightedPolynomial,
                                dim_Sd, monomial_basis)
from wprm.zero_sets import count_zeros, max_zeros
from wprm.codes import (CodeParameters, build_code,
                        code_parameters, comparison_table, encode,
                        evaluation_column, export_generator_matrix,
                        lambda_display, lambda_threshold_checks,
                        min_distance_exhaustive, min_distance_formula,
                        min_distance_witness, truncate3)


def naive_min_distance(inst):
    """Oracle: all q^k coefficient combinations of the generator rows."""
    import itertools
    q, k = inst.q, inst.matrix.shape[0]
    fq = inst.field
    best = None
    for coeffs in itertools.product(range(q), repeat=k):
        if not any(coeffs):
            continue
        cw = np.zeros(inst.n, dtype=np.int64)
        for c, row in zip(coeffs, inst.matrix):
            cw = fq.add_arr(cw, fq.mul_arr(np.int64(c), row))
        w = int(np.count_nonzero(cw))
        if w and (best is None or w < best):
            best = w
    return best


def test_build_validation():
    fq = GF(3)
    with pytest.raises(ValueError):
        build_code("wprm", fq, 2, 2, None)
    with pytest.raises(ValueError):
        build_code("wprm", fq, 2, 3, (1, 1, 2))   # lcm does not divide d
    with pytest.raises(ValueError):
        build_code("rm", fq, 2, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        build_code("wprm", fq, 3, 2, (1, 1, 2))   # m mismatch
    with pytest.raises(ValueError):
        build_code("turbo", fq, 2, 2)


def test_shapes_and_ranks():
    fq = GF(3)
    rm = build_code("rm", fq, 2, 2)
    assert rm.n == 9 and rm.matrix.shape == (6, 9) and rm.rank == 6
    prm = build_code("prm", fq, 2, 2)
    assert prm.n == 13 and prm.matrix.shape == (6, 13) and prm.rank == 6
    wprm = build_code("wprm", fq, 2, 2, (1, 1, 2))
    assert wprm.n == 13 and wprm.matrix.shape == (4, 13) and wprm.rank == 4


def test_prm_points_use_leading_one_convention():
    prm = build_code("prm", GF(5), 2, 2)
    for row in prm.points:
        first = next(c for c in row if c)
        assert first == 1


def test_injectivity_in_range():
    # rank equals the graded dimension whenever d <= q
    for q in (2, 3, 4):
        fq = field_from_spec(str(q))
        for ws in [(1, 1, 2), (1, 2, 3)]:
            L = math.lcm(*ws)
            for d in range(L, q + 1, L):
                inst = build_code("wprm", fq, 2, d, ws)
                assert inst.rank == dim_Sd(ws, d)


def test_encode_normalisation_examples():
    fq = GF(3)
    ws = (1, 1, 2)
    inst = build_code("wprm", fq, 2, 2, ws)
    sp = space(ws, fq)
    # F = X_i^(d/a_i) encodes to 1 at every point of the W_i stratum
    for i, exps in enumerate([(2, 0, 0), (0, 2, 0), (0, 0, 1)]):
        F = WeightedPolynomial.monomial(ws, fq, exps)
        cw = encode(inst, F)
        for pt, val in zip(sp.points(), cw):
            if pt.chart_index == i:
                assert val == 1
        assert all(evaluation_column(F, pt, ws, fq) ==
                   int(v) for pt, v in zip(sp.points(), cw))


def test_column_is_representative_independent():
    fq = GF(5)
    ws = (1, 2, 2)
    sp = space(ws, fq)
    d = 4
    basis = monomial_basis(ws, d)
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, 5, len(basis))
    F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
    for pt in sp.points():
        i = pt.chart_index
        vals = set()
        for rep in sp.representatives(pt.coords):
            denom = fq.pow(rep[i], d // ws[i])
            vals.add(fq.div(F.evaluate(rep), denom))
        assert len(vals) == 1


def test_weight_is_n_minus_zero_count():
    fq = GF(3)
    ws = (1, 1, 2)
    inst = build_code("wprm", fq, 2, 2, ws)
    sp = space(ws, fq)
    basis = monomial_basis(ws, 2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        coeffs = rng.integers(0, 3, len(basis))
        if not coeffs.any():
            continue
        F = WeightedPolynomial.from_coefficients(ws, fq, 2, basis, coeffs)
        cw = encode(inst, F)
        assert int(np.count_nonzero(cw)) == inst.n - count_zeros(F, sp)


def test_encode_errors():
    fq = GF(3)
    inst = build_code("wprm", fq, 2, 2, (1, 1, 2))
    with pytest.raises(TypeError):
        encode(inst, AffinePolynomial(fq, 2, {(0, 0): 1}))
    with pytest.raises(ValueError):
        encode(inst, WeightedPolynomial.monomial((1, 1, 2), fq, (4, 0, 0)))
    rm = build_code("rm", fq, 2, 1)
    with pytest.raises(TypeError):
        encode(rm, WeightedPolynomial.monomial((1, 1, 1), fq, (1, 0, 0)))
    with pytest.raises(ValueError):
        encode(rm, AffinePolynomial(fq, 2, {(2, 0): 1}))


def test_small_weighted_code():
    inst = build_code("wprm", GF(2), 2, 2, (1, 1, 2))
    params = code_parameters(inst, "both")
    assert params.triple() == (7, 4, 2)
    assert params.d_min_source == "exhaustive"
    assert naive_min_distance(inst) == 2


def test_small_weighted_code_q3():
    inst = build_code("wprm", GF(3), 2, 2, (1, 1, 2))
    assert min_distance_formula(inst)[0] == (3 - 2 + 1) * 3
    assert min_distance_exhaustive(inst) == 6
    assert naive_min_distance(inst) == 6


def test_extension_field_code_agrees_with_formula():
    # exercises the generic (non-prime) sweep kernel end to end
    fq = GF(2, 2)
    inst = build_code("wprm", fq, 2, 2, (1, 1, 2))
    params = code_parameters(inst, "both")
    assert params.triple() == (21, 4, 12)
    prm = code_parameters(build_code("prm", fq, 2, 2), "both")
    assert prm.triple() == (21, 6, 12)


def test_min_distance_is_n_minus_max_zeros():
    fq = GF(3)
    ws = (1, 2, 3)
    inst = build_code("wprm", fq, 2, 6, ws)
    d_min = min_distance_exhaustive(inst)
    assert d_min == inst.n - max_zeros(ws, fq, 6).value


def test_repetition_code():
    inst = build_code("rm", GF(3), 2, 0)
    assert inst.matrix.shape == (1, 9)
    assert min_distance_exhaustive(inst) == 9


def test_formula_reasons():
    fq = GF(3)
    val, reason = min_distance_formula(build_code("rm", fq, 2, 5))
    assert val is None and "d < q" in reason
    inst = build_code("wprm", fq, 3, 2, (1, 1, 1, 2))
    val, reason = min_distance_formula(inst)
    assert val is None and "plane" in reason


def test_witness_certificates_match_formula():
    for kind, q, d, ws in [("rm", 5, 3, None), ("prm", 5, 4, None),
                           ("wprm", 5, 4, (1, 2, 2)),
                           ("wprm", 19, 16, (1, 2, 8))]:
        fq = field_from_spec(str(q))
        inst = build_code(kind, fq, 2, d, ws)
        formula, _ = min_distance_formula(inst)
        cw, weight, poly = min_distance_witness(inst)
        assert weight == formula
        assert int(np.count_nonzero(cw)) == weight


def test_f19_reference_parameters():
    fq = GF(19)
    entries = comparison_table(fq, 2, 16)
    triples = [e.params.triple() for e in entries]
    assert triples == [(361, 153, 57), (381, 153, 76), (381, 45, 228),
                       (381, 25, 228), (381, 15, 228), (381, 15, 304),
                       (381, 3, 361)]
    displays = [lambda_display(e.params.lam) for e in entries]
    assert displays == ["0.581...", "0.601...", "0.716...", "0.664...",
                        "0.637...", "0.837...", "0.955..."]
    assert all(e.params.witness_weight == e.params.d_min for e in entries)
    assert all(e.params.d_min_source == "formula" for e in entries)


def test_lambda_identity_and_formatting():
    p = CodeParameters(381, 45, 228, "formula", 228)
    assert p.lam == p.rate + p.rel_distance == Fraction(273, 381)
    assert truncate3(Fraction(243, 381)) == "0.637"   # truncation, not rounding
    assert truncate3(Fraction(4, 5)) == "0.800"
    assert lambda_display(Fraction(4, 5)) == "0.800"
    assert lambda_display(Fraction(243, 381)) == "0.637..."


def test_threshold_checks_reference():
    entries = comparison_table(GF(19), 2, 16)
    checks = {c.label: c for c in lambda_threshold_checks(entries)}
    c = checks["WPRM_19(16,2;1,2,2)"]
    assert (c.a, c.beta, c.k) == (2, 1, 8)
    assert c.threshold == Fraction(3 * 8 + 3, 2)
    c = checks["WPRM_19(16,2;1,2,4)"]
    assert c.threshold == Fraction(7 * 4 + 4, 2)
    assert all(c.holds and c.inequality_ok for c in checks.values())


def test_equal_codes_equal_lambda():
    fq = GF(5)
    a = code_parameters(build_code("prm", fq, 2, 2))
    b = code_parameters(build_code("prm", fq, 2, 2))
    assert a.lam == b.lam


def test_delorme_invariant_parameters():
    # (1,2,2) in degree 2k matches (1,1,1) in degree k
    fq = GF(3)
    heavy = code_parameters(build_code("wprm", fq, 2, 4, (1, 2, 2)), "both")
    light = code_parameters(build_code("prm", fq, 2, 2), "both")
    assert (heavy.k, heavy.d_min) == (light.k, light.d_min)


def test_auto_falls_back_to_witness():
    # plane formula inapplicable and the sweep over budget: upper bound only
    fq = GF(3)
    inst = build_code("wprm", fq, 3, 2, (1, 1, 1, 2))
    params = code_parameters(inst, "auto", budget=10)
    assert params.d_min_source == "witness-upper-bound"
    assert not params.exact
    assert params.d_min == params.witness_weight
    exact = code_parameters(inst, "exhaustive")
    assert exact.d_min <= params.d_min


def test_auto_falls_back_only_on_budget(monkeypatch):
    def broken(inst, **kwargs):
        raise ValueError("sweep failed")

    monkeypatch.setattr("wprm.codes.min_distance_exhaustive", broken)
    inst = build_code("wprm", GF(3), 3, 2, (1, 1, 1, 2))
    with pytest.raises(ValueError, match="sweep failed"):
        code_parameters(inst, "auto")


def test_export_matrix_format():
    inst = build_code("wprm", GF(2), 2, 2, (1, 1, 2))
    text = export_generator_matrix(inst)
    lines = text.strip().split("\n")
    assert lines[0] == "2 2 2 1,1,2 7 4"
    assert len(lines) == 1 + 4
    assert all(len(row.split()) == 7 for row in lines[1:])
