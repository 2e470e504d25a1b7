import math
from fractions import Fraction

import numpy as np
import pytest

import wprm.codes as codes
from wprm.finite_field import GF, field_from_spec
from wprm.weighted_space import BudgetExceeded, space
from wprm.weighted_poly import (WeightedPolynomial, dim_Sd, monomial_basis,
                                parse_polynomial)
from wprm.zero_sets import count_zeros, max_zeros
from wprm.codes import (CodeParameters, build_code,
                        code_parameters, comparison_table, encode,
                        evaluation_column, export_generator_matrix,
                        lambda_display, lambda_threshold_checks,
                        min_distance_exhaustive, min_distance_formula,
                        min_distance_witness, truncate3)
from reference import evaluate


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
        coords = sp.point_coords()
        chart = (coords != 0).argmax(axis=1)
        assert (cw[chart == i] == 1).all()
        assert [evaluation_column(F, row) for row in coords] == cw.tolist()


def test_column_is_representative_independent():
    fq = GF(5)
    ws = (1, 2, 2)
    sp = space(ws, fq)
    d = 4
    basis = monomial_basis(ws, d)
    rng = np.random.default_rng(2)
    coeffs = rng.integers(0, 5, len(basis))
    F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
    for row in sp.point_coords().tolist():
        i = next(j for j, c in enumerate(row) if c)
        vals = set()
        for rep in sp.representatives(row):
            denom = fq.pow(rep[i], d // ws[i])
            vals.add(fq.div(evaluate(F, rep), denom))
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
        encode(inst, {(0, 0, 1): 1})
    with pytest.raises(ValueError):
        encode(inst, WeightedPolynomial.monomial((1, 1, 2), fq, (4, 0, 0)))
    # RM encodes a polynomial of its degree on P(1, 1, 1), the affine
    # polynomial homogenised in X0: Y1 is X1, 1 is X0.
    rm = build_code("rm", fq, 2, 1)
    with pytest.raises(TypeError):
        encode(rm, {(1, 0): 1})
    with pytest.raises(ValueError):
        encode(rm, WeightedPolynomial.monomial((1, 1, 1), fq, (0, 2, 0)))
    with pytest.raises(ValueError):
        encode(rm, WeightedPolynomial.monomial((1, 1, 2), fq, (1, 0, 0)))
    assert encode(rm, WeightedPolynomial.monomial(
        (1, 1, 1), fq, (0, 1, 0))).tolist() == rm.points[:, 1].tolist()


def test_encode_refuses_a_polynomial_from_another_field():
    with pytest.warns(UserWarning, match="need not be injective"):
        inst = build_code("wprm", GF(5), 2, 6, (1, 2, 3))
    F = parse_polynomial("6*X0^6 + 1*X2^2", (1, 2, 3), GF(7))
    with pytest.raises(ValueError, match="GF\\(7\\)"):
        encode(inst, F)
    rm = build_code("rm", GF(7), 2, 2)
    with pytest.raises(ValueError, match="GF\\(5\\)"):
        encode(rm, WeightedPolynomial((1, 1, 1), GF(5), 2, {(1, 1, 0): 4}))


def test_evaluation_column_refuses_a_row_that_is_no_point():
    # The row is refused as the polynomial's own space refuses rows.
    ws, fq = (1, 2, 3), GF(7)
    F = parse_polynomial("1*X0^6 + 1*X2^2", ws, fq)
    assert evaluation_column(F, (1, 0, 2)) == 5  # 1 + 2^2 at (1:0:2)
    assert evaluation_column(F, np.array([0, 0, 3])) == 1  # 3^2 / 3^2
    with pytest.raises(ValueError, match="zero tuple"):
        evaluation_column(F, (0, 0, 0))
    for row in [(1, 0, 7), (1, -1, 0), (1, 0)]:
        with pytest.raises(ValueError, match="elements of GF\\(7\\)"):
            evaluation_column(F, row)


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
    # (q - d + 1) q^(m-1) would read q^2 + q at d = 0 for PRM and the
    # weighted plane; the constants have d_min = n, which "auto" sweeps.
    for kind, weights in [("prm", None), ("wprm", (1, 2, 2))]:
        inst = build_code(kind, GF(5), 2, 0, weights)
        val, reason = min_distance_formula(inst)
        assert val is None and "d >= 1" in reason
        params = code_parameters(inst)
        assert params.triple() == (31, 1, 31)
        assert (params.d_min_source, params.witness_weight) == ("exhaustive",
                                                                31)


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


# WPRM_5(4,2;1,2,2) has a plane formula, WPRM_3(2,3;1,1,1,2) has none; a
# budget of 100 is below both sweeps (3906 and 1093 visited tails).
ROUTE_CODES = {"plane": ("wprm", 5, 2, 4, (1, 2, 2)),
               "solid": ("wprm", 3, 3, 2, (1, 1, 1, 2))}
FITS = 10 ** 6


@pytest.mark.parametrize("code,method,budget,want", [
    ("plane", "auto", FITS, (20, "formula")),
    ("plane", "auto", 100, (20, "formula")),
    ("plane", "formula", FITS, (20, "formula")),
    ("plane", "formula", 100, (20, "formula")),
    ("plane", "exhaustive", FITS, (20, "exhaustive")),
    ("plane", "exhaustive", 100, BudgetExceeded),
    ("plane", "both", FITS, (20, "exhaustive")),
    ("plane", "both", 100, BudgetExceeded),
    ("solid", "auto", FITS, (18, "exhaustive")),
    ("solid", "auto", 100, (18, "witness-upper-bound")),
    ("solid", "formula", FITS, ValueError),
    ("solid", "formula", 100, ValueError),
    ("solid", "exhaustive", FITS, (18, "exhaustive")),
    ("solid", "exhaustive", 100, BudgetExceeded),
    ("solid", "both", FITS, ValueError),
    ("solid", "both", 100, ValueError),
])
def test_each_method_takes_one_route(monkeypatch, code, method, budget,
                                     want):
    calls = []
    sweep = codes.min_distance_exhaustive

    def counting(inst, **kwargs):
        calls.append(kwargs["budget"])
        return sweep(inst, **kwargs)

    monkeypatch.setattr(codes, "min_distance_exhaustive", counting)
    kind, q, m, d, weights = ROUTE_CODES[code]
    inst = build_code(kind, GF(q), m, d, weights)
    if isinstance(want, type):
        with pytest.raises(want):
            code_parameters(inst, method, budget=budget)
    else:
        params = code_parameters(inst, method, budget=budget)
        assert (params.d_min, params.d_min_source) == want
    assert calls in ([], [budget])


def test_code_parameters_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        code_parameters(build_code("prm", GF(3), 2, 1), "fastest")


def test_code_parameters_row_reduces_once(monkeypatch):
    # One elimination per instance picks the independent rows: k is their
    # count and the sweep runs on them, injective or not; repeat calls
    # reuse them.
    calls = []
    row_reduce = codes.row_reduce

    def counting(*args, **kwargs):
        calls.append("row_reduce")
        return row_reduce(*args, **kwargs)

    monkeypatch.setattr(codes, "row_reduce", counting)

    injective = build_code("wprm", GF(3), 2, 2, (1, 1, 2))
    for _ in range(2):
        params = code_parameters(injective, "both")
        assert params.k == injective.rank == len(injective.basis)
        assert calls == ["row_reduce"]

    calls.clear()
    with pytest.warns(UserWarning, match="need not be injective"):
        deficient = build_code("rm", GF(2), 2, 3)
    for _ in range(2):
        params = code_parameters(deficient, "exhaustive")
        assert params.k == deficient.rank < len(deficient.basis)
        assert calls == ["row_reduce"]

    rows = deficient.rows
    assert len(rows) == deficient.rank
    assert calls == ["row_reduce"]
    with pytest.raises(ValueError):
        rows[0] = 0  # the rows are shared, so they are read-only


def test_export_matrix_format():
    inst = build_code("wprm", GF(2), 2, 2, (1, 1, 2))
    text = export_generator_matrix(inst)
    lines = text.strip().split("\n")
    assert lines[0] == "2 2 2 1,1,2 7 4"
    assert len(lines) == 1 + 4
    assert all(len(row.split()) == 7 for row in lines[1:])
