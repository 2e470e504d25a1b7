import itertools
import math

import numpy as np
import pytest

from wprm.finite_field import GF, field_from_spec
from wprm.weighted_space import space
from wprm.weighted_poly import (WeightedPolynomial, dim_Sd,
                                dim_plane_equal_weight_formula,
                                dim_plane_formula, format_polynomial,
                                monomial_basis, parse_polynomial,
                                weighted_degree)
from reference import evaluate, evaluate_terms


def brute_basis(ws, d):
    """Independent oracle: filter a bounding box of exponent tuples."""
    ranges = [range(d // a + 1) for a in ws]
    return sorted(t for t in itertools.product(*ranges)
                  if sum(a * r for a, r in zip(ws, t)) == d)


@pytest.mark.parametrize("ws", [(1, 1), (3, 4), (1, 2, 3), (2, 3, 5),
                                (1, 1, 2), (1, 2, 2, 3)])
@pytest.mark.parametrize("d", [0, 1, 5, 7, 12, 30])
def test_basis_matches_brute_force(ws, d):
    assert monomial_basis(ws, d) == brute_basis(ws, d)


def test_basis_examples():
    assert monomial_basis((3, 4), 7) == [(1, 1)]
    assert monomial_basis((3, 4), 8) == [(0, 2)]
    assert monomial_basis((3, 4), 1) == []
    assert len(monomial_basis((1, 1, 2), 2)) == 4
    assert monomial_basis((2, 3, 5), 0) == [(0, 0, 0)]


def test_basis_is_cached_but_never_shared():
    from wprm.weighted_poly import _monomial_basis
    want = brute_basis((1, 2, 3), 6)
    basis = monomial_basis((1, 2, 3), 6)
    hits = _monomial_basis.cache_info().hits
    basis.append((9, 9, 9))
    basis[0] = (0, 0, 0)
    again = monomial_basis((1, 2, 3), 6)
    assert _monomial_basis.cache_info().hits == hits + 1
    assert again == want and again is not basis
    again.clear()
    assert monomial_basis((1, 2, 3), 6) == want
    with pytest.raises(ValueError):
        monomial_basis((1, 2, 3), -1)


def test_dim_closed_forms_against_enumeration():
    for a in range(1, 9):
        for b in range(a, 9):
            step = math.lcm(a, b)
            for d in range(0, 65, step):
                assert dim_plane_formula(a, b, d) == dim_Sd((1, a, b), d)
    for a in range(1, 9):
        for d in range(0, 65, a):
            assert dim_plane_equal_weight_formula(a, d) == dim_Sd((1, 1, a), d)
    with pytest.raises(ValueError):
        dim_plane_formula(2, 3, 5)


def test_dim_reference_values():
    assert dim_Sd((1, 2, 2), 16) == 45
    assert dim_Sd((1, 2, 4), 16) == 25
    assert dim_Sd((1, 2, 8), 16) == 15
    assert dim_Sd((1, 4, 4), 16) == 15
    assert dim_Sd((1, 16, 16), 16) == 3
    assert dim_Sd((1, 1, 1), 16) == math.comb(18, 2)


def test_delorme_dim_invariance():
    # replacing X_i^b by X_i is a bijection of graded pieces
    for red, i, b in [((1, 2, 3), 0, 2), ((1, 1), 1, 3), ((2, 3), 0, 5)]:
        source = tuple(a if j == i else a * b for j, a in enumerate(red))
        L = math.lcm(*red)
        for k in (L, 2 * L):
            assert dim_Sd(source, k * b) == dim_Sd(red, k)


def test_polynomial_validation():
    fq = GF(5)
    with pytest.raises(ValueError):
        WeightedPolynomial((3, 4), fq, 7, {(0, 2): 1})  # wrong degree
    with pytest.raises(ValueError):
        WeightedPolynomial((3, 4), fq, 7, {(1, 1): 7})  # bad coefficient
    poly = WeightedPolynomial((3, 4), fq, 7, {(1, 1): 0})
    assert poly.is_zero


def test_evaluate_examples():
    fq = GF(5)
    F = WeightedPolynomial.monomial((3, 4), fq, (1, 1))
    assert F.evaluate_many([(2, 3)]).tolist() == [1]  # 6 mod 5
    G = WeightedPolynomial((1, 2, 3), GF(7), 3,
                           {(0, 0, 1): 1, (1, 1, 0): 1, (3, 0, 0): 1})
    assert G.evaluate_many(np.zeros((1, 3), dtype=np.int64)).tolist() == [0]


def test_grading_identity():
    rng = np.random.default_rng(3)
    for ws, q in [((1, 2, 3), 5), ((2, 3, 5), 7), ((3, 4), 4)]:
        fq = field_from_spec(str(q))
        d = math.lcm(*ws)
        basis = monomial_basis(ws, d)
        for _ in range(10):
            coeffs = rng.integers(0, q, len(basis))
            F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
            x = tuple(int(v) for v in rng.integers(0, q, len(ws)))
            scaled = [tuple(fq.mul(fq.pow(lam, a), xi)
                            for a, xi in zip(ws, x)) for lam in range(1, q)]
            (value,) = F.evaluate_many([x]).tolist()
            assert F.evaluate_many(scaled).tolist() == [
                fq.mul(fq.pow(lam, d), value) for lam in range(1, q)]


def test_evaluate_many_matches_scalar():
    ws = (1, 2, 3)
    terms = {(6, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 3, (0, 0, 2): 1}
    for fq in (GF(2), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)):
        F = WeightedPolynomial(ws, fq, 6, {e: min(c, fq.q - 1)
                                           for e, c in terms.items()})
        coords = space(ws, fq).point_coords()
        vec = F.evaluate_many(coords)
        assert [int(v) for v in vec] == [evaluate(F, row) for row in coords]


def test_ring_operations():
    fq = GF(3)
    ws = (1, 2)
    A = WeightedPolynomial(ws, fq, 2, {(2, 0): 1, (0, 1): 2})
    B = WeightedPolynomial(ws, fq, 2, {(0, 1): 1})
    assert (A + B).terms == {(2, 0): 1}
    assert (A - A).is_zero
    prod = A * B
    assert prod.degree == 4
    assert prod.terms == {(2, 1): 1, (0, 2): 2}
    assert (A ** 2).degree == 4
    with pytest.raises(ValueError):
        A + WeightedPolynomial(ws, fq, 4, {(0, 2): 1})


def test_format_parse_round_trip():
    fq = GF(7)
    ws = (1, 2, 3)
    F = WeightedPolynomial(ws, fq, 6, {(6, 0, 0): 3, (1, 1, 1): 1,
                                       (0, 3, 0): 5, (0, 0, 2): 1})
    text = format_polynomial(F)
    assert parse_polynomial(text, ws, fq) == F
    assert parse_polynomial("4", (1, 1), fq).degree == 0
    assert parse_polynomial("X0^2*X1 + 2*X1*X0^2", (1, 1), fq).terms == \
        {(2, 1): 3}
    with pytest.raises(ValueError):
        parse_polynomial("X0 + X1", (1, 2), fq)  # mixed degrees
    with pytest.raises(ValueError):
        parse_polynomial("X5", (1, 2), fq)


def test_affine_degree_bound():
    # on the chart x_0 = 1 a polynomial of degree d has total degree at most
    # d / a1 in X1..Xm, for sorted weights with a_0 = 1
    fq = GF(5)
    ws = (1, 2, 5)
    rng = np.random.default_rng(0)
    d = 10
    basis = monomial_basis(ws, d)
    for _ in range(20):
        coeffs = rng.integers(0, 5, len(basis))
        F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
        if F.is_zero:
            continue
        assert max(sum(exps[1:]) for exps in F.terms) <= d // ws[1]


def test_affine_zero_correspondence():
    # zeros of F(1, y1, y2) in the affine plane match V(F) on the chart
    for q in (2, 3, 5):
        fq = GF(q)
        ws = (1, 2, 3)
        sp = space(ws, fq)
        rng = np.random.default_rng(q)
        basis = monomial_basis(ws, 6)
        coeffs = rng.integers(0, q, len(basis))
        while not coeffs.any():
            coeffs = rng.integers(0, q, len(basis))
        F = WeightedPolynomial.from_coefficients(ws, fq, 6, basis, coeffs)
        f = {exps[1:]: c for exps, c in F.terms.items()}  # F(1, y1, y2)
        affine_zeros = sum(
            1 for y in itertools.product(range(q), repeat=2)
            if evaluate_terms(fq, f, y) == 0)
        coords = sp.point_coords()
        chart_zeros = int(((F.evaluate_many(coords) == 0)
                           & (coords[:, 0] != 0)).sum())
        assert affine_zeros == chart_zeros


def test_weighted_degree_helper():
    assert weighted_degree((2, 3, 5), (1, 1, 1)) == 10
    assert weighted_degree((1, 1), (0, 0)) == 0
