"""Reed-Muller codes as the projective code on the chart x_0 != 0, held to
the affine construction they replaced (`reference.affine_points`,
`reference.affine_monomials`): the same points, basis order, generator
matrix, rank, exhaustive minimum distance and codewords for every RM code
with q <= 9 and m <= 3."""

import warnings

import numpy as np
import pytest

from wprm.codes import (CodeInstance, build_code, encode,
                        min_distance_exhaustive)
from wprm.finite_field import field_from_spec
from wprm.gflinalg import row_reduce
from wprm.weighted_poly import WeightedPolynomial, monomial_values
from wprm.weighted_space import BudgetExceeded
from reference import affine_monomials, affine_points, evaluate_terms

BUDGET = 10 ** 6


def affine_code(fq, m: int, d: int) -> CodeInstance:
    """RM_q(d, m) as it was built: the affine monomials of degree <= d at the
    q^m affine points, no normalisers."""
    points = affine_points(fq, m)
    basis = affine_monomials(m, d)
    return CodeInstance("rm", fq, m, d, None, points, basis,
                        np.ones(len(points), dtype=np.int64),
                        monomial_values(fq, points, basis))


def exhaustive_or_refusal(inst):
    try:
        return min_distance_exhaustive(inst, budget=BUDGET, jobs=1)
    except BudgetExceeded:
        return "over budget"


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_rm_is_the_chart_of_the_projective_code(q):
    fq = field_from_spec(str(q))
    rng = np.random.default_rng(q)
    swept = 0
    for m in (1, 2, 3):
        for d in range(q + 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # d >= q: not injective
                inst = build_code("rm", fq, m, d)
            ref = affine_code(fq, m, d)
            assert inst.points.tolist() == [[1, *y] for y in
                                            ref.points.tolist()], (m, d)
            assert all(sum(exps) == d for exps in inst.basis)
            assert [exps[1:] for exps in inst.basis] == ref.basis, (m, d)
            assert inst.normalizers.tolist() == [1] * inst.n
            assert inst.matrix.tobytes() == ref.matrix.tobytes(), (m, d)
            assert inst.rank == len(row_reduce(ref.matrix, fq)[0])
            got = exhaustive_or_refusal(inst)
            assert got == exhaustive_or_refusal(ref), (m, d)
            if got != "over budget":
                swept += 1
                if d < q:
                    assert got == (q - d) * q ** (m - 1)
            for _ in range(2):
                coeffs = rng.integers(0, q, len(inst.basis))
                poly = WeightedPolynomial.from_coefficients(
                    inst.ws, fq, d, inst.basis, coeffs)
                want = fq.matmul(coeffs, ref.matrix)
                assert encode(inst, poly).tolist() == want.tolist()
            if inst.n * len(inst.basis) <= 5000:
                # F(1, y) term by term at the affine points
                affine = {exps[1:]: c for exps, c in poly.terms.items()}
                assert encode(inst, poly).tolist() == [
                    evaluate_terms(fq, affine, y) for y in ref.points]
    assert swept >= 6
