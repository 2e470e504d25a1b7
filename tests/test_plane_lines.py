import itertools

import numpy as np
import pytest

from wprm.finite_field import GF, field_from_spec
from wprm.weighted_space import space
from wprm.weighted_poly import WeightedPolynomial, monomial_basis
from wprm.plane_lines import LineSystem, PlaneLine
from wprm.zero_sets import count_zeros


def system(ws=(1, 2, 3), q=3):
    return LineSystem(space(ws, field_from_spec(str(q))))


def test_constructor_validation():
    with pytest.raises(ValueError):
        LineSystem(space((1, 2), GF(3)))
    with pytest.raises(ValueError):
        LineSystem(space((1, 3, 2), GF(3)))   # needs a1 < a2
    with pytest.raises(ValueError):
        LineSystem(space((1, 2, 4), GF(3)))   # not coprime
    with pytest.raises(ValueError):
        PlaneLine(3)
    with pytest.raises(ValueError):
        PlaneLine(0, alpha=1)
    with pytest.raises(ValueError):
        PlaneLine(1, beta=1)


def test_catalog_size():
    for q in (2, 3, 5):
        ls = system(q=q)
        assert len(ls.lines()) == 1 + q + q * q


def row_of(ls, coords) -> int:
    """The index of the point with these canonical coordinates among the
    rows of the space's point_coords()."""
    (i,) = np.flatnonzero((ls.space.point_coords() == coords).all(axis=1))
    return int(i)


def test_every_line_has_q_plus_1_points():
    for q in (2, 3, 5):
        ls = system(q=q)
        for line in ls.lines():
            mask = ls.line_points(line)
            assert mask.dtype == bool
            assert mask.shape == (ls.space.expected_point_count,)
            assert mask.sum() == q + 1


def test_line_at_infinity_is_small_weighted_line():
    ls = system(q=3)
    mask = ls.line_points(PlaneLine(0))
    assert mask.sum() == 4
    assert (ls.space.point_coords()[mask, 0] == 0).all()


def test_vertical_line_through_origin():
    ls = system(q=3)
    mask = ls.line_points(PlaneLine(1, 0))
    assert mask[row_of(ls, (0, 0, 1))]
    rows = ls.space.point_coords()[mask]
    affine = {tuple(r) for r in rows.tolist() if r[0] != 0}
    assert affine == {(1, 0, y) for y in range(3)}


def test_type2_lines_share_the_vortex():
    ls = system(q=3)
    vortex = row_of(ls, (0, 1, 0))
    for alpha in range(3):
        for beta in range(3):
            assert ls.line_points(PlaneLine(2, alpha, beta))[vortex]


def test_intersections():
    ls = system(q=3)
    meet = ls.intersect(PlaneLine(1, 0), PlaneLine(1, 2))
    assert np.flatnonzero(meet).tolist() == [row_of(ls, (0, 0, 1))]
    meet = ls.intersect(PlaneLine(2, 0, 1), PlaneLine(2, 1, 2))
    assert meet[row_of(ls, (0, 1, 0))]
    got = ls.intersect(PlaneLine(1, 0), PlaneLine(2, 0, 0))
    assert ls.space.point_coords()[got].tolist() == [[1, 0, 0]]
    with pytest.raises(ValueError):
        ls.intersect(PlaneLine(0), PlaneLine(0))


def test_every_pair_of_lines_meets():
    for q in (2, 3):
        ls = system(q=q)
        masks = [ls.line_points(l) for l in ls.lines()]
        for a, b in itertools.combinations(range(len(masks)), 2):
            assert (masks[a] & masks[b]).any()


def test_affine_incidence_counts():
    q = 3
    ls = system(q=q)
    lines = ls.lines()
    masks = [ls.line_points(l) for l in lines]
    for i, row in enumerate(ls.space.point_coords().tolist()):
        if row[0] == 0:
            continue
        through = [l for l, mask in zip(lines, masks) if mask[i]]
        assert sum(1 for l in through if l.kind == 1) == 1
        assert sum(1 for l in through if l.kind == 2) == q
        assert len(through) == q + 1


def test_normalize_identity_case():
    ls = system(q=3)
    subst = ls.normalize_line(PlaneLine(1, 0))
    F = WeightedPolynomial.monomial(ls.ws, ls.field, (1, 1, 1))
    assert subst.apply(F) == F


def test_normalize_maps_line_to_coordinate_line():
    ls = system(q=5)
    for line in [PlaneLine(1, 3), PlaneLine(2, 2, 4), PlaneLine(0)]:
        subst = ls.normalize_line(line)
        moved = subst.apply(line.polynomial(ls.ws, ls.field))
        target = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}[line.kind]
        assert moved.terms == {target: 1}


def test_normalize_preserves_degree_and_zero_count():
    rng = np.random.default_rng(9)
    ls = system(q=5)
    ws, fq, sp = ls.ws, ls.field, ls.space
    d = 6
    basis = monomial_basis(ws, d)
    for line in [PlaneLine(1, 2), PlaneLine(2, 1, 3), PlaneLine(2, 4, 0)]:
        subst = ls.normalize_line(line)
        for _ in range(5):
            coeffs = rng.integers(0, 5, len(basis))
            if not coeffs.any():
                continue
            F = WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)
            G = subst.apply(F)
            assert G.degree == F.degree
            assert count_zeros(G, sp) == count_zeros(F, sp)
            back = subst.inverse().apply(G)
            assert back == F


def test_product_of_vertical_lines():
    # t distinct vertical forms: degree t*a1 and exactly t*q + 1 zeros
    q = 5
    ls = system(q=q)
    ws, fq = ls.ws, ls.field
    t = 3
    F = WeightedPolynomial(ws, fq, 0, {(0, 0, 0): 1})
    for alpha in range(t):
        F = F * PlaneLine(1, alpha).polynomial(ws, fq)
    assert F.degree == t * ws[1]
    assert count_zeros(F, ls.space) == t * q + 1
