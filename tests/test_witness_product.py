"""The lower-bound witness and the Reed-Muller distance witness built from
their coefficients (`binary_form_coefficients`), held to the dict products of
their factors they replaced, kept verbatim here as the reference (the RM one
homogenised in X0, as RM codes now encode polynomials on P(1, ..., 1))."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wprm.codes import build_code, min_distance_witness
from wprm.finite_field import field_from_spec
from wprm.weighted_poly import WeightedPolynomial
from wprm.weighted_space import as_weights
from wprm.zero_sets import (lower_bound_witness, min_pair_lcm,
                            projective_line_points)

# -- the replaced code, verbatim -------------------------------------------------------


def dict_product_witness(ws, d: int, field, *, pair=None,
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


def dict_product_rm_witness(field, m: int, d: int) -> WeightedPolynomial:
    """The polynomial of the previous RM branch of `min_distance_witness`,
    prod_{c < d} (Y1 - c), homogenised in X0 as RM codes now encode it."""
    q, f = field.q, field
    if d >= q or d == 0:
        return None
    coeffs = [1]
    for c in range(d):
        nc = f.neg(c)
        new = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            new[i + 1] = f.add(new[i + 1], a)
            new[i] = f.add(new[i], f.mul(a, nc))
        coeffs = new
    terms = {(d - j, j) + (0,) * (m - 1): c
             for j, c in enumerate(coeffs) if c}
    return WeightedPolynomial((1,) * (m + 1), f, d, terms)


# -- the grids ---------------------------------------------------------------------------

QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
WEIGHT_SYSTEMS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (1, 2, 4),
                  (1, 4, 4), (2, 3, 5), (1, 1, 1, 2), (1, 16, 16)]


@pytest.mark.parametrize("q", QS)
def test_lower_bound_witness_matches_dict_product(q):
    # Every t = d/a from the constant up past q + 1, where a factor repeats.
    fq = field_from_spec(str(q))
    for wst in WEIGHT_SYSTEMS:
        a, _ = min_pair_lcm(wst)
        for t in range(q + 4):
            got = lower_bound_witness(wst, a * t, fq)
            assert got == dict_product_witness(wst, a * t, fq), (wst, t)
            assert got.degree == a * t


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_verify_style_witnesses_match_dict_product(q):
    # Every pair attaining the least lcm and shuffled line points, as the
    # bounds suite draws them.
    fq = field_from_spec(str(q))
    rng = np.random.default_rng(q)
    for wst in WEIGHT_SYSTEMS:
        ws = as_weights(wst)
        a, _ = min_pair_lcm(ws)
        pairs = [(r, s) for r in range(len(ws)) for s in range(r + 1, len(ws))
                 if math.lcm(ws[r], ws[s]) == a]
        pts = projective_line_points(fq)
        for t in range(1, q + 2):
            for pair in pairs:
                order = rng.permutation(len(pts))
                chosen = [pts[i] for i in order[:t]]
                got = lower_bound_witness(ws, a * t, fq, pair=pair,
                                          line_points=chosen)
                assert got == dict_product_witness(
                    ws, a * t, fq, pair=pair, line_points=chosen)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(QS), st.sampled_from(WEIGHT_SYSTEMS), st.data())
def test_drawn_line_points_match_dict_product(q, wst, data):
    # Any field elements, (0, 0) and non-unit alpha included; a repeated
    # point raises in both.
    fq = field_from_spec(str(q))
    a, _ = min_pair_lcm(wst)
    element = st.integers(0, q - 1)
    points = data.draw(st.lists(st.tuples(element, element), min_size=1,
                                max_size=q + 2))
    t = data.draw(st.integers(0, len(points) + 2))
    try:
        want = dict_product_witness(wst, a * t, fq, line_points=points)
    except ValueError:
        with pytest.raises(ValueError):
            lower_bound_witness(wst, a * t, fq, line_points=points)
        return
    assert lower_bound_witness(wst, a * t, fq, line_points=points) == want


def test_line_points_outside_the_field_raise():
    fq = field_from_spec("5")
    for bad in [(5, 1), (1, 5), (-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="field elements"):
            lower_bound_witness((1, 1, 1), 2, fq, line_points=[(1, 0), bad])


@pytest.mark.parametrize("q", QS)
def test_rm_witness_matches_dict_product(q):
    fq = field_from_spec(str(q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d >= q: "need not be injective"
        for m in (1, 2):
            for d in range(0, q + 1):
                inst = build_code("rm", fq, m, d)
                want = dict_product_rm_witness(fq, m, d)
                wit = min_distance_witness(inst)
                if want is None:
                    assert wit is None
                    continue
                cw, weight, poly = wit
                assert poly == want, (m, d)
                assert weight == (q - d) * q ** (m - 1)
