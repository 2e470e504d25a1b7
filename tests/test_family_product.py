"""The product family built from its elementary-symmetric coefficients, held
to the dict product of its binomial factors it replaced; and zero counts
held fixed by changes of representative, Delorme reduction and line
normalisation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wprm.codes import evaluation_column
from wprm.finite_field import GF, field_from_spec
from wprm.plane_lines import LineSystem
from wprm.verify import _FAMILY_WS, generate_family_specs
from wprm.weighted_poly import WeightedPolynomial, monomial_basis
from wprm.weighted_space import as_weights, delorme_reduce, space
from wprm.zero_sets import (FamilySpec, PrimitivePair, build_family,
                            count_zeros)


def dict_product_family(spec: FamilySpec, ws, field) -> WeightedPolynomial:
    """The previous build_family, kept verbatim as the reference: multiply
    the l binomials M0 - t_i M1 onto mu0 mu1 as polynomials."""
    ws = as_weights(ws)
    spec.validate(ws, field)
    mu = tuple(a + b for a, b in zip(spec.mu0, spec.mu1))
    out = WeightedPolynomial.monomial(ws, field, mu)
    pair_deg = spec.pair.degree(ws)
    for t in spec.t:
        factor = WeightedPolynomial(ws, field, pair_deg, {
            spec.pair.m0: 1})
        factor = factor + WeightedPolynomial(ws, field, pair_deg, {
            spec.pair.m1: field.neg(t)})
        out = out * factor
    return out


FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]

fields = st.sampled_from(FIELDS)


def weight_lists(npos: int, top: int):
    return st.lists(st.integers(1, top), min_size=npos,
                    max_size=npos).filter(lambda ws: math.gcd(*ws) == 1)


# The spaces of the benchmark's geometry workload, with its pair cap.
GEOMETRY_SPACES = [((1, 2, 3), "64"), ((1, 2, 3), "81"), ((1, 2, 3), "101"),
                   ((1, 1, 2, 3), "16"), ((1, 1, 2, 3), "17"),
                   ((2, 3, 5), "49")]


# -- differential: the recurrence against the dict product ---------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_counts_grid_matches_dict_product(seed):
    rng = np.random.default_rng(seed)
    checked = 0
    for q in (3, 4, 5, 7):
        fq = field_from_spec(str(q))
        for systems in _FAMILY_WS.values():
            for wst in systems:
                ws = as_weights(wst)
                for spec in generate_family_specs(ws, fq, rng):
                    got = build_family(spec, ws, fq)
                    assert got == dict_product_family(spec, ws, fq), (wst, q,
                                                                      spec)
                    checked += 1
    assert checked >= 200


@pytest.mark.parametrize("seed", [31, 1])
def test_geometry_specs_match_dict_product(seed):
    ells = set()
    for index, (wst, q) in enumerate(GEOMETRY_SPACES, start=2):
        fq = field_from_spec(q)
        ws = as_weights(wst)
        rng = np.random.default_rng([seed, index])
        for spec in generate_family_specs(ws, fq, rng, pair_cap=4):
            assert build_family(spec, ws, fq) == dict_product_family(
                spec, ws, fq), (wst, q, spec)
            ells.add((fq.q, spec.ell))
    assert (101, 100) in ells and (81, 80) in ells  # the longest products


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.sampled_from(["2", "3", "4", "5", "7", "8", "9"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
def test_generated_specs_are_valid(raw, q, seed, pair_cap):
    # The generator keeps every spec it draws, so each must be valid by
    # construction.  Dividing out the gcd draws every weight system with
    # m <= 3 and entries <= 6 directly, with no filter.
    ws = as_weights([a // math.gcd(*raw) for a in raw])
    fq = field_from_spec(q)
    rng = np.random.default_rng(seed)
    for spec in generate_family_specs(ws, fq, rng, pair_cap=pair_cap):
        spec.validate(ws, fq)


@st.composite
def family_specs(draw, fq):
    """A valid FamilySpec on drawn weights, with l = 0 and l = q - 1 often."""
    npos = draw(st.integers(2, 4))
    ws = draw(weight_lists(npos, 4))
    order = draw(st.permutations(range(npos)))
    cut = draw(st.integers(1, npos - 1))
    s0 = sorted(draw(st.sets(st.sampled_from(order[:cut]), min_size=1)))
    s1 = sorted(draw(st.sets(st.sampled_from(order[cut:]), min_size=1)))
    r0 = [draw(st.integers(1, 2)) if i in s0 else 0 for i in range(npos)]
    r1 = [draw(st.integers(1, 2)) if i in s1 else 0 for i in range(npos)]
    # Scale both monomials to the lcm of their degrees, then divide out the
    # common gcd of the exponents: equal degrees and jointly coprime.
    d0 = sum(a * r for a, r in zip(ws, r0))
    d1 = sum(a * r for a, r in zip(ws, r1))
    lcm = math.lcm(d0, d1)
    r0 = [r * lcm // d0 for r in r0]
    r1 = [r * lcm // d1 for r in r1]
    g = math.gcd(*r0, *r1)
    pair = PrimitivePair(tuple(r // g for r in r0), tuple(r // g for r in r1))
    q = fq.q
    ell = draw(st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1)))
    t = tuple(draw(st.permutations(range(1, q)))[:ell])
    mus = []
    for mono, support in ((pair.m0, s0), (pair.m1, s1)):
        touched = (set(support) if ell == 0
                   else draw(st.sets(st.sampled_from(support))))
        mus.append(tuple(draw(st.integers(1, 2)) if i in touched else 0
                         for i in range(npos)))
    spec = FamilySpec(pair, t, mus[0], mus[1])
    spec.validate(ws, fq)
    return tuple(ws), spec


@settings(max_examples=300, deadline=None)
@given(fields, st.data())
def test_drawn_specs_match_dict_product(fq, data):
    ws, spec = data.draw(family_specs(fq))
    got = build_family(spec, ws, fq)
    assert got == dict_product_family(spec, ws, fq)
    assert got.degree == spec.degree(ws)
    if spec.ell == fq.q - 1:
        # prod over every unit t of (M0 - t M1) is M0^(q-1) - M1^(q-1)
        mu = [a + b for a, b in zip(spec.mu0, spec.mu1)]
        top = tuple(u + (fq.q - 1) * r for u, r in zip(mu, spec.pair.m0))
        bottom = tuple(u + (fq.q - 1) * r for u, r in zip(mu, spec.pair.m1))
        assert got.terms == {top: 1, bottom: fq.neg(1)}


# -- zero counts kept by changes of representative and of coordinates ---------------


def _poly(draw, ws, fq, d, basis=None):
    basis = monomial_basis(ws, d) if basis is None else basis
    assume(basis)
    coeffs = draw(st.lists(st.integers(0, fq.q - 1), min_size=len(basis),
                           max_size=len(basis)))
    assume(any(coeffs))
    return WeightedPolynomial.from_coefficients(ws, fq, d, basis, coeffs)


@settings(max_examples=150, deadline=None)
@given(fields, st.data())
def test_evaluation_column_ignores_the_representative(fq, data):
    npos = data.draw(st.integers(2, 3))
    ws = tuple(data.draw(weight_lists(npos, 3)))
    d = math.lcm(*ws) * data.draw(st.integers(1, 2))
    F = _poly(data.draw, ws, fq, d)
    row = data.draw(st.sampled_from(space(ws, fq).point_coords().tolist()))
    lam = data.draw(st.integers(1, fq.q - 1))
    moved = [fq.mul(fq.pow(lam, a), x) for a, x in zip(ws, row)]
    assert evaluation_column(F, moved) == evaluation_column(F, row)


@settings(max_examples=100, deadline=None)
@given(fields, st.data())
def test_delorme_transform_keeps_zero_counts(fq, data):
    npos = data.draw(st.integers(2, 3))
    reduced = data.draw(weight_lists(npos, 3))
    index = data.draw(st.integers(0, npos - 1))
    b = data.draw(st.integers(2, 3))
    assume(math.gcd(b, reduced[index]) == 1)
    source = tuple(a if j == index else a * b for j, a in enumerate(reduced))
    step = delorme_reduce(source, index, b)
    assert step.reduced.weights == tuple(reduced)
    k = data.draw(st.integers(1, 4))
    basis = [r for r in monomial_basis(source, k * b) if r[index] % b == 0]
    F = _poly(data.draw, source, fq, k * b, basis)
    G = step.transform_poly(F)
    assert count_zeros(G, space(step.reduced, fq)) == count_zeros(
        F, space(source, fq))


@settings(max_examples=100, deadline=None)
@given(fields, st.data())
def test_line_normalisation_keeps_zero_counts(fq, data):
    a1, a2 = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    ls = LineSystem(space((1, a1, a2), fq))
    line = data.draw(st.sampled_from(ls.lines()))
    F = _poly(data.draw, ls.ws, fq, data.draw(st.integers(1, 6)))
    G = ls.normalize_line(line).apply(F)
    assert count_zeros(G, ls.space) == count_zeros(F, ls.space)
