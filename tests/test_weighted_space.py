import itertools

import numpy as np
import pytest

from wprm.finite_field import GF, field_from_spec
from wprm.verify import _reduction_steps
from wprm.weighted_space import (BudgetExceeded, WeightSystem,
                                 WeightedProjectiveSpace, as_weights,
                                 canonicalize, delorme_normalize,
                                 delorme_reduce, is_well_formed, orbit_size,
                                 projective_count, singular_locus, space)
from wprm.weighted_poly import WeightedPolynomial, monomial_basis
from wprm.zero_sets import max_zeros
from reference import evaluate


def point_rows(ws, fq) -> list[tuple[int, ...]]:
    """The canonical points of P(ws) over fq as tuples, in enumeration
    order."""
    return [tuple(r) for r in space(ws, fq).point_coords().tolist()]


def brute_closure_classes(weights, p, ext_degree):
    """Independent oracle: group rational tuples of P(weights)(F_p) by scaling
    with units of the extension GF(p^ext_degree).

    The prime subfield embeds as the indices 0..p-1, so tuples compare
    directly.  ext_degree must be large enough that every relevant root of
    unity exists; the call sites pick it per case.
    """
    fq, fbig = GF(p), GF(p, ext_degree)
    tuples = [t for t in itertools.product(range(p), repeat=len(weights))
              if any(t)]
    powers = {a: [fbig.pow(lam, a) for lam in range(1, fbig.q)]
              for a in set(weights)}
    classes = []
    unassigned = set(tuples)
    while unassigned:
        x = min(unassigned)
        cls = set()
        for k in range(fbig.q - 1):
            y = tuple(fbig.mul(powers[a][k], xi) for a, xi in zip(weights, x))
            if all(c < p for c in y):
                cls.add(y)
        assert cls <= unassigned
        unassigned -= cls
        classes.append(cls)
    return classes


ORACLE_CASES = [
    ((2, 3), 3, 4), ((2, 3), 5, 4), ((1, 2), 3, 4), ((1, 2), 5, 4),
    ((3, 4), 5, 4), ((2, 3, 5), 2, 4), ((1, 2, 3), 3, 4), ((2, 2, 3), 3, 4),
    ((1, 4), 5, 4), ((4, 6, 9), 5, 4),
]


@pytest.mark.parametrize("weights,p,t", ORACLE_CASES,
                         ids=lambda v: str(v))
def test_classes_match_closure_oracle(weights, p, t):
    classes = brute_closure_classes(weights, p, t)
    sp = space(weights, GF(p))
    assert {min(c) for c in classes} == set(point_rows(weights, GF(p)))
    for cls in classes:
        x = next(iter(cls))
        assert set(sp.representatives(x)) == cls
        assert len(cls) == p - 1


def test_point_counts_small_grid():
    for q in (2, 3, 4, 5, 7):
        fq = field_from_spec(str(q))
        for ws in [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 2, 3), (2, 3, 5),
                   (1, 1, 2, 2)]:
            pts = point_rows(ws, fq)
            m = len(ws) - 1
            assert len(pts) == projective_count(q, m), (ws, q)
            assert len(set(pts)) == len(pts)


def test_spec_point_examples():
    assert len(point_rows((2, 3, 5), GF(2, 2))) == 21
    assert len(point_rows((1,), GF(7))) == 1
    assert point_rows((1, 1), GF(2)) == [(0, 1), (1, 0), (1, 1)]


def test_frozen_points_of_p23_f5():
    # hand-computed canonical representatives; (t, 0) is a single point here
    got = point_rows((2, 3), GF(5))
    assert got == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_canonicalize_examples():
    sp = space((2, 3), GF(3))
    assert sp.canonicalize((2, 2)).coords == (2, 1)
    assert sp.orbit_size((2, 2)) == 2
    sp = space((1, 1), GF(5))
    assert sp.canonicalize((2, 4)).coords == (1, 2)
    # idempotence across every point of a few spaces
    for ws, q in [((2, 3, 5), 4), ((1, 2, 3), 3), ((2, 3), 5)]:
        fq = field_from_spec(str(q))
        for row in point_rows(ws, fq):
            assert space(ws, fq).canonicalize(row).coords == row


def test_orbit_sizes_always_q_minus_1():
    for ws, q in [((2, 3, 5), 4), ((2, 3), 5), ((1, 2), 4), ((2, 3, 5), 5)]:
        sp = space(ws, field_from_spec(str(q)))
        for raw in [(1, 0) + (0,) * (len(ws) - 2),
                    tuple(1 for _ in ws),
                    (0,) * (len(ws) - 1) + (1,)]:
            assert sp.orbit_size(raw) == q - 1


def test_counts_hold_when_characteristic_divides_weights():
    # flagged configurations still enumerate to p_m with q-1 reps per point
    for ws, spec in [((2, 3), "4"), ((2, 3), "2"), ((3, 5), "9"),
                     ((2, 3, 5), "8"), ((1, 2, 4), "2^2")]:
        fq = field_from_spec(spec)
        sp = space(ws, fq)
        assert sp.char_divides_weight
        pts = point_rows(ws, fq)
        assert len(pts) == projective_count(fq.q, sp.m)
        for row in pts[:5]:
            assert sp.orbit_size(row) == fq.q - 1


def test_delorme_bijection_extension_field():
    fq = field_from_spec("4")
    step = delorme_reduce((1, 3, 3), 0, 3)
    src, red = space(step.source, fq), space(step.reduced, fq)
    image = step.map_points(fq, src.point_coords())
    assert (image[np.lexsort(image.T[::-1])] == red.point_coords()).all()


def test_zero_tuple_rejected():
    sp = space((1, 2), GF(3))
    with pytest.raises(ValueError):
        sp.canonicalize((0, 0))
    with pytest.raises(ValueError):
        sp.orbit_size((0, 0))


def test_strata_partition():
    for ws, q in [((1, 2, 3), 3), ((2, 3, 5), 4), ((1, 1, 2), 5)]:
        sp = space(ws, field_from_spec(str(q)))
        sizes = sp.stratum_sizes()
        assert sum(sizes) == sp.expected_point_count
        assert sizes == [q ** (sp.m - i) for i in range(sp.m + 1)]


def test_cone_identity():
    for ws, q in [((1, 2, 3), 3), ((2, 3, 5), 4)]:
        m = len(ws) - 1
        assert (q - 1) * projective_count(q, m) + 1 == q ** (m + 1)


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem((2, 4))
    with pytest.raises(ValueError):
        WeightSystem((0, 1))
    with pytest.raises(ValueError):
        WeightSystem(())
    ws = WeightSystem((1, 2, 3))
    assert ws.m == 2 and ws.lcm == 6 and ws.total == 6
    assert as_weights(ws) is ws
    assert WeightSystem(np.array([1, 2, 3])) == ws  # numpy integers pass


@pytest.mark.parametrize("weights", [(1.5, 2, 3), (1, 2.0, 3), (1, "2", 3)])
def test_non_integer_weights_are_refused_not_truncated(weights):
    # (1.5, 1, 1) used to become P(1, 1, 1); every entry must be an integer
    for make in (WeightSystem, lambda w: space(w, GF(3)),
                 lambda w: max_zeros(w, GF(3), 2)):
        with pytest.raises(ValueError, match="weights must be integers"):
            make(weights)
    space((1, 2, 3), GF(3))  # a cached space refuses the float all the same
    with pytest.raises(ValueError, match="weights must be integers"):
        space((1.0, 2, 3), GF(3))


def test_a_space_cache_hit_builds_no_weight_system(monkeypatch):
    fq = GF(5)
    space((1, 2, 3), fq)
    ws = WeightSystem((1, 2, 3))
    built, init = [], WeightSystem.__init__

    def counting(self, weights):
        built.append(tuple(weights))
        init(self, weights)

    monkeypatch.setattr(WeightSystem, "__init__", counting)
    for key in ((1, 2, 3), [1, 2, 3], np.array([1, 2, 3]), ws):
        assert space(key, fq) is space((1, 2, 3), fq)
    assert built == []
    space((5, 7, 11), fq)  # a miss (no other test uses it) builds one
    assert built == [(5, 7, 11)]


def test_well_formedness():
    assert is_well_formed((2, 3, 5))
    assert is_well_formed((1, 1, 1))
    assert not is_well_formed((2, 2, 3))
    # (1,2,2) fails: dropping the 1 leaves gcd 2
    assert not is_well_formed((1, 2, 2))
    assert is_well_formed((1, 1))
    assert not is_well_formed((1, 2))


def test_char_divides_weight_flag():
    assert space((2, 3, 5), GF(2, 2)).char_divides_weight
    assert not space((1, 2, 3), GF(5)).char_divides_weight


def test_singular_locus():
    rep = singular_locus((1, 2, 3))
    assert rep.sigma == (2, 3)
    assert rep.components == {2: (1,), 3: (2,)}
    assert rep.dimensions == {2: 0, 3: 0}
    assert singular_locus((1, 1, 1)).is_smooth
    with pytest.raises(ValueError):
        singular_locus((1, 2, 2))
    rep = singular_locus((1, 2, 2), allow_non_well_formed=True)
    assert rep.components == {2: (1, 2)}
    assert rep.dimensions == {2: 1}


def test_budget_exceeded():
    sp = WeightedProjectiveSpace((1, 1, 1), GF(7))
    with pytest.raises(BudgetExceeded):
        sp.point_coords(tuple_budget=10)


# -- Delorme reduction --------------------------------------------------------------------


def test_delorme_validation():
    with pytest.raises(ValueError):
        delorme_reduce((2, 3), 0, 2)       # 3 not divisible by 2
    with pytest.raises(ValueError):
        delorme_reduce((2, 1, 2), 0, 2)    # b shares a factor with a_0
    step = delorme_reduce((2, 1, 2), 1, 2)
    assert step.reduced.weights == (1, 1, 1)
    ident = delorme_reduce((2, 3), 0, 1)
    assert ident.reduced.weights == (2, 3)


def test_delorme_point_bijection():
    fq = GF(3)
    step = delorme_reduce((2, 1, 2), 1, 2)
    src, red = space((2, 1, 2), fq), space((1, 1, 1), fq)
    image = step.map_points(fq, src.point_coords())
    assert {tuple(r) for r in image.tolist()} == \
        set(point_rows((1, 1, 1), fq))
    assert len(image) == len(src.point_coords()) == red.expected_point_count


def map_coords(step, field, coords) -> tuple[int, ...]:
    return tuple(
        field.pow(int(c), step.b) if j == step.index else int(c)
        for j, c in enumerate(coords))


def map_point(step, field, coords) -> tuple[int, ...]:
    """The scalar point map that `DelormeStep.map_points` replaced, kept as
    a function of the step and of one point's coordinates, as its
    reference."""
    return space(step.reduced, field).canonicalize(
        map_coords(step, field, coords)).coords


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_map_points_matches_the_scalar_map_row_by_row(q):
    # every step of the default delorme grid, in source point order
    fq = field_from_spec(str(q))
    for source, i, b in _reduction_steps(4, 3):
        step = delorme_reduce(source, i, b)
        src = space(source, fq)
        got = step.map_points(fq, src.point_coords())
        assert got.dtype == np.int64
        want = [map_point(step, fq, row) for row in point_rows(source, fq)]
        assert [tuple(r) for r in got.tolist()] == want, step


@pytest.mark.parametrize("row,message", [
    ([1.5, 2, 3], "coordinates must be integers"),
    ([-1, 2, 3], r"\(-1, 2, 3\) is not a tuple of 3 elements of GF\(7\)"),
    ([8, 2, 3], r"\(8, 2, 3\) is not a tuple of 3 elements of GF\(7\)"),
    ([0, 0, 0], "the zero tuple"),
    ([1, 2], "is not a tuple of 3 elements"),
])
def test_map_points_refuses_rows_that_are_not_source_points(row, message):
    # Checked before any power or gather: a float used to be truncated, -1
    # to wrap through the log table, 8 to raise IndexError.
    fq = GF(7)
    step = delorme_reduce((1, 2, 2), 0, 2)
    with pytest.raises(ValueError, match=message):
        step.map_points(fq, [row])
    with pytest.raises(ValueError, match=message):
        space(step.reduced, fq).canonicalize_many([row])


def test_map_points_leaves_its_input_alone():
    fq = GF(5)
    step = delorme_reduce((2, 1, 2), 1, 2)
    coords = space(step.source, fq).point_coords()
    before = coords.copy()
    step.map_points(fq, coords)
    assert (coords == before).all()


def test_delorme_commutes_with_zero_sets():
    fq = GF(3)
    step = delorme_reduce((2, 1, 2), 1, 2)
    src, red = space(step.source, fq), space(step.reduced, fq)
    basis = monomial_basis(step.source, 4)
    rng = np.random.default_rng(1)
    for _ in range(10):
        coeffs = rng.integers(0, 3, len(basis))
        if not coeffs.any():
            continue
        F = WeightedPolynomial.from_coefficients(step.source, fq, 4, basis,
                                                 coeffs)
        G = step.transform_poly(F)
        assert G.degree == 2
        coords = src.point_coords()
        images = step.map_points(fq, coords)
        for row, image in zip(coords.tolist(), images.tolist()):
            lhs = evaluate(F, tuple(row)) == 0
            rhs = evaluate(G, tuple(image)) == 0
            assert lhs == rhs


def test_delorme_normalize_chain():
    steps = delorme_normalize((3, 4))
    ws = as_weights((3, 4))
    for st in steps:
        assert st.source == ws
        ws = st.reduced
    assert ws.weights == (1, 1)
    assert delorme_normalize((2, 3, 5)) == []


def test_delorme_max_zeros_route():
    # two reduction steps carry (3,4) to (1,1); max zero counts must agree
    for q in (2, 3):
        fq = GF(q)
        for k in (1, 2):
            lhs = max_zeros((3, 4), fq, 12 * k, want_witness=False)
            rhs = max_zeros((1, 1), fq, k, want_witness=False)
            assert lhs.value == rhs.value


def test_poly_transform_round_trip():
    fq = GF(5)
    step = delorme_reduce((2, 1, 2), 1, 2)
    G = WeightedPolynomial(step.reduced, fq, 2,
                           {(2, 0, 0): 1, (0, 1, 1): 4})
    F = step.untransform_poly(G)
    assert F.degree == 4
    assert step.transform_poly(F) == G
    with pytest.raises(ValueError):
        step.transform_poly(WeightedPolynomial(step.source, fq, 3,
                                               {(0, 3, 0): 1}))
