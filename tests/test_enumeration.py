"""The stabiliser-chain enumeration and canonicalisation against the
q^(m+1)-tuple scan they replace, plus property tests of the orbit maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wprm import weighted_space
from wprm.codes import F19_WEIGHT_SYSTEMS
from wprm.finite_field import GF, field_from_spec
from wprm.verify import _weight_tuples
from wprm.weighted_space import (BudgetExceeded, WeightedPoint,
                                 WeightedProjectiveSpace, _strip_char, space)

_CHUNK = 1 << 18


class ScanSpace(WeightedProjectiveSpace):
    """The previous enumeration and canonicalisation, kept verbatim as the
    reference: scan all q^(m+1) tuples, then q - 2 orbit passes over them."""

    def scaling_generator(self, support: tuple[int, ...]) -> tuple[int, ...]:
        """Per-coordinate multipliers generating the representative set on a support."""
        g = math.gcd(*(self.ws[i] for i in support))
        g = _strip_char(g, self.field.p)
        f = self.field
        if f.q == 2:
            return tuple(1 for _ in support)
        return tuple(int(f.exp_table[(self.ws[i] // g) % (f.q - 1)])
                     for i in support)

    def representatives(self, raw) -> list[tuple[int, ...]]:
        """All GF(q)-rational tuples representing the same point as raw."""
        raw = tuple(int(c) for c in raw)
        if not any(raw):
            raise ValueError("the zero tuple does not represent a point")
        support = tuple(i for i, c in enumerate(raw) if c)
        gamma = self.scaling_generator(support)
        f = self.field
        out = [raw]
        cur = list(raw)
        for _ in range(f.q - 2):
            for i, gi in zip(support, gamma):
                cur[i] = f.mul(cur[i], gi)
            out.append(tuple(cur))
        return out

    def orbit_size(self, raw) -> int:
        """Number of distinct rational representative tuples (q - 1)."""
        return len(set(self.representatives(raw)))

    def canonicalize(self, raw) -> WeightedPoint:
        """Lexicographically least representative, under the index order."""
        return WeightedPoint(min(self.representatives(raw)))

    def point_coords(self, tuple_budget: int | None = None) -> np.ndarray:
        f = self.field
        q, npos = f.q, len(self.ws)
        total = q ** npos
        if tuple_budget is not None and total > tuple_budget:
            raise BudgetExceeded(
                f"enumerating P{self.ws.weights} over GF({q}) needs {total} "
                f"tuples, over the budget of {tuple_budget}")
        radix = q ** np.arange(npos - 1, -1, -1, dtype=np.int64)
        bits = 1 << np.arange(npos)
        chunks = []
        for start in range(0, total, _CHUNK):
            keys = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            coords = (keys[:, None] // radix) % q
            minkeys = keys.copy()
            if q > 2:
                patterns = ((coords != 0) * bits).sum(axis=1)
                for patt in np.unique(patterns):
                    if patt == 0:
                        continue
                    rows = np.nonzero(patterns == patt)[0]
                    support = tuple(i for i in range(npos) if patt >> i & 1)
                    gamma = self.scaling_generator(support)
                    glog = [int(f.log_table[g]) for g in gamma]
                    cur = coords[rows].copy()
                    best = minkeys[rows]
                    logs = {i: f.log_table[cur[:, i]] for i in support}
                    for k in range(1, q - 1):
                        for i, gl in zip(support, glog):
                            logs[i] = (logs[i] + gl) % (q - 1)
                            cur[:, i] = f.exp_table[logs[i]]
                        best = np.minimum(best, cur @ radix)
                    minkeys[rows] = best
            canon = (minkeys == keys) & (keys != 0)
            chunks.append(coords[canon])
        return np.concatenate(chunks, axis=0)


class ChainSpace(WeightedProjectiveSpace):
    """The per-support chain enumeration that the width table replaced,
    kept verbatim as the reference."""

    def point_coords(self, tuple_budget: int | None = None) -> np.ndarray:
        f = self.field
        npos = len(self.ws)
        entries = self.expected_point_count * npos
        if tuple_budget is not None and entries > tuple_budget:
            raise BudgetExceeded(
                f"enumerating P{self.ws.weights} over GF({f.q}) builds "
                f"{self.expected_point_count} points of {npos} coordinates, "
                f"{entries} array entries, over the tuple budget of "
                f"{tuple_budget}")
        strata = []  # transposed: one row per coordinate
        for bits in range(1, 1 << npos):
            support = tuple(i for i in range(npos) if bits >> i & 1)
            chain = self._chain(support)
            count = math.prod(link.width for link in chain)
            block = np.zeros((npos, count), dtype=np.int64)
            after = count
            for i, link in zip(support, chain):  # M_j varies slowest for j = 0
                after //= link.width
                block[i].reshape(-1, link.width, after)[:] = \
                    link.minima[:, None]
            strata.append(block)
        coords = np.concatenate(strata, axis=1)
        return coords[:, np.lexsort(coords[::-1])].T.copy()


# -- enumeration: byte-identical to the scan ----------------------------------------------


GRID_FIELDS = (2, 3, 4, 5, 7, 8, 9)  # the suite_point_counts grid


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("q", GRID_FIELDS)
def test_enumeration_matches_scan_on_point_count_grid(q):
    # every weight system of the grid, the char-divides-weight ones included
    fq = field_from_spec(str(q))
    flagged = 0
    for m in range(1, 4):
        for ws in _weight_tuples(6, m + 1):
            got = WeightedProjectiveSpace(ws, fq).point_coords()
            want = ScanSpace(ws, fq).point_coords()
            assert _same_array(got, want), (ws, q)
            flagged += any(a % fq.p == 0 for a in ws)
    assert flagged > 0 or fq.p > 6  # no weight up to 6 is a multiple of 7


@pytest.mark.parametrize("ws,q", [((1, 2, 3), "16"), ((1, 2, 3), "25"),
                                  ((1, 2, 3), "27"), ((1, 2, 3), "49"),
                                  ((2, 3, 5), "49")])
def test_enumeration_matches_scan_on_larger_fields(ws, q):
    fq = field_from_spec(q)
    got = WeightedProjectiveSpace(ws, fq).point_coords()
    assert _same_array(got, ScanSpace(ws, fq).point_coords())


def test_budget_counts_the_entries_built(monkeypatch):
    # P(1,2,3)/F7 builds 57 points of 3 coordinates: 171 entries
    sp = WeightedProjectiveSpace((1, 2, 3), GF(7))
    calls = []
    for name in ("_width_table", "_canonical_points"):
        real = getattr(weighted_space, name)
        monkeypatch.setattr(weighted_space, name,
                            lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    with pytest.raises(BudgetExceeded, match="171 array entries"):
        sp.point_coords(tuple_budget=170)
    assert not calls  # refused before any work
    assert sp.point_coords(tuple_budget=171).shape == (57, 3)
    assert calls == ["_width_table", "_canonical_points"]  # the work refused
    with pytest.raises(BudgetExceeded, match="171 array entries"):
        sp.point_coords(tuple_budget=170)  # a budget passed once is no pass


# -- the width table and the shared product ----------------------------------------------


# The geometry workload's point spaces, and the spaces of its `table` runs.
GEOMETRY_SPACES = [((1, 2, 3), "64"), ((1, 2, 3), "81"), ((1, 2, 3), "101"),
                   ((1, 1, 2, 3), "16"), ((1, 1, 2, 3), "17"),
                   ((2, 3, 5), "49")] + [
    (ws, q) for q in ("16", "19", "25", "31")
    for ws in ((1, 1, 1),) + F19_WEIGHT_SYSTEMS]


@pytest.mark.parametrize("q", GRID_FIELDS)
def test_enumeration_matches_chain_walk_on_point_count_grid(q):
    fq = field_from_spec(str(q))
    for m in range(1, 4):
        for ws in _weight_tuples(6, m + 1):
            got = WeightedProjectiveSpace(ws, fq).point_coords()
            want = ChainSpace(ws, fq).point_coords()
            assert _same_array(got, want), (ws, q)


@pytest.mark.parametrize("ws,q", GEOMETRY_SPACES)
def test_enumeration_matches_chain_walk_on_geometry_spaces(ws, q):
    fq = field_from_spec(q)
    got = WeightedProjectiveSpace(ws, fq).point_coords()
    assert _same_array(got, ChainSpace(ws, fq).point_coords())


WIDTH_FIELDS = [GF(2), GF(3), GF(2, 2), GF(7), GF(2, 3), GF(3, 2), GF(2, 4),
                GF(5, 2), GF(7, 2), GF(101), GF(2, 16)]


@st.composite
def width_cases(draw):
    fq = draw(st.sampled_from(WIDTH_FIELDS))
    npos = draw(st.integers(1, 4))
    # weights past q, multiples of p and divisors of q - 1, then divided by
    # their gcd, which keeps most multiples of p
    weight = st.one_of(st.integers(1, 3 * fq.q),
                       st.integers(1, 12).map(lambda a: a * fq.p),
                       st.sampled_from(_divisors(fq.q - 1)[:12]))
    ws = draw(st.lists(weight, min_size=npos, max_size=npos))
    g = math.gcd(*ws)
    return fq, tuple(a // g for a in ws)


@settings(max_examples=300, deadline=None)
@given(width_cases())
def test_width_table_is_the_chain_widths(case):
    fq, ws = case
    sp = WeightedProjectiveSpace(ws, fq)
    table = weighted_space._width_table(ws, fq)
    assert len(table) == 2 ** len(ws) - 1
    for bits, row in enumerate(table, 1):
        support = tuple(i for i in range(len(ws)) if bits >> i & 1)
        want = [0] * len(ws)
        for i, link in zip(support, sp._chain(support)):
            want[i] = link.width
        assert row == tuple(want), (ws, fq, support)
    assert sum(math.prod(w for w in row if w) for row in table) == \
        sp.expected_point_count


def test_equal_width_tables_share_one_read_only_array():
    # Over F_3 the supports of P(1,2) and P(1,4) have the same chain widths.
    fq = GF(3)
    a, b = space((1, 2), fq), space((1, 4), fq)
    assert weighted_space._width_table(a.ws.weights, fq) == \
        weighted_space._width_table(b.ws.weights, fq)
    assert a.point_coords() is b.point_coords()
    assert not a.point_coords().flags.writeable


def test_shared_points_cannot_be_written():
    coords = space((1, 2, 3), GF(7)).point_coords()
    with pytest.raises(ValueError):
        coords[0, 2] = 6
    assert space((1, 2, 3), GF(7)).point_coords()[0].tolist() == [0, 0, 1]


def test_product_keys_refuse_int64_overflow_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(weighted_space, "_coset_minima",
                        lambda *args: calls.append(args))
    for fq, ncols in [(GF(2, 16), 5), (GF(2, 16), 4), (GF(2), 64)]:
        with pytest.raises(ValueError, match="overflow int64"):
            weighted_space.coset_product_keys(fq, ((1,) * ncols,))
    assert not calls
    monkeypatch.undo()
    # 2^63 - 1 is the largest key: 63 binary digits still fit
    keys = weighted_space.coset_product_keys(GF(2), ((1,) * 63,))
    assert keys.tolist() == [(1 << 63) - 1]


# -- canonicalisation: properties and the scan's scalar reference -------------------------


PROPERTY_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]


@st.composite
def spaces_and_tuples(draw):
    fq = draw(st.sampled_from(PROPERTY_FIELDS))
    npos = draw(st.integers(1, 4))
    # weights up to 12 hit multiples of every characteristic drawn
    ws = draw(st.lists(st.integers(1, 12), min_size=npos, max_size=npos)
              .filter(lambda w: math.gcd(*w) == 1))
    raw = draw(st.lists(st.integers(0, fq.q - 1), min_size=npos,
                        max_size=npos).filter(any))
    return fq, tuple(ws), tuple(raw)


@settings(max_examples=300, deadline=None)
@given(spaces_and_tuples())
def test_canonical_point_properties(case):
    fq, ws, raw = case
    sp = space(ws, fq)
    pt = sp.canonicalize(raw)
    assert sp.canonicalize(pt.coords) == pt
    reps = sp.representatives(raw)
    assert raw in reps
    assert {sp.canonicalize(r) for r in reps} == {pt}
    assert (sp.point_coords() == pt.coords).all(axis=1).sum() == 1
    assert sp.orbit_size(raw) == fq.q - 1


@settings(max_examples=300, deadline=None)
@given(spaces_and_tuples())
def test_canonicalize_matches_scan(case):
    fq, ws, raw = case
    sp, ref = space(ws, fq), ScanSpace(ws, fq)
    assert sp.canonicalize(raw) == ref.canonicalize(raw)
    assert sp.representatives(raw) == ref.representatives(raw)
    assert sp.orbit_size(raw) == ref.orbit_size(raw)
    support = tuple(i for i, c in enumerate(raw) if c)
    assert sp.scaling_generator(support) == ref.scaling_generator(support)


def _drawn_rows(rng, q: int, npos: int, count: int) -> np.ndarray:
    # nonzero tuples, about a third of their entries zero, so that every
    # support turns up
    rows = rng.integers(0, q, size=(count, npos))
    rows[rng.random((count, npos)) < 0.35] = 0
    return rows[rows.any(axis=1)]


@pytest.mark.parametrize("q", GRID_FIELDS + (16, 25))
def test_canonicalize_many_matches_scan_row_by_row(q):
    # the suite_point_counts grid, char-divides-weight spaces included
    fq = field_from_spec(str(q))
    rng = np.random.default_rng(q)
    max_entry = 6 if q < 10 else 4
    for m in range(1, 4):
        for ws in _weight_tuples(max_entry, m + 1):
            rows = _drawn_rows(rng, q, m + 1, 12)
            got = space(ws, fq).canonicalize_many(rows)
            ref = ScanSpace(ws, fq)
            want = [ref.canonicalize(r).coords for r in rows.tolist()]
            assert got.dtype == np.int64 and got.shape == rows.shape
            assert [tuple(r) for r in got.tolist()] == want, (ws, q)


@st.composite
def spaces_and_rows(draw):
    fq, ws, raw = draw(spaces_and_tuples())
    rows = draw(st.lists(st.lists(st.integers(0, fq.q - 1), min_size=len(ws),
                                  max_size=len(ws)).filter(any),
                         min_size=0, max_size=8))
    return fq, ws, [raw] + rows


@settings(max_examples=300, deadline=None)
@given(spaces_and_rows())
def test_canonicalize_many_matches_scan_on_drawn_rows(case):
    fq, ws, rows = case
    sp, ref = space(ws, fq), ScanSpace(ws, fq)
    got = sp.canonicalize_many(rows).tolist()
    assert [tuple(r) for r in got] == [ref.canonicalize(r).coords
                                       for r in rows]
    assert [sp.canonicalize(r).coords for r in rows] == \
        [tuple(r) for r in got]


def test_canonicalize_many_of_the_points_is_the_identity():
    sp = space((1, 2, 3), GF(7))
    coords = sp.point_coords()
    assert _same_array(sp.canonicalize_many(coords), coords)
    assert sp.canonicalize_many(np.zeros((0, 3), np.int64)).shape == (0, 3)


@pytest.mark.parametrize("spec", ["2^16", "3^10"])
def test_canonicalize_on_large_fields(spec):
    fq = field_from_spec(spec)
    sp = space((1, 2, 3), fq)
    rng = np.random.default_rng(7)
    for raw in [tuple(int(x) for x in rng.integers(1, fq.q, 3)), (0, 5, 7),
                (0, 0, 9)]:
        pt = sp.canonicalize(raw)
        assert sp.canonicalize(pt.coords) == pt
        reps = sp.representatives(raw)
        assert min(reps) == pt.coords
        assert len(set(reps)) == sp.orbit_size(raw) == fq.q - 1


def test_canonicalize_rejects_non_elements():
    sp = space((1, 2), GF(3))
    for raw in [(3, 1), (-1, 1), (1, 1, 1), (1,)]:
        with pytest.raises(ValueError):
            sp.canonicalize(raw)
        with pytest.raises(ValueError):
            sp.orbit_size(raw)


@pytest.mark.parametrize("call", [
    lambda sp: sp.canonicalize((1.5, 2, 3)),        # not truncated to 1
    lambda sp: sp.representatives((2.7, 0, 0)),
    lambda sp: sp.orbit_size((1.0, 2, 3)),
    lambda sp: sp.canonicalize((True, False, True)),
    lambda sp: sp.canonicalize_many(np.ones((2, 3))),
    lambda sp: sp.canonicalize_many([]),            # no rows, no width
    lambda sp: sp.canonicalize_many((1, 2, 3)),     # one row, not a batch
    lambda sp: sp.canonicalize_many(np.ones((1, 1, 3), np.int64)),
])
def test_non_integer_or_misshapen_input_is_refused(call):
    with pytest.raises(ValueError):
        call(space((1, 2, 3), GF(7)))


@pytest.mark.parametrize("raw,message", [
    ((1, 1, 1), "(1, 1, 1) is not a tuple of 2 elements of GF(3)"),   # width
    ((1,), "(1,) is not a tuple of 2 elements of GF(3)"),
    ((3, 1), "(3, 1) is not a tuple of 2 elements of GF(3)"),   # not in GF(3)
    ((-1, 1), "(-1, 1) is not a tuple of 2 elements of GF(3)"),
    ((0, 0), "the zero tuple does not represent a point"),
])
def test_refusals_keep_the_scalar_messages(raw, message):
    # the messages of the scalar walk, for one row and for a row of a batch
    sp = space((1, 2), GF(3))
    calls = [lambda: sp.canonicalize(raw), lambda: sp.orbit_size(raw)]
    if len(raw) == 2:
        calls.append(lambda: sp.canonicalize_many([(1, 2), raw, (2, 2)]))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


# -- orbit_size against the lexsort count it replaced ----------------------------------------


def lexsort_orbit_size(sp, raw) -> int:
    """Number of distinct rational representative tuples (q - 1)."""
    reps = sp._orbit(raw)
    reps = reps[np.lexsort(reps.T)]
    return 1 + int((reps[1:] != reps[:-1]).any(axis=1).sum())


# q - 1 = 12, 15 and 3 * 5 * 17 * 257 share factors with the weights drawn
ORBIT_FIELDS = PROPERTY_FIELDS + [GF(13), GF(2, 4), GF(2, 16)]


def _divisors(n: int) -> list[int]:
    return [a for a in range(1, n + 1) if n % a == 0]


@st.composite
def orbit_cases(draw):
    fq = draw(st.sampled_from(ORBIT_FIELDS))
    npos = draw(st.integers(1, 4))
    weight = st.one_of(st.integers(1, 12),
                       st.sampled_from(_divisors(fq.q - 1)[:12]))
    ws = draw(st.lists(weight, min_size=npos, max_size=npos)
              .filter(lambda w: math.gcd(*w) == 1))
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    raw = draw(st.lists(entry, min_size=npos, max_size=npos).filter(any))
    period = draw(st.sampled_from(_divisors(fq.q - 1)))
    return fq, tuple(ws), tuple(raw), period


@settings(max_examples=300, deadline=None)
@given(orbit_cases())
def test_orbit_size_matches_lexsort_count(case):
    fq, ws, raw, period = case
    sp = space(ws, fq)
    assert sp.orbit_size(raw) == lexsort_orbit_size(sp, raw) == fq.q - 1
    # A representative array that repeats with a shorter period, as it would
    # if a scaling fixed raw: both counts give the period.
    rows = sp._orbit(raw)
    tiled = np.tile(rows[:period], ((fq.q - 1) // period, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_orbit", lambda _raw: tiled)
        assert sp.orbit_size(raw) == lexsort_orbit_size(sp, raw) == period
