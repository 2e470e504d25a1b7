"""Differential tests for the table-split sweep kernel: `_scan_lead_range`
and `_max_zeros_sweep` against a plain loop over `batch_zero_counts`, which
evaluates every candidate row in full."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wprm.zero_sets as zs
from wprm.finite_field import GF
from wprm.weighted_poly import monomial_basis
from reference import torus_sweep_plan

FIELDS = [GF(2), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]


def low_table(V, fq):
    """The full low table of L = _low_width digits."""
    k, n = V.shape
    T = np.zeros((n, 1), dtype=np.uint8)
    for w in range(1, zs._low_width(fq.q, k, n) + 1):
        T = zs._extend_table(T, V[k - w], fq)
    return T


def reference_scan(fq, V, lead, lo, hi, stop_at):
    """(best, first tail attaining it) over tails [lo, hi), up to the first
    tail whose count reaches stop_at."""
    k = V.shape[0]
    tails = np.arange(lo, hi, dtype=np.int64)
    if not len(tails):
        return -1, -1
    C = np.zeros((len(tails), k), dtype=np.int64)
    C[:, lead] = 1
    for j in range(k - 1, lead, -1):
        C[:, j] = (tails // fq.q ** (k - 1 - j)) % fq.q
    z = zs.batch_zero_counts(C, V, fq)
    if stop_at is not None and (z >= stop_at).any():
        i = int(np.argmax(z >= stop_at))
    else:
        i = int(np.argmax(z))
    return int(z[i]), int(tails[i])


def reference_sweep(fq, V, stop_at):
    k = V.shape[0]
    best, where = -1, (-1, -1)
    for lead in range(k - 1, -1, -1):
        b, t = reference_scan(fq, V, lead, 0, fq.q ** (k - 1 - lead), stop_at)
        if b > best:
            best, where = b, (lead, t)
            if stop_at is not None and best >= stop_at:
                break
    return best, where


@st.composite
def sweep_cases(draw):
    fq = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 5 if fq.q <= 5 else 4))
    n = draw(st.integers(0, 10))
    entry = st.one_of(st.just(0), st.integers(0, fq.q - 1))
    V = np.array(draw(st.lists(entry, min_size=k * n, max_size=k * n)),
                 dtype=np.int64).reshape(k, n)
    if n and draw(st.booleans()):
        V[:, draw(st.integers(0, n - 1))] = 0  # a point where all vanish
    stop_at = draw(st.sampled_from([None, n, n - 1, 1]))
    block = draw(st.sampled_from([1, 2, 7, 64, 1 << 14]))
    # The table-cell limit picks the low width L: 1 forces L = 0 (no low
    # part), q^2 * n gives L <= 2, the module default gives L = k - 1 here.
    cells = draw(st.sampled_from([1, fq.q ** 2 * max(n, 1),
                                  zs._TABLE_CELLS]))
    return fq, V, stop_at, block, cells


@settings(max_examples=200, deadline=None)
@given(sweep_cases(), st.data())
def test_scan_lead_range_matches_reference(case, data):
    fq, V, stop_at, block, cells = case
    k, n = V.shape
    lead = data.draw(st.integers(0, k - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zs, "_TABLE_CELLS", cells)
        T = low_table(V, fq)
    cols = min(T.shape[1], fq.q ** (k - 1 - lead))
    high_count = fq.q ** (k - 1 - lead) // cols
    lo = data.draw(st.integers(0, high_count))
    hi = data.draw(st.integers(lo, high_count))
    # The scan takes a count; None asks the reference for the plain maximum.
    scan_stop = n if stop_at is None else stop_at
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zs, "_BLOCK", block)
        for a, b in ((0, high_count), (lo, hi)):
            highs = np.arange(a, b, dtype=np.int64)
            assert zs._scan_lead_range(fq, V, T, lead, highs, scan_stop) \
                == reference_scan(fq, V, lead, a * cols, b * cols, stop_at)


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_max_zeros_sweep_matches_reference(case):
    fq, V, stop_at, block, cells = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zs, "_TABLE_CELLS", cells)
        mp.setattr(zs, "_BLOCK", block)
        best, where, total, visited = zs._max_zeros_sweep(
            V, fq, stop_at=stop_at, jobs=1)
    assert (best, where) == reference_sweep(fq, V, stop_at)
    assert visited == total == (fq.q ** V.shape[0] - 1) // (fq.q - 1)


def test_low_table_layout():
    # Column t of the table is the codeword of the low part whose base-q
    # digits are t, and its first q^w columns serve the shorter tails.
    fq = GF(3, 2)
    rng = np.random.default_rng(7)
    V = rng.integers(0, fq.q, size=(4, 5))
    T = low_table(V, fq)
    L = zs._low_width(fq.q, *V.shape)
    assert L == 3 and T.shape == (5, fq.q ** L) and T.dtype == np.uint8
    for t in (0, 1, 8, 9, 80, fq.q ** L - 1):
        digits = [(t // fq.q ** (L - 1 - j)) % fq.q for j in range(L)]
        assert list(T[:, t]) == list(fq.matmul(digits, V[4 - L:]))


def test_low_width_respects_table_cells(monkeypatch):
    assert zs._low_width(5, 10, 31) == 5       # 5^5 * 31 <= 2^18 < 5^6 * 31
    assert zs._low_width(5, 3, 31) == 2        # never the whole vector
    monkeypatch.setattr(zs, "_TABLE_CELLS", 1)
    assert zs._low_width(5, 10, 31) == 0


def test_scan_block_memory_is_bounded_by_cells(monkeypatch):
    # `eq-search --weights 1,1,1 --q 101 --d 2` has no low digits (L = 0), so
    # a block of 2^14 high parts would hold a (16384, 10303) int64 product;
    # the block is capped by compare cells, and the answer does not move.
    # The sweep plan keeps 2 high parts of lead 1, so the scan takes the
    # lead's torus-only high parts to reach the cap.
    fq, ws, d = GF(101), (1, 1, 1), 2
    V = zs.monomial_matrix(ws, fq, d)
    k, n = V.shape
    L = zs._low_width(fq.q, k, n)
    basis = tuple(monomial_basis(ws, d))
    assert len(zs._canonical_highs(
        zs._sweep_plan(k, L, fq, basis).leads[1], fq)) == 2
    lead = torus_sweep_plan(k, L, fq, basis).leads[1]
    highs = zs._canonical_highs(lead, fq)
    assert (n, L, len(highs)) == (10303, 0, 10412)
    T = np.zeros((n, 1), dtype=np.uint8)
    tracemalloc.start()
    try:
        got = zs._scan_lead_range(fq, V, T, 1, highs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    monkeypatch.setattr(zs, "_BLOCK", 64)
    assert got == zs._scan_lead_range(fq, V, T, 1, highs, n)
