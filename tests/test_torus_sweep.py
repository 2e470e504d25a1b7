"""The torus-class sweep: the stabiliser-chain builder against brute-force
orbit minima, and `_max_zeros_sweep` with the basis exponents (one tail per
torus class of high parts) against the plain sweep that visits every tail."""

import contextlib
import io
import itertools
import json
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wprm.zero_sets as zs
from wprm import cli, verify
from wprm.finite_field import GF
from wprm.verify import _plane_pairs, _reduction_steps
from wprm.weighted_space import BudgetExceeded, space, stabiliser_chain
from wprm.weighted_poly import monomial_basis

CHAIN_FIELDS = [GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]
SWEEP_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]


# -- the chain builder ----------------------------------------------------------------


def chain_canonical(chain, field, logs):
    """Walk the chain: the canonical values of unit logs, one link at a time."""
    n1 = field.q - 1
    shift = [0] * len(logs)
    out = []
    for j, link in enumerate(chain):
        lx = (logs[j] + shift[j]) % n1
        r = lx % link.width
        out.append(int(link.minima[r]))
        s = (int(link.min_log[r]) - lx) // link.width
        shift = [a + s * b for a, b in zip(shift, link.move)]
    return tuple(out)


def brute_minima(gens, field):
    """(lex-least values of every orbit's tuples of units, per tuple of logs)
    over the whole group the rows of gens generate, for all unit tuples."""
    n1 = field.q - 1
    G = np.array(gens, dtype=np.int64)  # (rows, cols)
    r, s = G.shape
    taus = np.array(list(itertools.product(range(n1), repeat=r)),
                    dtype=np.int64).reshape(-1, r)
    shifts = taus @ G % n1                               # (|group|, s)
    logs = np.array(list(itertools.product(range(n1), repeat=s)),
                    dtype=np.int64).reshape(-1, s)
    values = field.exp_table[(logs[:, None, :] + shifts[None]) % n1]
    keys = values @ field.q ** np.arange(s - 1, -1, -1, dtype=np.int64)
    return logs, keys.min(axis=1)


def key_of(values, q):
    return sum(v * q ** (len(values) - 1 - j) for j, v in enumerate(values))


@st.composite
def character_matrices(draw):
    field = draw(st.sampled_from(CHAIN_FIELDS))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4 if field.q <= 5 else 3))
    entry = st.integers(-2 * field.q, 2 * field.q)
    gens = tuple(tuple(draw(st.lists(entry, min_size=cols, max_size=cols)))
                 for _ in range(rows))
    return field, gens


@settings(max_examples=150, deadline=None)
@given(character_matrices())
def test_chain_matches_brute_force_orbit_minima(case):
    field, gens = case
    chain = stabiliser_chain(gens, field)
    assert len(chain) == len(gens[0])
    logs, minima = brute_minima(gens, field)
    # The chain's walk lands on the orbit minimum of every tuple ...
    for row, want in zip(logs.tolist(), minima.tolist()):
        assert key_of(chain_canonical(chain, field, row), field.q) == want
    # ... and the orbit minima are the product of the links' coset minima.
    product = {key_of(t, field.q)
               for t in itertools.product(*(l.minima.tolist() for l in chain))}
    assert product == set(minima.tolist())
    assert math.prod(l.width for l in chain) == len(product)
    q1 = field.q - 1
    for j, link in enumerate(chain):
        assert q1 % link.width == 0
        assert link.move[j] % q1 == link.width % q1
        assert not any(link.move[:j])  # it fixes the earlier coordinates


@pytest.mark.parametrize("field", CHAIN_FIELDS + [GF(2), GF(11), GF(2, 4)])
def test_one_generator_gives_the_cyclic_chain(field):
    # One row, the scalings of a support: width g_j = gcd(L_j c_j, q - 1),
    # with stride L_{j+1} = L_j (q - 1)/g_j, as point enumeration needs.
    n1 = field.q - 1
    rng = np.random.default_rng(field.q)
    for _ in range(40):
        row = tuple(int(x) for x in rng.integers(0, 3 * field.q, size=4))
        stride, widths = 1, []
        for c in row:
            widths.append(math.gcd(stride * c % n1, n1))
            stride *= n1 // widths[-1]
        assert [l.width for l in stabiliser_chain((row,), field)] == widths


# -- the torus sweep against the plain sweep ----------------------------------------------


def both_sweeps(ws, fq, d, *, affine=False, stop_at="n", jobs=1):
    """(torus, plain) results of `_max_zeros_sweep` on S_d of P(ws)(F_q);
    they agree on their first three entries, not on the tails visited."""
    V = zs.monomial_matrix(ws, fq, d)
    if affine:
        V = V[:, space(ws, fq).point_coords()[:, 0] != 0]
    stop_at = V.shape[1] if stop_at == "n" else stop_at
    basis = monomial_basis(ws, d)
    torus = zs._max_zeros_sweep(V, fq, exponents=basis, stop_at=stop_at,
                                jobs=jobs)
    plain = zs._max_zeros_sweep(V, fq, stop_at=stop_at, jobs=jobs)
    return torus, plain


def classical_grid():
    for q in (2, 3, 4, 5):
        for m in (1, 2):
            for d in range(1, q + 2):
                yield (1,) * (m + 1), q, d


def plane_grid():
    for q in (2, 3, 4, 5):
        for a1, a2 in _plane_pairs(4):
            for d in range(a1 * a2, a1 * (q + 1) + 1, a1 * a2):
                yield (1, a1, a2), q, d


def delorme_grid():
    for q in (2, 3):
        for source, i, b in _reduction_steps(4, 3):
            red = tuple(a if j == i else a // b for j, a in enumerate(source))
            k = math.lcm(*red)
            if monomial_basis(red, k):
                yield red, q, k
                yield source, q, k * b


def _field(q):
    return {4: GF(2, 2), 8: GF(2, 3), 9: GF(3, 2)}.get(q) or GF(q)


@pytest.mark.parametrize("grid", [classical_grid, plane_grid, delorme_grid])
def test_torus_sweep_matches_plain_sweep_on_verify_grids(grid):
    # The verify grids are at q <= 3; q = 4, 5 add sweeps the plain sweep
    # can check in time, up to 2.5 M classes.
    cases = sorted(set(grid()))
    assert cases
    for ws, q, d in cases:
        k = len(monomial_basis(ws, d))
        if (q ** k - 1) // (q - 1) > 25 * 10 ** 5:
            continue
        fq = _field(q)
        torus, plain = both_sweeps(ws, fq, d)
        assert torus[:3] == plain[:3], (ws, q, d)
        got = zs.max_zeros(ws, fq, d)
        assert (got.value, got.candidates) == (plain[0], plain[2])
        assert got.witness == zs.WeightedPolynomial.from_coefficients(
            ws, fq, d, monomial_basis(ws, d),
            zs.coeffs_at(q, len(monomial_basis(ws, d)), *plain[1]))


@pytest.mark.parametrize("ws,q,d", [((1, 1, 1), 4, 3), ((1, 1, 2), 5, 4),
                                    ((1, 2, 3), 7, 6), ((1, 1, 1), 9, 2)])
def test_affine_torus_sweep_matches_plain_sweep(ws, q, d):
    torus, plain = both_sweeps(ws, _field(q), d, affine=True)
    assert torus[:3] == plain[:3]


WEIGHTS = [(1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 2),
           (1, 1, 1, 1), (1, 1, 1, 2)]


@st.composite
def torus_cases(draw):
    fq = draw(st.sampled_from(SWEEP_FIELDS))
    ws = draw(st.sampled_from(WEIGHTS))
    d = draw(st.integers(1, 6))
    k = len(monomial_basis(ws, d))
    assume(0 < k and fq.q ** k <= 2 * 10 ** 5)
    cells = draw(st.sampled_from([1, fq.q * 64, fq.q ** 2 * 64,
                                  zs._TABLE_CELLS]))
    block = draw(st.sampled_from([1, 7, 64, 1 << 14]))
    return fq, ws, d, cells, block


@settings(max_examples=120, deadline=None)
@given(torus_cases(), st.data())
def test_torus_sweep_matches_plain_sweep_property(case, data):
    fq, ws, d, cells, block = case
    V = zs.monomial_matrix(ws, fq, d)
    n = V.shape[1]
    stop_at = data.draw(st.sampled_from([None, n, n - 1, 1])
                        | st.integers(0, n + 1))
    basis = monomial_basis(ws, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zs, "_TABLE_CELLS", cells)
        mp.setattr(zs, "_BLOCK", block)
        torus = zs._max_zeros_sweep(V, fq, exponents=basis, stop_at=stop_at,
                                    jobs=1)
        plain = zs._max_zeros_sweep(V, fq, stop_at=stop_at, jobs=1)
        k = V.shape[0]
        L = zs._low_width(fq.q, k, n)
        plan = zs._sweep_plan(k, L, fq, tuple(basis))
        floor = zs._visited_floor(k, L, fq.q, tuple(basis))
    assert torus[:3] == plain[:3]
    assert floor <= torus[3] == plan.visited <= plain[2] == plain[3]


def lead_tails(highs, cols):
    """The tails whose high part is in highs, ascending when highs is."""
    return (highs[:, None] * cols + np.arange(cols)).ravel()


def masked_reference(fq, V, lead, stop_at, cols, highs):
    """(best, first tail) over the tails whose high part is in highs, every
    candidate evaluated in full."""
    k = V.shape[0]
    tails = lead_tails(highs, cols)
    if not len(tails):
        return -1, -1
    C = np.zeros((len(tails), k), dtype=np.int64)
    C[:, lead] = 1
    for j in range(k - 1, lead, -1):
        C[:, j] = (tails // fq.q ** (k - 1 - j)) % fq.q
    z = zs.batch_zero_counts(C, V, fq)
    hit = z >= stop_at
    i = int(np.argmax(hit)) if hit.any() else int(np.argmax(z))
    return int(z[i]), int(tails[i])


@settings(max_examples=120, deadline=None)
@given(torus_cases(), st.data())
def test_scan_of_visited_high_parts_on_random_tail_ranges(case, data):
    fq, ws, d, cells, block = case
    V = zs.monomial_matrix(ws, fq, d)
    k, n = V.shape
    basis = tuple(monomial_basis(ws, d))
    stop_at = data.draw(st.sampled_from([n, n - 1, 1]))
    with pytest.MonkeyPatch.context() as mp:
        # at most two low digits, so that most leads have high digits
        mp.setattr(zs, "_TABLE_CELLS", min(cells, fq.q ** 2 * 64))
        mp.setattr(zs, "_BLOCK", block)
        L = zs._low_width(fq.q, k, n)
        lead = data.draw(st.integers(0, k - 1))
        lp = zs._sweep_plan(k, L, fq, basis).leads[lead]
        assume(lp.widths is not None)
        highs = zs._canonical_highs(lp, fq)
        assert len(highs) * lp.cols == lp.visited
        assert (np.diff(highs) > 0).all()  # sorted, no repeats
        T = np.zeros((n, 1), dtype=np.uint8)
        for w in range(1, min(L, k - 1 - lead) + 1):
            T = zs._extend_table(T, V[k - w], fq)
        # any consecutive slice of the high parts, as a parallel chunk is
        a = data.draw(st.integers(0, len(highs)))
        b = data.draw(st.integers(a, len(highs)))
        got = zs._scan_lead_range(fq, V, T, lead, highs[a:b], stop_at)
        assert got == masked_reference(fq, V, lead, stop_at, lp.cols,
                                       highs[a:b])
        # over the whole lead, the visited tails find what every tail finds
        every = np.arange(fq.q ** lp.hw, dtype=np.int64)
        assert zs._scan_lead_range(fq, V, T, lead, highs, stop_at) \
            == zs._scan_lead_range(fq, V, T, lead, every, stop_at)


# -- parallel sweeps, counts and the budget -------------------------------------------------


def test_parallel_torus_sweep_matches_serial(monkeypatch):
    cases = [((1, 1, 1), GF(5), 3), ((1, 2, 3), GF(7), 6),
             ((1, 1, 2), GF(2, 2), 4), ((1, 1, 1), GF(3, 2), 2)]
    monkeypatch.setattr(zs, "_TABLE_CELLS", 1 << 10)  # more high digits
    serial = [zs.max_zeros(ws, fq, d, jobs=1) for ws, fq, d in cases]
    early = [both_sweeps(ws, fq, d, stop_at=r.value)
             for (ws, fq, d), r in zip(cases, serial)]
    monkeypatch.setattr(zs, "_PARALLEL_MIN", 4)
    for (ws, fq, d), want, stops in zip(cases, serial, early):
        got = zs.max_zeros(ws, fq, d, jobs=2)
        assert got == want
        assert both_sweeps(ws, fq, d, stop_at=want.value, jobs=2) == stops


def eq_search_json(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["eq-search", *args, "--format", "json"]) == 0
    return json.loads(buf.getvalue())


def test_eq_search_json_identical_at_any_jobs(monkeypatch):
    monkeypatch.setattr(zs, "_PARALLEL_MIN", 4)
    args = ["--weights", "1,2,3", "--q", "7", "--d", "6"]
    one = eq_search_json(*args, "--jobs", "1")
    two = eq_search_json(*args, "--jobs", "2")
    assert one == two
    assert one["candidates"] == (7 ** 7 - 1) // 6
    assert 0 < one["visited"] < one["candidates"]


@pytest.mark.parametrize("ws,q,d", [((1, 1, 1), 5, 3), ((1, 2, 3), 11, 6),
                                    ((1, 2, 2), 8, 4), ((1, 1, 1, 1), 3, 2),
                                    ((1, 1, 1), 2, 2), ((1, 1, 1), 9, 2)])
def test_visited_counts_the_tails_scanned(monkeypatch, ws, q, d):
    scanned = []
    scan = zs._scan_lead_range

    def recording(field, V, T, lead, highs, stop_at):
        cols = min(T.shape[1], field.q ** (V.shape[0] - 1 - lead))
        scanned.extend((lead, t) for t in lead_tails(highs, cols).tolist())
        return scan(field, V, T, lead, highs, stop_at)

    monkeypatch.setattr(zs, "_scan_lead_range", recording)
    fq = _field(q)
    got = zs.max_zeros(ws, fq, d, jobs=1)
    assert got.value < space(ws, fq).expected_point_count  # a full sweep
    assert len(set(scanned)) == len(scanned) == got.visited
    # over GF(2) the torus is trivial; elsewhere these sweeps have high digits
    assert (got.visited == got.candidates) == (q == 2)


def test_budget_bounds_the_visited_tails():
    fq, ws, d = GF(11), (1, 2, 3), 6
    res = zs.max_zeros(ws, fq, d, budget=46718)
    assert (res.candidates, res.visited) == (1948717, 46718)
    with pytest.raises(BudgetExceeded,
                       match="1948717 classes in 46718 visited tails"):
        zs.max_zeros(ws, fq, d, budget=46717)
    # a sweep far over the budget is refused from sizes alone
    with pytest.raises(BudgetExceeded, match="at least"):
        zs.max_zeros((1, 1, 1), GF(3), 9, budget=1000)


def test_sweep_without_exponents_visits_every_tail():
    # Without exponents there is no torus to use: every lead scans all of
    # its q^hw high parts, so the sweep visits every tail.
    plan = zs._sweep_plan(6, zs._low_width(3, 6, 13), GF(3), None)
    assert plan.visited == (3 ** 6 - 1) // 2
    for lp in plan.leads:
        assert lp.widths is None and lp.visited == lp.cols * 3 ** lp.hw
        assert np.array_equal(zs._canonical_highs(lp, GF(3)),
                              np.arange(3 ** lp.hw))


# -- high parts from the width rows against the chain product they replaced ------------


class ChainLead(NamedTuple):
    hw: int
    chains: tuple  # (positions, chain) per high support


def chain_lead(plan_args, lead: int) -> ChainLead:
    """The chains the sweep plan of one leading position used to keep."""
    k, L, field, exponents = plan_args
    n1 = field.q - 1
    hw = zs._lead_shape(field.q, k, L, lead)[1]
    alpha = exponents[lead]
    chars = [[(b - a) % n1 for b, a in zip(exponents[lead + 1 + p], alpha)]
             for p in range(hw)]
    chains = []
    for mask in range(1 << hw):
        positions = tuple(p for p in range(hw) if mask >> p & 1)
        chain = stabiliser_chain(
            tuple(zip(*(chars[p] for p in positions))), field)
        chains.append((positions, chain))
    return ChainLead(hw, tuple(chains))


def chain_canonical_highs(plan, q: int) -> np.ndarray:
    """The high parts a lead visits, ascending: all q^hw of them for a lead
    without a torus plan, else per support the Cartesian product of its
    links' coset minima, the first digit most significant."""
    if plan.chains is None:
        return np.arange(q ** plan.hw, dtype=np.int64)
    parts = []
    for positions, chain in plan.chains:
        h = np.zeros(1, dtype=np.int64)
        for p, link in zip(positions, chain):
            h = (h[:, None] + link.minima * q ** (plan.hw - 1 - p)).ravel()
        parts.append(h)
    return np.sort(np.concatenate(parts))


# The sweeps of the perfbench search workload, as `wprm` arguments.
SEARCH_ARGV = [
    ["eq-search", "--weights", "1,1,1", "--q", "5", "--d", "3"],
    ["eq-search", "--weights", "1,2,3", "--q", "11", "--d", "6"],
    ["eq-search", "--weights", "1,2,2", "--q", "11", "--d", "4"],
    ["code", "--kind", "wprm", "--q", "7", "--m", "2", "--d", "6",
     "--weights", "1,2,3", "--method", "both"],
    ["code", "--kind", "prm", "--q", "3", "--m", "3", "--d", "2",
     "--method", "both"],
    ["eq-search", "--weights", "1,1,1", "--q", "4", "--d", "3"],
    ["eq-search", "--weights", "1,1,1", "--q", "9", "--d", "2"],
    ["eq-search", "--weights", "1,2,2", "--q", "8", "--d", "4"],
    ["code", "--kind", "rm", "--q", "8", "--m", "2", "--d", "2",
     "--method", "both"],
    ["code", "--kind", "wprm", "--q", "9", "--m", "2", "--d", "4",
     "--weights", "1,2,2", "--method", "both"],
]


def test_high_parts_match_the_chain_product_on_verify_and_search_plans(
        monkeypatch):
    plans = set()
    real = zs._sweep_plan

    def recording(*args):
        plans.add(args)
        return real(*args)

    monkeypatch.setattr(zs, "_sweep_plan", recording)
    for suite in ("classical-max", "plane-max", "delorme", "code-distance"):
        assert verify.SUITES[suite]().ok
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in SEARCH_ARGV:
            assert cli.main([*argv, "--format", "json", "--jobs", "1"]) == 0
    torus = [args for args in plans if args[3] is not None]
    leads = 0  # most verify sweeps have no high digits past their low table
    for args in torus:
        for lead, lp in enumerate(real(*args).leads):
            if lp.widths is None:
                continue
            want = chain_canonical_highs(chain_lead(args, lead), args[2].q)
            got = zs._canonical_highs(lp, args[2])
            assert got.dtype == want.dtype and \
                got.tobytes() == want.tobytes(), (args, lead)
            leads += 1
    assert len(torus) > 100 and leads > 50
