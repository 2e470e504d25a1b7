"""Acceptance suite: one test per release criterion, each printing a summary
line and enforcing its stated exactness and time budget."""

import dataclasses
import re
import time
import warnings
from pathlib import Path

import pytest

from wprm import verify
from wprm.cli import main
from wprm.codes import build_code, comparison_table, lambda_display
from wprm.finite_field import GF
from wprm.plane_lines import LineSystem, PlaneLine
from wprm.verify import (suite_bounds, suite_classical_max, suite_delorme,
                         suite_family_counts, suite_lines, suite_plane_max,
                         suite_point_counts, suite_small_code_distance,
                         suite_torus)
from wprm.weighted_space import (DelormeStep, WeightedPoint,
                                 WeightedProjectiveSpace, delorme_reduce,
                                 space)

GOLDEN = Path(__file__).parent / "golden" / "f19_table.csv"


def _finish(number, label, suite_or_failures, elapsed, limit):
    if hasattr(suite_or_failures, "failures"):
        failures = suite_or_failures.failures
        checks = suite_or_failures.checks
    else:
        failures = suite_or_failures
        checks = None
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    extra = f", {checks} checks" if checks is not None else ""
    print(f"ACCEPTANCE {number} {status}: {label} "
          f"({elapsed:.1f}s of {limit}s{extra})")
    assert not failures, failures[:5]
    assert elapsed < limit, f"{elapsed:.1f}s exceeded the {limit}s budget"


def test_criterion_1_point_counts():
    t0 = time.perf_counter()
    res = suite_point_counts(qs=(2, 3, 4, 5, 7, 8, 9), max_entry=6, max_m=3)
    _finish(1, "point counts match p_m across the weight grid", res,
            time.perf_counter() - t0, 30)


@pytest.mark.parametrize("corrupt", ["duplicate", "swap"])
def test_point_counts_suite_catches_bad_point_lists(monkeypatch, corrupt):
    # Both corruptions keep the count at p_m: one repeats a point in place of
    # another, the other breaks the lex order with every point still there.
    original = WeightedProjectiveSpace.point_coords

    def point_coords(self, *args, **kwargs):
        coords = original(self, *args, **kwargs).copy()  # the cache stays
        coords[[0, 1]] = coords[[0, 0] if corrupt == "duplicate" else [1, 0]]
        return coords

    monkeypatch.setattr(WeightedProjectiveSpace, "point_coords", point_coords)
    res = suite_point_counts(qs=(3, 4), max_entry=3, max_m=2)
    assert res.checks > 0 and res.failures
    assert all("lex ascending=False" in f for f in res.failures)


def test_criterion_2_family_counts():
    t0 = time.perf_counter()
    res = suite_family_counts(qs=(3, 4, 5, 7), seed=0, min_specs=200)
    elapsed = time.perf_counter() - t0
    assert res.checks >= 200
    _finish(2, "closed-form family counts equal brute force "
               "(incl. the worked plane examples at q=5)", res, elapsed, 120)


def test_criterion_3_torus_counts():
    t0 = time.perf_counter()
    res = suite_torus(qs=(2, 3, 4, 5, 7), max_vars=4, max_exp=5, seed=0)
    _finish(3, "torus counts equal (q-1)^(s0+s1-1) for coprime exponents",
            res, time.perf_counter() - t0, 60)


def test_torus_suite_names_the_one_wrong_pair(monkeypatch):
    original = verify.torus_count

    def torus_count(a_exps, b_exps, alpha, beta, fq):
        got = original(a_exps, b_exps, alpha, beta, fq)
        if (tuple(a_exps), tuple(b_exps)) == ((1,), (2,)):
            got[(alpha == 2) & (beta == 1)] += 1
        return got

    monkeypatch.setattr(verify, "torus_count", torus_count)
    # q = 3 takes all four (alpha, beta) pairs on the three coprime
    # exponent tuples of one split.
    res = suite_torus(qs=(3,), max_vars=2, max_exp=2)
    assert res.checks == 12
    assert res.failures == ["torus q=3 exps=(1, 2) alpha=2 beta=1: 3 != 2"]


def test_criterion_4_exhaustive_maxima():
    t0 = time.perf_counter()
    res_a = suite_classical_max(qs=(2, 3), max_m=2, budget=10 ** 8)
    res_b = suite_plane_max(qs=(2, 3), max_weight=4, budget=10 ** 8)
    elapsed = time.perf_counter() - t0
    _finish(4, "exhaustive maxima match the classical and plane formulas",
            res_a.failures + res_b.failures, elapsed, 600)


def test_criterion_5_f19_table(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "f19.csv"
    rc = main(["table", "--out", str(out)])
    failures = []
    if rc != 0:
        failures.append(f"table command exited {rc}")
    if out.read_bytes() != GOLDEN.read_bytes():
        failures.append("table output differs from the golden file")
    entries = comparison_table(GF(19), 2, 16)
    triples = [e.params.triple() for e in entries]
    expected = [(361, 153, 57), (381, 153, 76), (381, 45, 228),
                (381, 25, 228), (381, 15, 228), (381, 15, 304),
                (381, 3, 361)]
    if triples != expected:
        failures.append(f"parameter triples {triples} != {expected}")
    lams = [lambda_display(e.params.lam)[:5] for e in entries]
    if lams != ["0.581", "0.601", "0.716", "0.664", "0.637", "0.837",
                "0.955"]:
        failures.append(f"lambda truncations wrong: {lams}")
    for e in entries:
        if e.params.d_min_source != "formula":
            failures.append(f"{e.label}: d_min not from the formula")
        if e.params.witness_weight != e.params.d_min:
            failures.append(f"{e.label}: witness weight "
                            f"{e.params.witness_weight} != {e.params.d_min}")
    _finish(5, "the F_19 degree-16 table reproduces byte-for-byte with "
               "witness certificates", failures, time.perf_counter() - t0, 60)


def test_criterion_6_small_code_distances():
    t0 = time.perf_counter()
    res = suite_small_code_distance(qs=(2, 3), max_a2=3)
    _finish(6, "exhaustive minimum distances equal the plane formula",
            res, time.perf_counter() - t0, 300)


def test_criterion_7_delorme_invariance():
    t0 = time.perf_counter()
    res = suite_delorme(qs=(2, 3), max_weight=4, max_b=3)
    _finish(7, "max zeros and code parameters agree across weight reductions",
            res, time.perf_counter() - t0, 600)
    assert (res.checks, res.skipped) == (1944, 0)


DELORME_SMALL = dict(qs=(2,), max_weight=3, max_b=2)


def test_delorme_budget_blowups_are_skipped_not_passed():
    tight = suite_delorme(**DELORME_SMALL, budget=1)
    full = suite_delorme(**DELORME_SMALL)
    assert (full.checks, full.skipped) == (244, 0)
    assert tight.ok and (tight.checks, tight.skipped) == (61, 61)
    # A skipped case records no check: the point-map check of each step
    # still runs, the max-zeros and code comparisons after it do not.
    assert tight.checks <= full.checks - 2 * tight.skipped
    summary = tight.summary()
    assert re.match(r"^PASS delorme: \d+ checks, 0 failures", summary)
    assert f"{tight.skipped} skipped" in summary


@pytest.mark.parametrize("run,checks,skipped", [
    # P^2 over F_4 at d = 5 covers 1.5e12 classes
    (lambda: suite_classical_max(qs=(4,)), 9, 1),
    (lambda: suite_plane_max(qs=(5,)), 8, 1),
    (lambda: suite_small_code_distance(qs=(7,), max_a2=3), 5, 2),
])
def test_max_zeros_suites_skip_a_sweep_over_budget(run, checks, skipped):
    # A sweep the budget refuses is a skip, never a check, and the suite
    # goes on to its other cases.
    res = run()
    assert res.ok and (res.checks, res.skipped) == (checks, skipped)
    assert res.summary().endswith(f", {skipped} skipped, "
                                  f"{res.elapsed:.2f}s")


# A wrong answer for one reduced space, one per kind of answer the suite
# checks: the image of the point map, whose first source point is sent to
# the image of the second, and the answers it computes once per (field,
# reduced weights).
WRONG_REDUCED = {
    "points": lambda right: right[[1] + list(range(1, len(right)))],
    "max_zeros": lambda right: dataclasses.replace(right,
                                                   value=right.value + 1),
    "code": lambda right: (right[0], right[1] + 1),
}


@pytest.mark.parametrize("answer", sorted(WRONG_REDUCED))
def test_delorme_wrong_reduced_answer_fails_every_step_onto_it(monkeypatch,
                                                               answer):
    target = (1, 1, 1)
    if answer == "points":
        owner, name, right = DelormeStep, "map_points", DelormeStep.map_points
        reduced, wrap = (lambda step: step.reduced), (lambda f: f)
    else:
        owner, name = verify._ReducedSide, answer
        right = getattr(owner, name).func
        reduced, wrap = (lambda side: side.red), property

    def answer_of(obj, *args):
        got = right(obj, *args)
        if reduced(obj).weights == target:
            return WRONG_REDUCED[answer](got)
        return got

    monkeypatch.setattr(owner, name, wrap(answer_of))
    res = suite_delorme(**DELORME_SMALL)
    onto = [step for step in verify._reduction_steps(3, 2)
            if delorme_reduce(*step).reduced.weights == target]
    assert res.checks == 244 and len(onto) == 3
    assert len(res.failures) == len(onto)
    assert all(f"P{target}" in f for f in res.failures)


def test_delorme_and_lines_suites_build_no_point_objects(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a suite built a WeightedPoint")

    monkeypatch.setattr(WeightedPoint, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a WeightedPoint"):
        WeightedPoint((1, 0, 0))
    delorme = suite_delorme(**DELORME_SMALL)
    lines = suite_lines(qs=(2, 3))
    assert delorme.ok and delorme.checks == 244
    assert lines.ok and lines.checks > 0


def test_lines_suite_reports_a_wrong_incidence(monkeypatch):
    # Line 0 (X0 = 0) loses (0:0:1), the one point it shares with each
    # vertical line, and the vertical line X1 = 0 loses (1:0:0).
    fq, ws = GF(3), (1, 2, 3)
    sp = space(ws, fq)
    coords = sp.point_coords().tolist()
    dropped = {PlaneLine(0): (0, 0, 1), PlaneLine(1, 0): (1, 0, 0)}
    right = LineSystem.line_points

    def wrong_mask(self, line):
        mask = right(self, line).copy()
        if line in dropped:
            mask[coords.index(list(dropped[line]))] = False
        return mask

    monkeypatch.setattr(LineSystem, "line_points", wrong_mask)
    res = suite_lines(qs=(3,), weight_systems=[ws])
    at = "on P(1, 2, 3)(F_3)"
    assert res.failures == [
        f"line {PlaneLine(0)} {at} has 3 points",
        f"line {PlaneLine(1, 0)} {at} has 3 points",
        f"lines {PlaneLine(0)} and {PlaneLine(1, 0)} {at} do not meet",
        f"affine point (1:0:0) {at} lies on 0 vertical and 3 non-vertical "
        f"lines",
    ]


@pytest.mark.parametrize("run,q,d,ws", [
    (lambda: suite_delorme(**DELORME_SMALL), 2, 4, (1, 2, 4)),
    (lambda: suite_small_code_distance(qs=(3,), max_a2=3), 3, 6, (1, 2, 3)),
])
def test_suites_emit_no_warning(run, q, d, ws):
    # Each suite builds the WPRM code of (q, d, ws), d > q; neither the
    # suite nor that build warns, and the suite leaves the filters as they
    # were.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        res = run()
        assert warnings.filters == filters
        build_code("wprm", GF(q), 2, d, ws)
    assert res.ok and caught == []


def test_criterion_8_bound_suites():
    t0 = time.perf_counter()
    res = suite_bounds(seed=0, per_bound=10_000)
    assert res.checks >= 5 * 10_000
    _finish(8, "no bound violated over 10^4 random polynomials per bound",
            res, time.perf_counter() - t0, 600)
