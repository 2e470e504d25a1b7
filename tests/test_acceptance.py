"""Acceptance suite: one test per release criterion, each printing a summary
line and enforcing its stated exactness and time budget."""

import re
import time
from pathlib import Path

from wprm.cli import main
from wprm.codes import comparison_table, lambda_display
from wprm.finite_field import GF
from wprm.verify import (suite_bounds, suite_classical_max, suite_delorme,
                         suite_family_counts, suite_plane_max,
                         suite_point_counts, suite_small_code_distance,
                         suite_torus)

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


def test_delorme_budget_blowups_are_skipped_not_passed():
    tight = suite_delorme(qs=(2,), max_weight=3, max_b=2, budget=1)
    full = suite_delorme(qs=(2,), max_weight=3, max_b=2)
    assert full.skipped == 0
    assert tight.ok and tight.skipped > 0
    # A skipped case records no check: the point-map check of each step
    # still runs, the max-zeros and code comparisons after it do not.
    assert tight.checks <= full.checks - 2 * tight.skipped
    summary = tight.summary()
    assert re.match(r"^PASS delorme: \d+ checks, 0 failures", summary)
    assert f"{tight.skipped} skipped" in summary


def test_criterion_8_bound_suites():
    t0 = time.perf_counter()
    res = suite_bounds(seed=0, per_bound=10_000)
    assert res.checks >= 5 * 10_000
    _finish(8, "no bound violated over 10^4 random polynomials per bound",
            res, time.perf_counter() - t0, 600)
