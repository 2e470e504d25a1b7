"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wprm import zero_sets  # noqa: E402


def _synthetic(rows):
    """rows: (name, group, start, end, parent, nested)."""
    names = sorted({r[0] for r in rows})
    groups = [next(r[1] for r in rows if r[0] == n) for n in names]
    return spans.spans_as_arrays(
        names, groups, [names.index(r[0]) for r in rows],
        [r[2] for r in rows], [r[3] for r in rows], [r[4] for r in rows],
        [r[5] for r in rows])


def test_self_times_subtract_direct_children_only():
    sp = _synthetic([
        ("op", "op", 0.0, 10.0, -1, False),
        ("a", "g", 1.0, 4.0, 0, False),
        ("b", "g", 5.0, 9.0, 0, False),
        ("c", "h", 6.0, 7.0, 2, False),
        ("d", "h", 9.5, 9.75, 0, False),
    ])
    assert np.allclose(sp["self"], [2.75, 3.0, 3.0, 1.0, 0.25])


def test_group_inclusive_time_counts_nested_spans_once():
    # b runs inside a, both of group g; c (group h) runs inside b.
    sp = _synthetic([
        ("a", "g", 0.0, 8.0, -1, False),
        ("b", "g", 1.0, 5.0, 0, True),
        ("c", "h", 2.0, 3.0, 1, False),
        ("a", "g", 10.0, 11.0, -1, False),
    ])
    incl, self_s, calls = spans.group_stats(sp, "g")
    assert incl == pytest.approx(9.0)
    assert self_s == pytest.approx(8.0)
    assert calls == 3
    assert spans.group_stats(sp, "h") == (pytest.approx(1.0),
                                          pytest.approx(1.0), 1)


def _tiny_ops(seed):
    return [workloads.eq_search_op((1, 1, 1), "3", 2),
            workloads.code_op("prm", "4", 2, 2),
            workloads.canonicalize_op((1, 2, 3), "7", seed, 0),
            workloads.points_op((1, 2, 3), "7"),
            workloads.family_op((1, 2, 3), "7", seed, 1),
            workloads.table_op("5", 4, [(1, 2, 2)]),
            workloads.verify_op(seed, ("--q", "2", "--per-bound", "50"))]


def test_traced_and_untraced_runs_give_identical_answers():
    ops = _tiny_ops(seed=3)
    plain = workloads.run_ops(ops, {})
    reference = {op.name: op.record(r["answer"])
                 for op, r in zip(ops, plain) if op.record}
    original = zero_sets.batch_zero_counts
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert zero_sets.batch_zero_counts is not original
        traced = workloads.run_ops(_tiny_ops(seed=3), reference, tracer)
    finally:
        tracer.uninstall()
    assert zero_sets.batch_zero_counts is original
    assert [r["answer"] for r in traced] == [r["answer"] for r in plain]
    assert all(r["ok"] for r in traced), [r["problems"] for r in traced]
    layers = tracer.layer_metrics()
    assert set(layers) == set(spans.PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert layers["zero_sets.kernel_calls"] > 0
    assert layers["verify.torus_s"] > 0
    assert layers["weighted_space.canonicalize_calls"] >= 2


def test_corrupted_reference_counts_as_failed_op():
    op = next(o for o in workloads.search_ops(0)
              if o.name == "code prm F3 m=3 d=2")
    reference = workloads.load_reference()["search"]
    good = workloads.run_ops([op], reference)
    assert good[0]["ok"]
    bad_ref = json.loads(json.dumps(reference))
    bad_ref[op.name]["triple"][2] += 1
    bad = workloads.run_ops([op], bad_ref)
    assert not bad[0]["ok"]
    result = {"setup_s": 0.1, "peak_rss_mib": 1.0, "ops": bad}
    assert run.pass_metrics(result)["fail_ratio"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_start_cold_and_are_recorded(name):
    ops = workloads.WORKLOADS[name](0)
    keys = [op.key for op in ops]
    assert len(keys) == len(set(keys))
    assert not any("--tuple-budget" in (op.argv or []) for op in ops)
    reference = workloads.load_reference()[name]
    assert {op.name for op in ops if op.record} == set(reference)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
