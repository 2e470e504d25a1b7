"""The benchmark's workloads: fixed instance grids, each op run the way a user
runs it (through `wprm.cli.main` where a subcommand exists), with every answer
checked outside the timed region.

An op returns `(answer, work)`: the answer is what the checks and the recorded
reference compare, the work is what the throughput metrics count (candidate
classes, points, point evaluations, suite checks).  No two ops of a workload
share a `(weights, field, degree)` key, so each op starts with cold matrix
caches; only the family ops reuse the spaces that the points ops enumerated,
so that they time evaluation alone.  No op passes `--tuple-budget`.

Library functions are looked up on their modules at call time, so a tracer
that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wprm import cli as wcli
from wprm import finite_field, verify, weighted_poly, weighted_space, zero_sets

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GOLDEN_F19 = ROOT / "tests" / "golden" / "f19_table.csv"

# Product-family pairs per space on `geometry`; the spec count per space is
# then fixed by the pair structure, whatever the seed.
FAMILY_PAIR_CAP = 4
CANON_TUPLES = 2


@dataclass
class Op:
    name: str
    field: str                       # field spec, "q" or "p^e"; "" if mixed
    key: tuple                       # (weights, field, degree) cache key
    run: Callable[[], tuple[dict, dict]]
    check: Callable[[dict, dict | None], list[str]]
    argv: list[str] | None = None    # CLI arguments, when run through the CLI
    # The seed-independent part of an answer, as stored in reference.json.
    record: Callable[[dict], dict] | None = None

    @property
    def kind(self) -> str:
        if not self.field:
            return "mixed"
        return "prime" if _field(self.field).e == 1 else "ext"


def _field(spec: str):
    return finite_field.field_from_spec(spec)


def _wtxt(ws) -> str:
    return ",".join(map(str, ws))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`wprm <argv>` in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = wcli.main(list(argv))
    return rc, buf.getvalue()


def _cli_json(argv):
    rc, out = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"wprm {' '.join(argv)} exited with {rc}")
    return json.loads(out)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _against_reference(answer: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return ["no reference answer recorded"]
    return [f"{k}: got {answer.get(k)!r}, reference {v!r}"
            for k, v in ref.items() if answer.get(k) != v]


def candidate_classes(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


# -- search --------------------------------------------------------------------------


def expected_max_zeros(ws, q: int, d: int) -> int | None:
    """Known maximum: Serre's d q^{m-1} + p_{m-2} on plain weights, the
    weighted-plane (d/a1) q + 1 on P(1, a1, a2) in its proven range."""
    m = len(ws) - 1
    if all(a == 1 for a in ws):
        return min(weighted_space.projective_count(q, m),
                   d * q ** (m - 1) + weighted_space.projective_count(q, m - 2))
    if m == 2 and ws[0] == 1 and ws[1] <= ws[2] \
            and d % math.lcm(ws[1], ws[2]) == 0 and d <= ws[1] * (q + 1):
        return (d // ws[1]) * q + 1
    return None


def eq_search_op(ws, q: str, d: int) -> Op:
    argv = ["eq-search", "--weights", _wtxt(ws), "--q", q, "--d", str(d),
            "--format", "json", "--jobs", "1"]

    def run():
        out = _cli_json(argv)
        answer = {"value": out["value"], "witness": out["witness_polynomial"],
                  "candidates": out["candidates"]}
        return answer, {"classes": out["candidates"]}

    def check(answer, ref):
        problems = _against_reference(answer, ref)
        fq = _field(q)
        want = expected_max_zeros(ws, fq.q, d)
        if want is not None and answer["value"] != want:
            problems.append(f"max zeros {answer['value']} != known {want}")
        poly = weighted_poly.parse_polynomial(answer["witness"], ws, fq)
        got = zero_sets.count_zeros(poly, weighted_space.space(ws, fq))
        if got != answer["value"]:
            problems.append(f"witness has {got} zeros, search said "
                            f"{answer['value']}")
        return problems

    return Op(f"eq-search P({_wtxt(ws)})/F{q} d={d}", q, (tuple(ws), q, d),
              run, check, argv, dict)


def code_op(kind: str, q: str, m: int, d: int, ws=None) -> Op:
    argv = ["code", "--kind", kind, "--q", q, "--m", str(m), "--d", str(d),
            "--method", "both", "--format", "json", "--jobs", "1"]
    if ws:
        argv += ["--weights", _wtxt(ws)]

    def run():
        out = _cli_json(argv)
        answer = {"triple": [out["n"], out["k"], out["d_min"]],
                  "d_min_source": out["d_min_source"]}
        return answer, {"classes": candidate_classes(_field(q).q, out["k"])}

    def check(answer, ref):
        return _against_reference(answer, ref)

    weights = tuple(ws) if ws else (1,) * (m + 1)
    label = f"({_wtxt(ws)}) " if ws else f"m={m} "
    return Op(f"code {kind} F{q} {label}d={d}", q, (weights, q, d, kind),
              run, check, argv, dict)


def search_ops(seed: int) -> list[Op]:
    """The exhaustive searches; the seed draws nothing here."""
    return [
        eq_search_op((1, 1, 1), "5", 3),
        eq_search_op((1, 2, 3), "11", 6),
        eq_search_op((1, 2, 2), "11", 4),
        code_op("wprm", "7", 2, 6, (1, 2, 3)),
        code_op("prm", "3", 3, 2),
        eq_search_op((1, 1, 1), "4", 3),
        eq_search_op((1, 1, 1), "9", 2),
        eq_search_op((1, 2, 2), "8", 4),
        code_op("rm", "8", 2, 2),
        code_op("wprm", "9", 2, 4, (1, 2, 2)),
    ]


# -- geometry ------------------------------------------------------------------------


def canonicalize_op(ws, q: str, seed: int, index: int) -> Op:
    def run():
        fq = _field(q)
        rng = np.random.default_rng([seed, index])
        raws = [tuple(int(x) for x in rng.integers(1, fq.q, size=len(ws)))
                for _ in range(CANON_TUPLES)]
        canon = [weighted_space.canonicalize(ws, fq, r).coords for r in raws]
        orbits = [weighted_space.orbit_size(ws, fq, r) for r in raws]
        return {"raw": raws, "canon": canon, "orbits": orbits}, {}

    def check(answer, ref):
        fq = _field(q)
        problems = []
        for raw, canon, orbit in zip(answer["raw"], answer["canon"],
                                     answer["orbits"]):
            if orbit != fq.q - 1:
                problems.append(f"orbit of {raw} has {orbit} tuples, "
                                f"not q-1 = {fq.q - 1}")
            again = weighted_space.canonicalize(ws, fq, canon).coords
            if again != canon:
                problems.append(f"canonicalize is not idempotent on {canon}")
            if [c != 0 for c in canon] != [c != 0 for c in raw]:
                problems.append(f"{canon} has another support than {raw}")
        return problems

    return Op(f"canonicalize P({_wtxt(ws)})/F{q}", q, (tuple(ws), q, None),
              run, check)


def points_op(ws, q: str) -> Op:
    argv = ["points", "--weights", _wtxt(ws), "--q", q, "--format", "csv"]

    def run():
        rc, out = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"wprm {' '.join(argv)} exited with {rc}")
        rows = out.count("\n") - 1
        return {"sha256": _sha(out), "rows": rows}, {"points": rows}

    def check(answer, ref):
        problems = _against_reference(answer, ref)
        want = weighted_space.projective_count(_field(q).q, len(ws) - 1)
        if answer["rows"] != want:
            problems.append(f"{answer['rows']} points, p_m = {want}")
        return problems

    return Op(f"points P({_wtxt(ws)})/F{q}", q, (tuple(ws), q, None),
              run, check, argv, dict)


def family_op(ws, q: str, seed: int, index: int) -> Op:
    """Product-family zero counts on a space the points op enumerated."""
    def run():
        fq = _field(q)
        w = weighted_space.as_weights(ws)
        sp = weighted_space.space(w, fq)
        rng = np.random.default_rng([seed, index])
        specs = verify.generate_family_specs(w, fq, rng,
                                             pair_cap=FAMILY_PAIR_CAP)
        counts = []
        for spec in specs:
            poly = zero_sets.build_family(spec, w, fq)
            counts.append((zero_sets.count_zeros(poly, sp),
                           zero_sets.family_zero_count(spec, w, fq.q)))
        n = sp.point_coords().shape[0]
        return ({"specs": len(specs), "counts": counts},
                {"evals": len(specs) * n})

    def check(answer, ref):
        problems = _against_reference({"specs": answer["specs"]}, ref)
        for i, (got, want) in enumerate(answer["counts"]):
            if got != want:
                problems.append(f"spec #{i}: counted {got} zeros, closed "
                                f"form {want}")
        return problems

    return Op(f"family P({_wtxt(ws)})/F{q}", q, (tuple(ws), q, "family"),
              run, check, record=lambda a: {"specs": a["specs"]})


def _table_triples(text: str) -> list[list]:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [[r[0], r[1], int(r[4]), int(r[5]), int(r[6])] for r in rows]


def table_op(q: str | None, d: int | None, weights=()) -> Op:
    argv = ["table"]
    if q is not None:
        argv += ["--q", q, "--d", str(d)]
    for ws in weights:
        argv += ["--weights", _wtxt(ws)]

    def run():
        rc, out = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"wprm {' '.join(argv)} exited with {rc}")
        return ({"sha256": _sha(out), "triples": _table_triples(out),
                 "csv": out}, {})

    def check(answer, ref):
        problems = _against_reference(
            {k: answer[k] for k in ("sha256", "triples")}, ref)
        if q is None and answer["csv"].encode() != GOLDEN_F19.read_bytes():
            problems.append(f"F19 table differs from {GOLDEN_F19.name}")
        return problems

    field = q or "19"
    return Op(f"table F{field} d={d or 16}", field, ("table", field, d or 16),
              run, check, argv,
              lambda a: {"sha256": a["sha256"], "triples": a["triples"]})


GEOMETRY_POINTS = [((1, 2, 3), "64"), ((1, 2, 3), "81"), ((1, 2, 3), "101"),
                   ((1, 1, 2, 3), "16"), ((1, 1, 2, 3), "17"),
                   ((2, 3, 5), "49")]


def geometry_ops(seed: int) -> list[Op]:
    """Large-q geometry with the sweep kernel idle."""
    ops = [canonicalize_op((1, 2, 3), "2^16", seed, 0),
           canonicalize_op((1, 2, 3), "3^10", seed, 1)]
    ops += [points_op(ws, q) for ws, q in GEOMETRY_POINTS]
    ops += [family_op(ws, q, seed, 2 + i)
            for i, (ws, q) in enumerate(GEOMETRY_POINTS)]
    ops += [table_op(None, None),
            table_op("16", 8, [(1, 2, 2), (1, 2, 4), (1, 2, 8), (1, 4, 4)]),
            table_op("25", 16),
            table_op("31", 16)]
    return ops


# -- verify ----------------------------------------------------------------------------


_SUMMARY = re.compile(r"^(PASS|FAIL) (\S+): (\d+) checks, (\d+) failures")


def _suite_checks(answer: dict) -> dict:
    """Checks per suite; the suite grids, and so these counts, do not depend
    on the seed."""
    return {name: s["checks"] for name, s in answer["suites"].items()}


def verify_op(seed: int, extra: tuple[str, ...]) -> Op:
    argv = ["verify", "--suite", "all", "--seed", str(seed), *extra]

    def run():
        rc, out = run_cli(argv)
        suites = {}
        for line in out.splitlines():
            m = _SUMMARY.match(line)
            if m:
                suites[m[2]] = {"status": m[1], "checks": int(m[3]),
                                "failures": int(m[4])}
        answer = {"rc": rc, "suites": suites}
        return answer, {"checks": sum(s["checks"] for s in suites.values())}

    def check(answer, ref):
        problems = _against_reference(_suite_checks(answer), ref)
        if answer["rc"] != 0:
            problems.append(f"wprm verify exited with {answer['rc']}")
        if len(answer["suites"]) != len(verify.SUITES):
            problems.append(f"{len(answer['suites'])} suite summaries, "
                            f"expected {len(verify.SUITES)}")
        for name, s in answer["suites"].items():
            if s["status"] != "PASS" or s["failures"]:
                problems.append(f"suite {name}: {s['failures']} failures")
        return problems

    return Op(" ".join(["verify", *argv[1:3], *extra]), "",
              ("verify", seed, None), run, check, argv, _suite_checks)


def verify_ops(seed: int) -> list[Op]:
    """All nine verification suites in one `wprm verify` call; the bounds
    suite draws 2000 polynomials per bound instead of 10000, so that two
    passes fit in a run."""
    return [verify_op(seed, ("--per-bound", "2000"))]


WORKLOADS = {"search": search_ops, "geometry": geometry_ops,
             "verify": verify_ops}

VERIFY_FIELDS = ("2", "3", "4", "5", "7", "8", "9")


def setup_fields(ops: list[Op]) -> list[str]:
    """Every field the workload uses; set-up builds them before the first op."""
    specs = [op.field for op in ops if op.field]
    if any(not op.field for op in ops):
        specs += VERIFY_FIELDS
    return list(dict.fromkeys(specs))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- running ops -------------------------------------------------------------------------


def run_ops(ops: list[Op], reference: dict, tracer=None) -> list[dict]:
    """Time each op, then check its answer with tracing paused.

    An op that raises or fails a check is recorded as failed; the run goes on.
    """
    results = []
    for op in ops:
        span = tracer.open(f"op:{op.name}", "op") if tracer else None
        t0 = time.perf_counter()
        try:
            answer, work = op.run()
            problems = []
        except Exception as exc:  # the op failed; record it and go on
            answer, work = None, {}
            problems = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
            tracer.enabled = False
        try:
            if answer is not None:
                problems = op.check(answer, reference.get(op.name))
        except Exception as exc:  # a check that raises is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer:
                tracer.enabled = True
        results.append({"name": op.name, "kind": op.kind, "seconds": seconds,
                        "work": work, "ok": not problems,
                        "problems": problems[:5], "answer": answer})
    return results
