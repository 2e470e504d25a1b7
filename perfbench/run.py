"""Benchmark runner for wprm.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Each pass of a workload runs in a fresh interpreter (`passrun.py`), so every
run starts with cold library caches, with one worker process (`--jobs 1`,
WPRM_JOBS=1) and BLAS/OpenMP threads at 1.  Passes repeat while the next one
is predicted to end within `--seconds`; the end-to-end metrics are medians
over the passes.  With `--trace 1` the run makes one untraced and one traced
pass and reports the per-layer metrics of the traced one, plus the tracing
overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The run
exits with 1 and prints no result when a pass cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("search", "geometry", "verify")
TIME_LIMIT_S = 170          # a run must end well within 180 s
SETUP_SAMPLES = 4           # set-ups per run that setup_s is the median of

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

# (metric, unit, work counter, field kind or None): the work an op reports
# divided by the time of the ops that report it.
RATES = [
    ("cand_per_s.prime", "classes/s", "classes", "prime"),
    ("cand_per_s.ext", "classes/s", "classes", "ext"),
    ("points_per_s", "points/s", "points", None),
    ("evals_per_s", "evals/s", "evals", None),
    ("checks_per_s", "checks/s", "checks", None),
]

THREAD_ENV = {name: "1" for name in (
    "WPRM_JOBS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: int, deadline: float,
             setup_only: bool = False) -> dict:
    """One pass in a child interpreter; returns its parsed result."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT / f"spans-{workload}-s{seed}.npz")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("no time left for a pass")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass did not end within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def pass_metrics(result: dict) -> dict[str, float]:
    """End-to-end metrics of one pass, workload-specific rates included."""
    ops = result["ops"]
    failed = sum(not op["ok"] for op in ops)
    m = {"setup_s": result["setup_s"],
         "wall_s": sum(op["seconds"] for op in ops),
         "fail_ratio": failed / len(ops),
         "peak_rss_mib": result["peak_rss_mib"]}
    for name, _, counter, kind in RATES:
        timed = [op for op in ops if counter in op["work"]
                 and (kind is None or op["kind"] == kind)]
        if timed:
            m[name] = (sum(op["work"][counter] for op in timed)
                       / sum(op["seconds"] for op in timed))
    return m


def units() -> dict[str, str]:
    return {**END_TO_END_UNITS, "fail_ratio": "failed/attempted",
            **{name: unit for name, unit, _, _ in RATES}}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def context(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_commit": git_commit(), "seed": seed, **THREAD_ENV}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    start = time.monotonic()
    passes = []
    if trace:
        passes.append(run_pass(workload, seed, 0, deadline))
        passes.append(run_pass(workload, seed, 1, deadline))
    else:
        last = 0.0
        while not passes or time.monotonic() - start + last <= seconds:
            t = time.monotonic()
            passes.append(run_pass(workload, seed, 0, deadline))
            last = time.monotonic() - t
    # More set-up samples while they fit in the run.
    setups = [p["setup_s"] for p in passes]
    last = max(setups)
    while (not trace and len(setups) < SETUP_SAMPLES
           and time.monotonic() - start + last <= seconds):
        setups.append(run_pass(workload, seed, 0, deadline,
                               setup_only=True)["setup_s"])
    per_pass = [pass_metrics(p) for p in passes]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])
    problems = [f"{op['name']}: {msg}" for p in passes for op in p["ops"]
                for msg in op["problems"]]
    if trace:
        from spans import PER_LAYER_UNITS
        layers = dict(passes[1]["layers"], **{
            "trace.overhead_s": per_pass[1]["wall_s"] - per_pass[0]["wall_s"]})
        metrics = {k: layers[k] for k in PER_LAYER_UNITS}
        summary = per_pass[0]
    else:
        summary = {k: statistics.median(pm[k] for pm in per_pass)
                   for k in per_pass[0]}
        summary["setup_s"] = statistics.median(setups)
        metrics = {k: summary[k] for k in END_TO_END_UNITS}
    return {"workload": workload, "seed": seed, "trace": trace,
            "passes": len(passes), "attempted": attempted, "failed": failed,
            "problems": problems[:20], "summary": summary, "metrics": metrics,
            "per_pass": per_pass, "setups": setups,
            "op_seconds": {op["name"]: statistics.median(
                p["ops"][i]["seconds"] for p in passes)
                for i, op in enumerate(passes[0]["ops"])},
            "context": context(seed)}


def print_report(res: dict) -> None:
    u = units()
    w = res["workload"]
    print(f"# {w}: seed {res['seed']}, {res['passes']} pass(es), "
          f"{'traced' if res['trace'] else 'untraced'}")
    for name, value in res["summary"].items():
        print(f"{w} {name} = {value:.6g} {u[name]}")
    print(f"{w} attempted = {res['attempted']} ops, "
          f"failed = {res['failed']} ops")
    if res["trace"]:
        from spans import PER_LAYER_UNITS
        for name, value in res["metrics"].items():
            print(f"{w} {name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    for msg in res["problems"]:
        print(f"{w} FAILED {msg}")
    print(f"{w} context {json.dumps(res['context'], sort_keys=True)}")


def metric_entry(name: str, value: float) -> dict:
    from spans import PER_LAYER_UNITS
    unit = END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name]
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, str(HERE))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               deadline)
        except PassError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_report(res)
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True))
        results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = {k: metric_entry(k, v)
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": metric_entry(k, v)
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
