"""One pass of a workload in a fresh interpreter: import, build the fields,
run every op once, check the answers, print one JSON line.

    python3 perfbench/passrun.py --workload search --seed 1 --trace 0 --t0 <epoch>

`--t0` is the wall-clock time at which the caller started this interpreter;
`setup_s` runs from it to the first timed op.  `run.py` starts passes; run
this file by hand only to look at a single pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; only setup_s is measured")
    ap.add_argument("--spans-out", default=None,
                    help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.time()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import wprm
    except ImportError as exc:
        print(f"cannot import wprm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(wprm.__file__).resolve().parents:
        print(f"wprm comes from {wprm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import spans
    import workloads
    from wprm import finite_field

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    reference = workloads.load_reference().get(args.workload, {})

    span = tracer.open("setup") if tracer else None
    for spec in workloads.setup_fields(ops):
        finite_field.field_from_spec(spec)
    if tracer:
        tracer.close(span)
    setup_s = time.time() - t0

    results = [] if args.setup_only else workloads.run_ops(ops, reference,
                                                           tracer)
    for r in results:
        del r["answer"]
    out = {"setup_s": setup_s, "ops": results,
           "peak_rss_mib": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.enabled = False
        out["layers"] = tracer.layer_metrics()
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
