"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every op of every workload once with seed 0 and writes the
seed-independent part of each answer to perfbench/reference.json.  Run it
only on a commit whose answers are known to be right; the benchmark then
counts any later difference as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(0)
        entries = {}
        for op in ops:
            if op.record is None:
                continue
            answer, _ = op.run()
            entries[op.name] = op.record(answer)
        reference[name] = entries
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
