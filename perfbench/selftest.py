"""The benchmark's own test: traced counts repeat exactly for a fixed seed.

Runs ``run.py --trace 1`` twice on the same workload and seed and fails
unless both runs pass their output checks and every per-layer metric that
is not a time (counts, sizes, ratios of counts) is identical.  Run from
the repository root; one workload takes one to four minutes:

    python3 perfbench/selftest.py --workload dense-10k --seed 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TIMED_UNITS = {"s", "ms"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import WORKLOADS

    failures = 0
    for workload in args.workload or sorted(WORKLOADS):
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        counts = {name for name, metric in first["metrics"].items()
                  if metric["unit"] not in TIMED_UNITS and not name.startswith("trace.overhead")}
        differ = sorted(n for n in counts
                        if first["metrics"][n]["value"] != second["metrics"][n]["value"])
        ok = first["correct"] and second["correct"] and not differ
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {workload} seed {args.seed}: {len(counts)} counts"
              + (f", differing: {differ}" if differ else "")
              + ("" if first["correct"] and second["correct"] else ", output checks failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
