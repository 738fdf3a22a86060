"""Runs one workload's CLI commands in this process, closed-loop.

Started by run.py as a fresh process per pipeline, so peak memory belongs
to this pipeline alone:

    python3 perfbench/pipeline.py PLAN.json

The plan lists phases of CLI commands.  Each command goes through
``hopkit.cli.main(argv)``; the next starts only after the previous one
returns.  The ``rounds`` phases run in turn, one command per phase per
round (cycling through a phase's commands); a phase leaves the rounds
once it has run at least once and spent ``budget`` seconds, so its
samples spread over the run.  Then the ``batch`` phases run in order,
each running its first command; the sequence repeats ``batch_runs`` times.  With ``trace`` set, tracing wrappers are installed first
and the per-layer metrics and spans are written at the end.  The result
file records, per command, its start, wall time, exit code, stdout and
stderr, plus the speed probe's samples and the peak resident memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

PROBE_INTERVAL_S = 0.1


_REFERENCE_RNG = random.Random(0)
_REFERENCE_TOKENS = [f"tok{i % 97}x{i % 5}" for i in range(10000)]
_REFERENCE_BUFFER = _REFERENCE_RNG.randbytes(8 << 20)
_REFERENCE_READS = [_REFERENCE_RNG.randrange(8 << 20) for _ in range(20000)]


def reference_work() -> int:
    """Fixed pure-Python work that shares no code with hopkit: dict
    counting and sorting, then random reads over an 8 MiB buffer.  The
    second half feels cache and memory contention as well as CPU speed.
    It allocates little, so it leaves peak memory alone apart from the
    buffer's constant 8 MiB."""
    counts: dict[str, int] = {}
    for token in _REFERENCE_TOKENS:
        key = token[3:]
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    buffer = _REFERENCE_BUFFER
    return sum(buffer[i] for i in _REFERENCE_READS) + len(ranked)


class SpeedProbe:
    """Samples the machine's speed throughout the run.

    Every PROBE_INTERVAL_S a SIGALRM handler times one reference_work()
    call; samples are (start, duration) on the perf_counter clock.  On a
    shared machine the speed drifts by tens of percent over seconds to
    minutes; run.py subtracts the probes' own time from each command and
    scales the command by the speed sampled around it.  A tracer's span
    clock is stopped while the probe runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_work()
        took = perf_counter() - t0
        self.samples.append((t0, took))
        if self.tracer is not None:
            self.tracer.excluded += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_command(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_plan(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer(plan["qid_by_stem"])
        tracer.install()
    from hopkit.cli import main

    records = []

    def run_op(phase: dict, i: int) -> None:
        op = phase["ops"][i % len(phase["ops"])]
        gc.collect()
        span = tracer.open(f"cli.{phase['name']}", op["qid"]) if tracer else None
        t0 = perf_counter()
        rc, stdout, stderr = run_command(main, op["argv"])
        t1 = perf_counter()
        if tracer:
            tracer.close(span)
        records.append({"phase": phase["name"], "op": i % len(phase["ops"]), "start": t0,
                        "seconds": t1 - t0, "rc": rc, "stdout": stdout, "stderr": stderr})

    with SpeedProbe(tracer) as probe:
        runs = [0] * len(plan["rounds"])
        spent = [0.0] * len(plan["rounds"])
        while True:
            pending = [i for i in range(len(runs)) if not runs[i] or spent[i] < plan["budget"]]
            if not pending:
                break
            for i in pending:
                run_op(plan["rounds"][i], runs[i])
                runs[i] += 1
                spent[i] += records[-1]["seconds"]
        for _ in range(plan["batch_runs"]):
            for phase in plan["batch"]:
                run_op(phase, 0)
    result = {
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probes": probe.samples,
        "layers": None,
    }
    if tracer:
        result["layers"] = {name: list(pair) for name, pair in tracing.aggregate(tracer).items()}
        tracer.write_spans(plan["spans_out"])
    return result


def main() -> int:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text("utf-8"))
    sys.path.insert(1, str(Path(plan["root"]) / "src"))
    result = run_plan(plan)
    Path(plan["result_out"]).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
