"""The benchmark's traced run wraps hopkit functions by name; a renamed or
deleted one must fail here, not only under ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(script: str) -> subprocess.CompletedProcess:
    # install() rebinds module globals, so it runs in its own interpreter
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_over_every_hook_point():
    result = _run_traced("import tracing; tracing.Tracer({}).install()")
    assert result.returncode == 0, result.stderr


def test_tracer_counts_tokenizing_and_stemming_a_new_word():
    result = _run_traced(
        "import tracing\n"
        "tracer = tracing.Tracer({})\n"
        "tracer.install()\n"
        "import hopkit.corpus\n"
        "before = (tracer.tokenize_calls, tracer.stem_calls)\n"
        "bag = hopkit.corpus.tokenize_normalize('zorblegrinding')\n"
        "print(before, (tracer.tokenize_calls, tracer.stem_calls), sorted(bag))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["(0,", "0)", "(1,", "1)", "['zorblegrind']"]
