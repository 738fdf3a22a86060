"""The benchmark's traced run wraps hopkit functions by name; a renamed or
deleted one must fail here, not only under ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_over_every_hook_point():
    # install() rebinds module globals, so it runs in its own interpreter
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer({}).install()"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
