"""Each layer micro-benchmark runs once in the tier-1 suite.

Pytest collects only ``test_*.py`` files, so ``tests/bench_layers.py`` is
never collected, and its fixed-size checks (search expansions, reduction
survivors, compiled MDP sizes) could go stale unseen.  This runs that file
in a fresh pytest with timing disabled, so every benchmarked call runs once
and its assertions must hold.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridplan

TESTS = Path(__file__).resolve().parent


def test_layer_benchmarks_run_once():
    pytest.importorskip("pytest_benchmark")
    src = str(Path(hybridplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS / "bench_layers.py"), "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env, cwd=TESTS.parent, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
