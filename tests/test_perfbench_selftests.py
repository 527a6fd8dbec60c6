"""Runs the benchmark harness's own unittest self-tests, so they gate every change."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    argv = [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave perfbench/ as checked in
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "\nRan 0 tests" not in done.stderr  # discovery found the self-tests
