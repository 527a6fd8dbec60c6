"""Runs the benchmark harness's own unittest self-tests, so they gate every change,
and checks that the per-layer metrics BENCHMARK.json names still name code."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metric names whose function the tracer can no longer see, each with why.
KNOWN_DEAD = {
    "pqm.pqm_round": "the game and replay advance one y-mask; no per-round function is left",
    "rscode.bucket_eval.cache_hits": "bucket_eval is not lru-cached; its cache is _scaled_image",
}


def test_perfbench_self_tests_pass():
    argv = [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave perfbench/ as checked in
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "\nRan 0 tests" not in done.stderr  # discovery found the self-tests


def _tracer_modules() -> tuple:
    """TRACED_MODULES as perfbench/tracer.py assigns it, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED_MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TRACED_MODULES")


def _dead_reason(name: str):
    """Why an allow-listed metric reads nothing, or None for any other name."""
    return KNOWN_DEAD.get(name.rsplit(".", 1)[0]) or KNOWN_DEAD.get(name)


def test_traced_metric_names_name_public_functions():
    # a metric whose function was renamed or deleted reads 0 with no warning
    modules = _tracer_modules()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["per_layer"]]
    traced = [n for n in names if n.count(".") >= 2 and n.split(".")[0] in modules]
    assert traced  # the guard reads the file's layout
    dead = []
    for name in traced:
        module, function, stat = name.split(".", 2)
        fn = getattr(importlib.import_module(f"qmlab.{module}"), function, None)
        alive = (
            callable(fn)
            and not isinstance(fn, type)
            and not function.startswith("_")
            and fn.__module__ == f"qmlab.{module}"
        )
        if alive and stat == "cache_hits":
            alive = hasattr(fn, "cache_info")
        if not alive:
            assert _dead_reason(name), f"{name}: no public function qmlab.{module}.{function}"
            dead.append(name)
    # every allow-listed name is still in the file and still dead
    assert {_dead_reason(n) for n in dead} == set(KNOWN_DEAD.values()), dead
