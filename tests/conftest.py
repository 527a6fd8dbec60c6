"""Tests that start `python -m qmlab` in a subprocess import this checkout's
src/ too, as pyproject's `pythonpath` makes the tests themselves do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
