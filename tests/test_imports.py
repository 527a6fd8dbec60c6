"""The runtime is standard-library only: every module the package imports,
at top level or inside a function, is either in the standard library or a
relative import of the package itself."""

import ast
import sys
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmlab"


def _imported_modules(path: Path):
    """(line, top-level module) for each absolute import in the file;
    relative imports (`from . import x`, `from .galois import y`) are left out."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert sources, _PACKAGE
    seen, outside = set(), []
    for path in sources:
        for line, module in _imported_modules(path):
            seen.add(module)
            if module not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{line}: {module}")
    assert not outside, outside
    # the walk reaches function-level imports too: cli imports pickle only
    # inside the suite's forked runner
    assert {"argparse", "pickle", "__future__"} <= seen, seen
