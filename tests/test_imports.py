"""The runtime is standard-library only: every module the package imports,
at top level or inside a function, is either in the standard library or a
relative import of the package itself.  Two process-wide calls sit in one
function each: `gc.freeze` in `cli.main`, and `os._exit` in the suite's
forked worker."""

import ast
import sys
from pathlib import Path

import pytest

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


def _calls_by_function(path: Path, module: str, attr: str):
    """(file, innermost enclosing def) for each `module.attr(...)` call in the
    file, and (file, line) for each `from module import attr`."""
    calls, imports = [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == f"{module}.{attr}":
                calls.append((path.name, owner))
            if isinstance(child, ast.ImportFrom) and child.module == module:
                imports.extend((path.name, child.lineno) for a in child.names if a.name == attr)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return calls, imports


@pytest.mark.parametrize(
    "module, attr, owner",
    # a freeze inside cmd_dispatch would stop the collector in every process
    # that dispatches in-process, the test run included
    [("gc", "freeze", ("cli.py", "main")), ("os", "_exit", ("cli.py", "_run_beside"))],
)
def test_process_wide_calls_sit_in_one_function(module, attr, owner):
    calls, imports = [], []
    for path in sorted(_PACKAGE.glob("*.py")):
        found = _calls_by_function(path, module, attr)
        calls += found[0]
        imports += found[1]
    assert (calls, imports) == ([owner], []), (calls, imports)
