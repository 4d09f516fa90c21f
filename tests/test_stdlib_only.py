"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import accel_predict

PACKAGE = Path(accel_predict.__file__).parent


def _imported_modules(tree: ast.AST):
    """(line, top-level module) of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "loopnest.py" in sources
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {module}"
        for path in sources
        for line, module in _imported_modules(ast.parse(path.read_text()))
        if module not in sys.stdlib_module_names and module != "accel_predict"
    ]
    assert foreign == []


def test_the_walk_sees_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom hypothesis import given\n"
                     "from . import model\nimport os.path\n")
    assert list(_imported_modules(tree)) == [
        (1, "numpy"), (2, "hypothesis"), (4, "os"),
    ]
