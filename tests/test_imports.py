"""Every module-level import in the package is used.

No linter ships with the package, so this test walks each module's syntax
tree with the standard library's ast: a name bound by a module-level
import must be read somewhere in the module (every module has `from
__future__ import annotations`, so annotations count as reads).  Package
__init__ files, which re-export, and `from __future__` are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchgroups"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"trees.py", "engine.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport numpy as np\n"
           "import os.path\nfrom typing import Sequence\n"
           "def f(x: Sequence) -> str:\n    return os.path.sep\n")
    assert unused_imports(src) == ["np (line 2)"]
