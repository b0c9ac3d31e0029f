"""Every module-level import in the package is used, and so is every
private helper.

No linter ships with the package, so these tests walk each module's syntax
tree with the standard library's ast: a name bound by a module-level
import must be read somewhere in the module (every module has `from
__future__ import annotations`, so annotations count as reads).  Package
__init__ files, which re-export, and `from __future__` are skipped.  A
private (`_name`, not dunder) module-level function or class, or method,
must be referenced by name or attribute somewhere in the package.
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


def orphan_helpers(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes and private methods
    defined in sources (module name -> text) that no module references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_")
                        and not (d.name.startswith("__")
                                 and d.name.endswith("__"))
                        and d.name not in used):
                    orphans.append(f"{module}:{d.name} (line {d.lineno})")
    return orphans


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


def test_no_orphan_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert orphan_helpers(sources) == []


def test_the_guard_sees_an_orphan_helper():
    src = ("def _used():\n    pass\n"
           "def _orphan():\n    pass\n"
           "class _Kept:\n"
           "    def __init__(self):\n        _used()\n"
           "    def _lone(self):\n        pass\n"
           "    def _called(self):\n        pass\n"
           "_Kept()._called()\n")
    assert orphan_helpers({"m.py": src}) == ["m.py:_orphan (line 3)",
                                             "m.py:_lone (line 8)"]
