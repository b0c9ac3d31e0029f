"""Every module-level import in the package is used, so is every helper,
and every optional parameter is passed by some call.

No linter ships with the package, so these tests walk each module's syntax
tree with the standard library's ast: a name bound by a module-level
import must be read somewhere in the module (every module has `from
__future__ import annotations`, so annotations count as reads).  Package
__init__ files, which re-export, and `from __future__` are skipped.  A
module-level function or class, or a method, that is not a dunder must be
referenced by name or attribute somewhere in the package; a public one
may instead be re-exported from __init__ or wrapped by the benchmark's
tracer (perfbench/tracer.py), which times it by name.  A parameter with a
default, in any function or method of the package, must be passed by
keyword or by position in some call in the package or the tests; calls
are matched by the called name, a class name to its __init__, and a call
with *args or **kwargs passes everything.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "branchgroups"
TRACER = TESTS.parent / "perfbench" / "tracer.py"
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


def exported_names(init_source: str) -> set[str]:
    """The names a package __init__ imports from its modules."""
    return {alias.asname or alias.name
            for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def traced_names(tracer_source: str) -> set[str]:
    """The function and method names in the tracer's TARGETS entries
    (layer, qualified name, kind)."""
    tree = ast.parse(tracer_source)
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    return {entry.elts[1].value.rsplit(".", 1)[-1] for entry in targets.elts}


def orphan_helpers(sources: dict[str, str], kept: set[str]) -> list[str]:
    """The module-level functions and classes and the methods defined in
    sources (module name -> text), dunders aside, that no module
    references; a public one (no leading underscore) also counts as used
    when its name is in kept."""
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
                        and not (d.name.startswith("__")
                                 and d.name.endswith("__"))
                        and d.name not in used
                        and (d.name.startswith("_") or d.name not in kept)):
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


def test_no_orphan_helpers():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    kept = (exported_names(sources["__init__.py"])
            | traced_names(TRACER.read_text(encoding="utf-8")))
    assert orphan_helpers(sources, kept) == []


def test_the_guard_sees_an_orphan_helper():
    src = ("def _used():\n    pass\n"
           "def _orphan():\n    pass\n"
           "class _Kept:\n"
           "    def __init__(self):\n        _used()\n"
           "    def _lone(self):\n        pass\n"
           "    def _called(self):\n        pass\n"
           "_Kept()._called()\n")
    assert orphan_helpers({"m.py": src}, set()) == ["m.py:_orphan (line 3)",
                                                    "m.py:_lone (line 8)"]


def test_the_guard_sees_an_unused_public_name():
    # public names count as used when kept (re-exported or traced), never
    # a private one
    src = ("def used():\n    pass\n"
           "def exported():\n    pass\n"
           "def lone():\n    pass\n"
           "def _private():\n    pass\n"
           "class Box:\n"
           "    def method(self):\n        pass\n"
           "    def traced(self):\n        pass\n"
           "used()\n")
    kept = (exported_names("from .m import exported, Box\n")
            | traced_names('TARGETS = [("m", "Box.traced", "node"),\n'
                           '           ("m", "_private", "node")]\n'))
    assert kept == {"exported", "Box", "traced", "_private"}
    assert orphan_helpers({"m.py": src}, kept) == [
        "m.py:lone (line 5)", "m.py:_private (line 7)",
        "m.py:method (line 10)"]


def _optional_params(tree: ast.Module) -> list[tuple[str, int, str, int]]:
    """(called name, position or -1 if keyword-only, parameter, line) for
    every parameter with a default; positions count from the first
    argument a call passes, so a method's self or cls is skipped."""
    methods = {id(d): cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for d in cls.body}
    out = []
    for d in ast.walk(tree):
        if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = d.args
        positional = a.posonlyargs + a.args
        static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                     for x in d.decorator_list)
        skip = 1 if id(d) in methods and not static else 0
        name = methods[id(d)] if d.name == "__init__" else d.name
        for i in range(len(positional) - len(a.defaults), len(positional)):
            out.append((name, i - skip, positional[i].arg, d.lineno))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((name, -1, arg.arg, d.lineno))
    return out


def unpassed_params(defs: dict[str, str], calls: list[str]) -> list[str]:
    """The parameters with defaults in defs (module name -> text) that no
    call in defs or in calls (more texts) passes."""
    passed = set()                        # (name, position or keyword)
    everything = set()                    # names called with * or **
    for src in [*defs.values(), *calls]:
        for c in ast.walk(ast.parse(src)):
            if not isinstance(c, ast.Call):
                continue
            f = c.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if (any(isinstance(x, ast.Starred) for x in c.args)
                    or any(k.arg is None for k in c.keywords)):
                everything.add(name)
            passed.update((name, i) for i in range(len(c.args)))
            passed.update((name, k.arg) for k in c.keywords)
    return [f"{module}:{name}({param}) (line {line})"
            for module, src in defs.items()
            for name, pos, param, line in _optional_params(ast.parse(src))
            if name not in everything and (name, pos) not in passed
            and (name, param) not in passed]


def test_every_optional_parameter_is_passed():
    defs = {p.name: p.read_text(encoding="utf-8")
            for p in sorted(PACKAGE.glob("*.py"))}
    calls = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert unpassed_params(defs, calls) == []


def test_the_guard_sees_an_unpassed_parameter():
    src = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
           "def g(x=0):\n    pass\n"
           "class K:\n"
           "    def __init__(self, k=1):\n        pass\n"
           "    def m(self, y=0, z=0):\n        pass\n"
           "f(0, 1, e=5)\n"
           "g(*[1])\n"
           "K().m(z=1)\n")
    assert unpassed_params({"m.py": src}, ["K(2)\n"]) == [
        "m.py:f(c) (line 1)", "m.py:f(d) (line 1)", "m.py:m(y) (line 8)"]
