"""Static hygiene of the package source: no module imports a name it never
uses, every function or method is referenced somewhere, and every
parameter is read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regpack"
MODULES = sorted(PACKAGE.glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, string annotations such as ``"BipartiteGraph"`` included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_package_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from .graphs import A, B, C as D, E\n"
        "def f(x: 'A') -> list[B]:\n"
        "    return js.dumps(x)\n"
        "y: E = 1\n"
    )
    assert unused_imports(source) == ["D (line 3)", "os (line 2)"]


def referenced_names(sources: list[str]) -> set[str]:
    """Every identifier read, imported or named in a dotted string such as
    ``"BipartiteGraph.right_adj"`` (the form span targets use)."""
    names: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def unreferenced_functions(source: str, names: set[str]) -> list[str]:
    return sorted(f"{node.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in names)


def test_every_function_is_referenced():
    sources = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    names = referenced_names(sources)
    dead = {p.name: unreferenced_functions(p.read_text(), names) for p in MODULES}
    assert {k: v for k, v in dead.items() if v} == {}


def test_reference_checker_flags_a_dead_method():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.live()\n"
        "    def live(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return 2\n"
        "def target():\n"
        "    pass\n"
    )
    names = referenced_names([source, "TARGETS = [('m', 'target')]\n"])
    assert unreferenced_functions(source, names) == ["dead (line 6)"]


def unread_parameters(source: str) -> list[str]:
    """Parameters (bar ``self``, ``cls`` and ``_``-prefixed names) that their
    function's body, nested functions included, never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({p})" for p in params
                if p not in ("self", "cls") and not p.startswith("_") and p not in read]
    return sorted(out)


def test_every_parameter_is_read():
    unread = {p.name: unread_parameters(p.read_text()) for p in MODULES}
    assert {k: v for k, v in unread.items() if v} == {}


def test_parameter_checker_flags_an_ignored_argument():
    source = (
        "class A:\n"
        "    def m(self, used, ignored, _private):\n"
        "        def inner(x):\n"
        "            return used + x\n"
        "        return inner(1)\n"
        "def f(a, *args, flag=None, **kw):\n"
        "    a = 1\n"
        "    return args, kw\n"
    )
    assert unread_parameters(source) == ["f(a)", "f(flag)", "m(ignored)"]
