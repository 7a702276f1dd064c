"""Static hygiene of the package source: no module imports a name it never
uses or a package other than the standard library and numpy, every function
or method is referenced somewhere, every parameter is read, only the
packer takes a `ParamSet` parameter, every plain dataclass default is overridden somewhere, every `ParamSet` default is
overridden outside the tests and the README lists exactly its fields,
outside the tests every defaulted
parameter is set to more than one value, and every span target of the
benchmark names an attribute of the package."""

import ast
import dataclasses
import importlib
import re
import sys
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


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of anything but the standard library and numpy."""
    tree = ast.parse(source)
    roots = [(alias.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    roots += [(node.module, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return sorted(f"{name} (line {line})" for name, line in roots
                  if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"})


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_stdlib_and_numpy_imports(path):
    assert foreign_imports(path.read_text()) == []


def test_import_checker_flags_an_optional_backend():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "from numpy.linalg import norm\n"
        "from .graphs import A\n"
        "try:\n"
        "    from numexpr import evaluate\n"
        "except ImportError:\n"
        "    import scipy.sparse\n"
    )
    assert foreign_imports(source) == ["numexpr (line 6)", "scipy.sparse (line 8)"]


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


# Functions that only tests call, each kept as a reference or oracle for code
# that does run.
TEST_ONLY = {
    "check_arithm_split": "acceptance criterion 5 checks the arithmetic split with it",
    "apply_switch": "the switch move that the chain kernels inline",
    "oracle_pack_small": "the exhaustive oracle of acceptance criterion 7",
    "pack_bipartite": "the bipartite driver the README documents",
}


def test_every_function_is_reached_outside_tests():
    """A function that only tests call is dead code, bar the listed oracles."""
    sources = [p.read_text() for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    names = referenced_names(sources)
    unreached = {f.split(" ")[0] for p in MODULES for f in unreferenced_functions(p.read_text(), names)}
    assert unreached == set(TEST_ONLY)


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


def paramset_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter annotated with `ParamSet`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            out += [f"{node.name}({p.arg})" for p in a.posonlyargs + a.args + a.kwonlyargs
                    if p.annotation is not None and "ParamSet" in _annotation_names(p.annotation)]
    return sorted(out)


def test_only_the_packer_takes_a_paramset():
    """Below the packer's drivers each layer takes the values it reads."""
    taken = {p.name: paramset_parameters(p.read_text()) for p in MODULES if p.name != "packer.py"}
    assert {k: v for k, v in taken.items() if v} == {}


def test_paramset_checker_flags_an_annotated_parameter():
    source = (
        "def f(params: ParamSet, eps: float = ParamSet.eps):\n"
        "    return ParamSet.retry_cap\n"
        "class A:\n"
        "    def m(self, *, p: 'ParamSet | None' = None, q=ParamSet()):\n"
        "        pass\n"
    )
    assert paramset_parameters(source) == ["f(params)", "m(p)"]


def defaulted_fields(source: str) -> list[str]:
    """``Class.field`` for each dataclass field with a plain default: a value,
    or ``field(default=...)``, but not a ``default_factory`` or a ClassVar."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(n, ast.Name) and n.id == "dataclass" for d in node.decorator_list for n in ast.walk(d))):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None and "ClassVar" not in _annotation_names(stmt.annotation)):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field" \
                    and "default" not in {kw.arg for kw in value.keywords}:
                continue
            out.append(f"{node.name}.{stmt.target.id}")
    return out


def written_names(sources: list[str]) -> set[str]:
    """Every attribute assigned to and every keyword passed to a call."""
    names: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
    return names


def test_every_defaulted_field_is_written():
    """A field whose default nothing overrides is a constant or dead."""
    sources = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    written = written_names(sources)
    fields = [f for p in MODULES for f in defaulted_fields(p.read_text())]
    assert fields
    assert [f for f in fields if f.split(".")[1] not in written] == []


def test_every_paramset_knob_is_set_outside_tests():
    """A `ParamSet` field that only tests set is a flag no run reads."""
    sources = [p.read_text() for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    written = written_names(sources)
    fields = [f for f in defaulted_fields((PACKAGE / "params.py").read_text()) if f.startswith("ParamSet.")]
    assert fields
    assert [f for f in fields if f.split(".")[1] not in written] == []


def readme_paramset_fields(readme: str) -> list[str]:
    """The backticked names after "the settable fields of `ParamSet`" in the
    README's "Desk-scale behaviour" section, up to the end of that clause."""
    section = readme.split("## Desk-scale behaviour", 1)[1].split("\n## ", 1)[0]
    clause = section.split("the settable fields of `ParamSet`", 1)[1].split(";", 1)[0]
    return re.findall(r"`(\w+)`", clause)


def test_readme_lists_the_paramset_fields():
    """The README's list of settable knobs is the dataclass's field list."""
    from regpack.params import ParamSet

    readme = (ROOT / "README.md").read_text()
    assert readme_paramset_fields(readme) == [f.name for f in dataclasses.fields(ParamSet)]


def test_field_checker_flags_an_unwritten_default():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    need: int\n"
        "    kept: int = 1\n"
        "    set_later: float = 0.0\n"
        "    never: bool = True\n"
        "    boxed: int = field(default=2, repr=False)\n"
        "    made: list = field(default_factory=list)\n"
        "    derived: int = field(init=False)\n"
        "    const: ClassVar[int] = 3\n"
        "class B:\n"
        "    plain: int = 4\n"
        "a = A(need=1, kept=2)\n"
        "a.set_later += 1.0\n"
    )
    written = written_names([source])
    assert defaulted_fields(source) == ["A.kept", "A.set_later", "A.never", "A.boxed"]
    assert [f for f in defaulted_fields(source) if f.split(".")[1] not in written] == ["A.never", "A.boxed"]


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` for each defaulted parameter of a
    module-level function or method, dunder methods such as constructors
    excluded.  The position counts the arguments a call passes (a method's
    ``self`` is not one); it is None for a keyword-only parameter."""
    tree = ast.parse(source)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(node, 0) for node in tree.body if isinstance(node, funcs)]
    defs += [(node, 0 if any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list) else 1)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, funcs)]
    out = []
    for node, bound in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(node.name, p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
        out += [(node.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


_UNKNOWN = object()   # an argument that is not a literal
_DEFAULT = object()   # a call that leaves the parameter at its default


def _literal(node: ast.AST):
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return _UNKNOWN


def call_sites(sources: list[str]) -> tuple[dict[str, list], set[str]]:
    """The calls of each name, as ``(keywords, positionals)`` with each value
    a literal's repr or ``_UNKNOWN`` (None for a call through ``*`` or
    ``**``), and the names used as values, which any call may then reach."""
    calls: dict[str, list] = {}
    values: set[str] = set()
    for source in sources:
        callees = set()
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callees.add(id(node.func))
                name = getattr(node.func, "id", None) or node.func.attr
                if any(kw.arg is None for kw in node.keywords) or \
                        any(isinstance(x, ast.Starred) for x in node.args):
                    calls.setdefault(name, []).append(None)
                else:
                    calls.setdefault(name, []).append(
                        ({kw.arg: _literal(kw.value) for kw in node.keywords}, [_literal(x) for x in node.args]))
        values |= {getattr(node, "id", None) or node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                   and id(node) not in callees}
    return calls, values


def unvaried_parameters(source: str, calls: dict[str, list], values: set[str]) -> list[str]:
    """``function(parameter)`` for each defaulted parameter that no call passes,
    or that every call passes as the same literal."""
    out = []
    for fn, p, pos in defaulted_parameters(source):
        if fn in values:
            continue
        seen = set()
        for call in calls.get(fn, []):
            if call is None:
                seen.add(_UNKNOWN)
                continue
            kws, args = call
            seen.add(kws[p] if p in kws else args[pos] if pos is not None and pos < len(args) else _DEFAULT)
        if _UNKNOWN not in seen and len(seen) < 2:
            out.append(f"{fn}({p})")
    return sorted(out)


# Defaulted parameters that no run varies, each kept for its reason.
UNVARIED = {
    "stack_family(resamples)": "at the default 50 resamples the family of the balancer's "
                               "decomposition-identity test raises `StackEmbedFailure`",
    "run_main_packing(round_retry_cap)": "acceptance criterion 1 pins 5 attempts; the default 6 would loosen it",
    "pack_quasirandom(r)": "perfbench packs at r = 2 and acceptance criterion 9 at r = 8",
    "bipartite_union_templates(sizes)": "the only seeded source of ragged families",
    "write_instance(lam)": "writes the `lambda` key that `read_instance` reads",
}


def test_every_defaulted_parameter_is_set_outside_tests():
    """A default that no run overrides, or that every run overrides with one
    literal, is a constant or a switch only tests flip."""
    sources = [p.read_text() for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    calls, values = call_sites(sources)
    unvaried = {f for p in MODULES for f in unvaried_parameters(p.read_text(), calls, values)
                if f.split("(")[0] not in TEST_ONLY}
    assert unvaried == set(UNVARIED)


def test_default_checker_flags_a_constant_and_a_test_only_switch():
    source = (
        "def f(x, flag=False, *, cap=32, mode='a', scale=1.0):\n"
        "    pass\n"
        "class A:\n"
        "    def __init__(self, size=3):\n"
        "        pass\n"
        "    def m(self, a, b=2, c=None):\n"
        "        pass\n"
        "def g(x, y=0):\n"
        "    pass\n"
        "def h(x, y=0):\n"
        "    pass\n"
        "def u(x, z=1):\n"
        "    pass\n"
    )
    callers = (
        "f(1, False, cap=32, mode=name)\n"
        "f(2, flag=False, cap=32, mode='b', scale=2.0)\n"
        "A().m(1, 5)\n"
        "A().m(1, c=k)\n"
        "g(1, **opts)\n"
        "run(h)\n"
        "u(3)\n"
    )
    calls, values = call_sites([callers])
    assert unvaried_parameters(source, calls, values) == ["f(cap)", "f(flag)", "u(z)"]
    assert [(fn, p) for fn, p, _ in defaulted_parameters(source)] == [
        ("f", "flag"), ("f", "cap"), ("f", "mode"), ("f", "scale"), ("g", "y"), ("h", "y"),
        ("u", "z"), ("m", "b"), ("m", "c")]


def span_targets(source: str) -> list[str]:
    """The "<module>.<attribute path>" names of the ``TARGETS`` list in a
    ``perfbench/spans.py`` source, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in names):
                return [f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts]
    raise AssertionError("no TARGETS list")


def unresolved_targets(targets: list[str]) -> set[str]:
    """Targets whose attribute path does not resolve in their package module."""
    out = set()
    for target in targets:
        module, *path = target.split(".")
        obj = importlib.import_module(f"regpack.{module}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            out.add(target)
    return out


# Span targets naming helpers that a pair-view refactor deleted; the next
# benchmark change replaces them with `graphs.pair_view` and `graphs.transpose`.
DEAD_SPAN_TARGETS = {"packer._cross_pair", "uniform._cross_pair", "slender._pair_view",
                     "patching._cross", "balancer._pair"}


def test_every_span_target_resolves():
    """A renamed function would otherwise drop its per-layer metric silently."""
    targets = span_targets((ROOT / "perfbench" / "spans.py").read_text())
    assert {"matching.find_perfect_matching", "matching.sample_switch_chain"} <= set(targets)
    assert unresolved_targets(targets) == DEAD_SPAN_TARGETS


def test_span_target_checker_flags_a_missing_attribute():
    source = (
        "TARGETS: list = [\n"
        "    (\"matching\", \"find_perfect_matching\", None),\n"
        "    (\"graphs\", \"BipartiteGraph.right_adj\", _note),\n"
        "    (\"graphs\", \"BipartiteGraph.no_such_method\", None),\n"
        "    (\"slender\", \"no_such_function\", None),\n"
        "]\n"
    )
    targets = span_targets(source)
    assert targets[1] == "graphs.BipartiteGraph.right_adj"
    assert unresolved_targets(targets) == {"graphs.BipartiteGraph.no_such_method",
                                           "slender.no_such_function"}
