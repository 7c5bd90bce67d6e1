"""Every name a loghilb module imports is used in that module, every private
function or method of the package is referenced somewhere in it, every public
one is called from the package or traced by the benchmark, no private class
is named only as the base of one other class, and no code but ``BaseRing``
branches on a base ring's kind."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loghilb"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from typing import Dict, List\nimport os.path\nx: List[int] = []\n"
    assert unused_imports(source) == ["Dict (line 1)", "os (line 2)"]


def unreferenced_functions(sources):
    """The module-level functions and methods of the given sources {file name:
    source} that no code outside their own body names, as (file name, class
    name or None, node)."""
    definitions = []
    references = []
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                definitions.append((name, None, node))
            elif isinstance(node, ast.ClassDef):
                definitions.extend(
                    (name, node.name, item) for item in node.body
                    if isinstance(item, FUNCTIONS)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((name, node.attr, node.lineno))
    return [
        (name, owner, node)
        for name, owner, node in definitions
        if not any(
            ident == node.name
            and not (where == name and node.lineno <= line <= node.end_lineno)
            for where, ident, line in references
        )
    ]


def unreferenced_private_functions(sources):
    """Private module-level functions and ``_methods`` of the given sources
    {file name: source} that no code outside their own body names."""
    return sorted(
        f"{name}: {node.name} (line {node.lineno})"
        for name, _, node in unreferenced_functions(sources)
        if node.name.startswith("_") and not node.name.endswith("__")
    )


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_function_is_found():
    helpers = (
        "def _used():\n    return 1\n"
        "def _unused():\n    return 2\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    users = (
        "from helpers import _used\n"
        "class A:\n"
        "    def __init__(self):\n        self._called()\n"
        "    def _called(self):\n        return _used()\n"
        "    def _idle(self):\n        return 0\n"
    )
    assert unreferenced_private_functions({"helpers.py": helpers, "users.py": users}) == [
        "helpers.py: _recursive (line 5)",
        "helpers.py: _unused (line 3)",
        "users.py: _idle (line 7)",
    ]


def uncalled_public_functions(sources, namespaces, targets):
    """Public module-level functions and methods of the given sources {file
    name: source} that no code outside their own body names and that
    ``targets`` {(file name, qualified name)} does not list.  A method that
    overrides an attribute of a base class is exempt: the base's callers call
    it.  Classes are looked up in ``namespaces`` {file name: module globals}."""
    found = []
    for name, owner, node in unreferenced_functions(sources):
        if node.name.startswith("_"):
            continue
        if owner is None:
            qualified = node.name
        else:
            bases = namespaces[name][owner].__mro__[1:]
            if any(hasattr(base, node.name) for base in bases):
                continue
            qualified = f"{owner}.{node.name}"
        if (name, qualified) not in targets:
            found.append(f"{name}: {qualified} (line {node.lineno})")
    return sorted(found)


def test_every_public_function_is_called_or_traced(monkeypatch):
    # read TARGETS as tests/test_bench_targets.py does
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    targets = {
        (module.rsplit(".", 1)[1] + ".py", attr) for _, module, attr in spans.TARGETS
    }
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {p.name: p.read_text(encoding="utf-8") for p in paths}
    namespaces = {
        p.name: vars(importlib.import_module(
            "loghilb" if p.stem == "__init__" else f"loghilb.{p.stem}"
        ))
        for p in paths
    }
    assert uncalled_public_functions(sources, namespaces, targets) == []


def test_uncalled_public_function_is_found():
    source = (
        "import argparse\n"
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def traced():\n    return 2\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def parse_known_args(self, args=None, namespace=None):\n"
        "        return super().parse_known_args(args, namespace)\n"
        "    def idle(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 0\n"
        "    def traced(self):\n        return 3\n"
        "    def _private(self):\n        return 4\n"
        "    def __len__(self):\n        return 0\n"
    )
    namespace = {}
    exec(source, namespace)
    targets = {("m.py", "traced"), ("m.py", "Parser.traced")}
    assert uncalled_public_functions({"m.py": source}, {"m.py": namespace}, targets) == [
        "m.py: Parser.idle (line 13)",
        "m.py: recursive (line 8)",
        "m.py: unused (line 4)",
    ]


def private_imports(source: str):
    """Names starting with ``_`` that a ``from .module import`` brings in from
    another module of the package."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_found():
    source = (
        "from .chow import BaseRing, _apply\n"
        "from . import _helpers\n"
        "from typing import _SpecialForm\n"
        "from .poly import MultiPoly as _MP\n"
    )
    assert private_imports(source) == ["_apply (line 1)", "_helpers (line 2)"]


def shadow_classes(sources):
    """Private classes of the given sources {file name: source} that the code
    names nowhere but as the base of one other class: a class written twice."""
    private, mentions, as_base = [], Counter(), Counter()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    private.append((name, node))
                as_base.update(b.id for b in node.bases if isinstance(b, ast.Name))
            elif isinstance(node, ast.Name):
                mentions[node.id] += 1
            elif isinstance(node, ast.Attribute):
                mentions[node.attr] += 1
    return sorted(
        f"{name}: {node.name} (line {node.lineno})"
        for name, node in private
        if as_base[node.name] == mentions[node.name] == 1
    )


def test_no_private_class_is_only_a_base():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert shadow_classes(sources) == []


def test_shadow_class_is_found():
    source = (
        "from typing import NamedTuple\n"
        "class _Fields(NamedTuple):\n    x: int\n"
        "class Point(_Fields):\n    pass\n"
        "class _Base:\n    pass\n"
        "class A(_Base):\n    pass\n"
        "class B(_Base):\n    pass\n"
        "class _Used:\n    pass\n"
        "class C(_Used):\n    pass\n"
        "spare = _Used()\n"
        "class _Alone:\n    pass\n"
    )
    assert shadow_classes({"m.py": source}) == ["m.py: _Fields (line 2)"]


def kind_comparisons(source: str):
    """Comparisons that read a ``.kind`` attribute outside ``class BaseRing``:
    a base ring is data, so code that reads it asks for the data, not the tag."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "BaseRing"
        for node in ast.walk(cls)
    }
    return [
        f"line {node.lineno}"
        for node in sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Compare)),
            key=lambda n: n.lineno,
        )
        if id(node) not in exempt
        and any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(node))
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_branch_on_a_kind_outside_base_ring(path):
    assert kind_comparisons(path.read_text(encoding="utf-8")) == []


def test_kind_comparison_is_found():
    source = (
        "class BaseRing:\n"
        "    def tag(self):\n        return self.kind == 'integers'\n"
        "def variables(pres):\n"
        "    if pres.base.kind == 'trunc_hyperplane':\n        return ('H',)\n"
        "    return ()\n"
        "def table(mode):\n    return TABLE[mode.kind]\n"
        "def local(kind):\n    return kind != 'hodge'\n"
        "class Other:\n"
        "    def symbolic(self):\n        return self.base.kind in ('symbolic_curve',)\n"
    )
    assert kind_comparisons(source) == ["line 5", "line 14"]
