"""Every name a loghilb module imports is used in that module, every private
function or method of the package is referenced somewhere in it, and no
private class is named only as the base of one other class."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loghilb"


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


def unreferenced_private_functions(sources):
    """Private module-level functions and ``_methods`` of the given sources
    {file name: source} that no code outside their own body names."""
    definitions = []
    references = []
    for name, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")
                ):
                    definitions.append((name, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((name, node.attr, node.lineno))
    return sorted(
        f"{name}: {node.name} (line {node.lineno})"
        for name, node in definitions
        if not any(
            ident == node.name
            and not (where == name and node.lineno <= line <= node.end_lineno)
            for where, ident, line in references
        )
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
