"""Every name a ``lossywalk`` module or a test module imports is used in that module,
and every module-level private name of ``lossywalk`` is read somewhere.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for one.  ``__init__`` (whose imports are the package's re-exports) and
``from __future__`` imports are exempt from the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lossywalk"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = np.zeros(dumps(1))\n"
    )
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``_name`` functions, classes and assignments (dunders excluded)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((n, node) for n in names if n.startswith("_") and not n.startswith("__"))
    return defs


def references(node: ast.AST) -> Counter:
    """Reads of each name under ``node``.

    Loaded names and attributes, imported names, and the dotted parts of
    string constants (the benchmark patches functions by their names).
    """
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.update(n.value.split("."))
    return refs


def dead_private_names(defining: dict[str, str], readers: list[str]) -> list[str]:
    """``module._name`` of each private name of ``defining`` read only in its own definition.

    ``defining`` maps module names to sources; a read counts in any of them
    or in ``readers``.
    """
    trees = {mod: ast.parse(src) for mod, src in defining.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        total += references(tree)
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name, node in private_definitions(tree).items()
                  if total[name] == references(node)[name])


def test_dead_private_names_finds_only_unread_privates():
    module = (
        "import re\n"
        "_USED = re.compile('x')\n"
        "_UNUSED = 1\n"
        "__dunder__ = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _patched():\n    pass\n"
        "def public():\n    return _USED\n"
    )
    reader = "PATCHES = [('pkg.mod', 'mod._patched')]\n"
    assert dead_private_names({"mod": module}, [reader]) == ["mod._UNUSED", "mod._recursive"]


def test_private_names_are_read():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    readers = [p.read_text() for p in PERFBENCH.rglob("*.py")]
    assert dead_private_names(modules, readers) == []
