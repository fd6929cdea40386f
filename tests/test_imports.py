"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hallfix"

#: Names imported on purpose and never read: hall.py re-exports
#: subgroups_of_order, which perfbench's tracer binds in every module that
#: imported it (see the comment at the import).
ALLOWED = {("hall.py", "subgroups_of_order")}


def _unused_imports(tree):
    """Names bound by the module's imports that no other node reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (isinstance(node, ast.ImportFrom)
                                              and node.module == "__future__"):
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names in string annotations, such as "Permutation | PermGroup", count too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    unused = [(line, name) for line, name in _unused_imports(ast.parse(path.read_text()))
              if (path.name, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .group import close, conjugacy_classes\n"
                     "import os.path\n"
                     "def f(G: 'PermGroup'):\n    return conjugacy_classes(G)\n")
    assert _unused_imports(tree) == [(1, "close"), (2, "os")]
