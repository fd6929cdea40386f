"""Every name a module of the package imports is used in that module, no
module imports a private name from another, every private function, class
and method it defines is read in the package, and every public one is read
by a module other than ``__init__.py``: the public surface is what a command
reaches."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hallfix"

#: Names imported on purpose and never read: hall.py re-exports
#: subgroups_of_order, which perfbench's tracer binds in every module that
#: imported it (see the comment at the import).
ALLOWED = {("hall.py", "subgroups_of_order")}

#: Public definitions that no module of the package reads, kept on purpose.
UNREAD_PUBLIC = {
    # perfbench's tracer wraps every module binding of subgroups_of_order, and
    # its binding test pins the package re-export.
    ("group.py", "subgroups_of_order"),
    # perfbench's tracer resolves group.FiniteAction.build by getattr and its
    # binding test pins it; act and fixed_count are the rest of that class.
    ("group.py", "FiniteAction.build"),
    ("group.py", "FiniteAction.act"),
    ("group.py", "FiniteAction.fixed_count"),
    # perfbench's tracer counts len(result.halls) after build_hall_context.
    ("hall.py", "HallContext.halls"),
}


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
    read = _names_read(tree)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def _names_read(tree):
    """Every name the module reads, including names in string annotations,
    such as "Permutation | PermGroup"."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return read


def _private_imports(tree):
    """(line, name) of each private name the module imports from a module of
    the package, relatively or as ``hallfix.<module>``."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "hallfix")
            for alias in node.names if alias.name.startswith("_")]


def _private_definitions(tree):
    """(line, name) of each private function or class defined at the top level
    of the module, and of each private method of its top-level classes."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [(node.lineno, node.name) for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def _unread_private_definitions(trees):
    """(module, line, name) of the private definitions no module reads, as a
    name or as an attribute."""
    read = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [(module, line, name) for module, tree in sorted(trees.items())
            for line, name in _private_definitions(tree) if name not in read]


def _public_definitions(tree):
    """(line, name) of each public function or class defined at the top level
    of the module, and (line, "Class.method") of each public method or
    property of its top-level classes; dunders are out of scope."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                out.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(sub.lineno, f"{node.name}.{sub.name}") for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")]
    return out


def _unread_public_definitions(trees, allowed=frozenset()):
    """(module, line, name) of the public definitions outside ``allowed`` that
    no module but ``__init__.py`` reads: a top-level name as a name, as an
    attribute or in a string annotation, a method or property as an attribute."""
    names, attrs = set(), set()
    for module, tree in trees.items():
        if module != "__init__.py":
            names |= _names_read(tree)
            attrs |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= attrs
    return [(module, line, name) for module, tree in sorted(trees.items())
            for line, name in _public_definitions(tree)
            if (module, name) not in allowed
            and name.split(".")[-1] not in (attrs if "." in name else names)]


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


def test_modules_import_no_private_name():
    imported = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
                for line, name in _private_imports(ast.parse(path.read_text()))]
    assert imported == [], f"private names imported from another module: {imported}"


def test_the_check_sees_a_private_import():
    tree = ast.parse("from .group import (_grow, close)\n"
                     "from hallfix.perm import _Hidden\n"
                     "from os import _exit\n"
                     "from __future__ import annotations\n")
    assert _private_imports(tree) == [(1, "_grow"), (2, "_Hidden")]


def test_package_reads_every_private_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert sum(len(_private_definitions(tree)) for tree in trees.values()) > 0
    unread = _unread_private_definitions(trees)
    assert unread == [], f"private definitions nothing reads: {unread}"


def test_the_check_sees_an_unread_private_definition():
    trees = {"a.py": ast.parse("def _used():\n    pass\n"
                               "def _dead():\n    pass\n"
                               "class C:\n"
                               "    def _method(self):\n        return _used()\n"
                               "    def _stale(self):\n        pass\n"
                               "    def __len__(self):\n        return 0\n"),
             "b.py": ast.parse("def f(c):\n    return c._method()\n")}
    assert _unread_private_definitions(trees) == [("a.py", 3, "_dead"), ("a.py", 8, "_stale")]


def test_package_reads_every_public_definition():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    unread = _unread_public_definitions(trees, UNREAD_PUBLIC)
    assert unread == [], f"public definitions only the tests or nothing read: {unread}"
    stale = UNREAD_PUBLIC - {(module, name) for module, _, name
                             in _unread_public_definitions(trees)}
    assert stale == set(), f"allowlisted names the package now reads or lost: {stale}"


def test_the_check_sees_an_unread_public_definition():
    trees = {"a.py": ast.parse("def used():\n    pass\n"
                               "def dead():\n    pass\n"
                               "def pinned():\n    pass\n"
                               "class C:\n"
                               "    def read(self):\n        return used()\n"
                               "    def used(self):\n        pass\n"
                               "    def __len__(self):\n        return 0\n"
                               "    def _hidden(self):\n        pass\n"),
             "b.py": ast.parse("def f(c: 'C'):\n    return c.read()\n"),
             "__init__.py": ast.parse("from .a import dead\nf.used\n")}
    assert _unread_public_definitions(trees, {("a.py", "pinned")}) == [
        ("a.py", 3, "dead"), ("a.py", 10, "C.used"), ("b.py", 1, "f")]
