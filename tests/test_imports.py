"""Every name a module of the package imports is used in that module, no
module imports a private name from another, every private function, class
and method it defines is read in the package, and every public one, and
every field of a ``typing.NamedTuple``, is read by a module other than
``__init__.py``.  The name checks cannot tell two attributes of one name
apart, so a run-time check also traces the commands and requires each public
function, method and field to be entered or read: the public surface is what
a command reaches."""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

from hallfix import cli
from test_work_budget import MULT_ADD, SMALL, command_lines

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

#: Public definitions that the name check sees read but no command reaches:
#: only FiniteAction.build reads PermGroup.identity.
UNREACHED = UNREAD_PUBLIC | {("group.py", "PermGroup.identity")}


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
    of the module, and (line, "Class.member") of each public method or
    property of its top-level classes and each field of its top-level
    ``NamedTuple`` classes; dunders are out of scope."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                out.append((node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                named_tuple = any(ast.unparse(base).split(".")[-1] == "NamedTuple"
                                  for base in node.bases)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = sub.name
                    elif (named_tuple and isinstance(sub, ast.AnnAssign)
                          and isinstance(sub.target, ast.Name)):
                        name = sub.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        out.append((sub.lineno, f"{node.name}.{name}"))
    return out


def _unread_public_definitions(trees, allowed=frozenset()):
    """(module, line, name) of the public definitions outside ``allowed`` that
    no module but ``__init__.py`` reads: a top-level name as a name, as an
    attribute or in a string annotation, a method, property or field as an
    attribute."""
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


def _code(member):
    """The code object run by a function, method, property or cached property."""
    for attr in ("fget", "func", "__func__"):
        member = getattr(member, attr, member)
    return member.__code__


def _unreached_definitions(trees, modules, run):
    """(module, line, name) of the public functions, methods, properties and
    ``NamedTuple`` fields whose code ``run()`` never enters or that it never
    reads as an attribute.  ``modules`` holds the
    loaded module of each tree.  ``sys.settrace`` sees each code object
    entered, and a recording property stands in for each field during the
    run; the previous tracer and the fields are put back after it.  Classes
    are left to the name check."""
    reached, codes, fields = set(), {}, []
    for module, tree in trees.items():
        for line, name in _public_definitions(tree):
            key, (owner, _, attr) = (module, line, name), name.rpartition(".")
            holder = getattr(modules[module], owner) if owner else modules[module]
            member = vars(holder)[attr]
            if attr in getattr(holder, "_fields", ()):
                fields.append((holder, attr, member, key))
            elif not isinstance(member, type):
                codes[key] = _code(member)

    def recording(getter, key):
        def read(self):
            reached.add(key)
            return getter.__get__(self)
        return property(read)

    previous = sys.gettrace()
    try:
        for holder, attr, getter, key in fields:
            setattr(holder, attr, recording(getter, key))
        sys.settrace(lambda frame, event, arg: reached.add(frame.f_code))
        run()
    finally:
        sys.settrace(previous)
        for holder, attr, getter, _ in fields:
            setattr(holder, attr, getter)
    return sorted([key for key, code in codes.items() if code not in reached]
                  + [key for *_, key in fields if key not in reached])


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


def test_the_check_sees_an_unread_field():
    trees = {"a.py": ast.parse("import typing\n"
                               "class Row(typing.NamedTuple):\n"
                               "    kept: int\n"
                               "    dropped: int = 0\n"
                               "    def total(self):\n        return self.kept\n"
                               "class Plain:\n"
                               "    note: str = ''\n"),
             "b.py": ast.parse("def f(r: 'Row', p: 'Plain'):\n    return r.total(), f\n"),
             "__init__.py": ast.parse("r.dropped\n")}
    assert _unread_public_definitions(trees) == [("a.py", 4, "Row.dropped")]


def test_commands_reach_every_public_definition(tmp_path, capsys):
    """The budget's command lines, without its costly Hall searches, plus
    the paths they miss: --radical, text reports, an unknown group and an
    unknown option."""
    lines = command_lines(tmp_path, MULT_ADD + SMALL) + [
        ["verify-mult", "--group", "PGL(2,9)", "--pi", "2", "--radical"],
        ["lambda", "--group", "A5", "--pi", "3"],
        ["lambda", "--group", "M11", "--pi", "2"],
        ["scan", "--bogus"]]

    def run():
        for argv in lines:
            try:
                cli.main(argv)
            except SystemExit:  # a usage error
                pass

    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    modules = {name: sys.modules["hallfix" if name == "__init__.py" else f"hallfix.{name[:-3]}"]
               for name in trees}
    unreached = _unreached_definitions(trees, modules, run)
    capsys.readouterr()
    missed = [(module, line, name) for module, line, name in unreached
              if (module, name) not in UNREACHED]
    assert missed == [], f"public definitions no command reaches: {missed}"
    stale = UNREACHED - {(module, name) for module, _, name in unreached}
    assert stale == set(), f"allowlisted names a command now reaches or that are gone: {stale}"


def test_the_check_sees_an_unreached_definition_whose_name_is_read():
    source = ("import typing\n"
              "class Walk:\n"
              "    def order(self):\n        return 0\n"
              "class Group:\n"
              "    def __init__(self):\n        self.order = 6\n"
              "class Row(typing.NamedTuple):\n"
              "    kept: int\n"
              "    order: int = 0\n"
              "def run():\n    return Row(Group().order).kept\n")
    module = ModuleType("a")
    exec(compile(source, "a.py", "exec"), vars(module))
    trees, tracer = {"a.py": ast.parse(source)}, sys.gettrace()
    # Both members named order pass the name check: Group's order is read.
    assert _unread_public_definitions(trees) == [("a.py", 2, "Walk"), ("a.py", 11, "run")]
    assert _unreached_definitions(trees, {"a.py": module}, module.run) == [
        ("a.py", 3, "Walk.order"), ("a.py", 10, "Row.order")]
    assert sys.gettrace() is tracer and type(vars(module.Row)["order"]) is not property
