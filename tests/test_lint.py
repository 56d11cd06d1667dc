"""Names a module imports and never uses, definitions nothing names, and
attributes nothing reads.

No linter is a dependency, so these are small `ast` passes. Imports are
checked in every module of `src/ntnmc` but `__init__.py`, whose imports are
the package's API, and in every test module. Every function, method and
class defined in `src/ntnmc` must be named in `src/ntnmc`, `tests` or
`perfbench`, and every attribute a module of `src/ntnmc` stores must be
read there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ntnmc").glob("*.py"))
MODULES = sorted([path for path in PACKAGE if path.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def unused_imports(source):
    """The names that `source` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom math import ceil, pi\n"
              "from __future__ import annotations\nprint(pi, os.sep)\n")
    assert unused_imports(source) == ["ceil", "osp"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source):
    """Every name `source` reads or imports, and every string constant,
    since the benchmark patches attributes by name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced_definitions(defining, reading):
    """The functions, methods and classes defined in the sources
    `defining` that no source of `reading` names, sorted; dunder methods
    are called by the language and are left out."""
    named = set().union(*map(referenced_names, reading))
    defined = {node.name for source in defining
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))}
    return sorted(defined - named)


def test_unreferenced_definitions_are_found():
    package = ("class Queue:\n    def push(self): pass\n"
               "    def __repr__(self): return ''\n"
               "def _left_over(): pass\ndef patched(): pass\n")
    bench = "Queue().push()\nsetattr(module, 'patched', None)\n"
    assert unreferenced_definitions([package], [package, bench]) == [
        "_left_over"]


def test_every_definition_is_referenced():
    assert unreferenced_definitions(
        [path.read_text() for path in PACKAGE],
        [path.read_text() for path in READERS]) == []


def stored_attributes(source):
    """The attributes `source` stores, as `obj.x = ...` or `obj.x += ...`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}


def read_attributes(source):
    """The attributes `source` reads, as `obj.x` or by a name in a string
    constant (`getattr`, `attrgetter`); a `__slots__` entry is no read."""
    tree = ast.parse(source)
    slots = {id(const) for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in node.targets)
             for const in ast.walk(node.value)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots):
            names.add(node.value)
    return names


def unread_attributes(storing, reading):
    """The attributes the sources `storing` store that no source of
    `reading` reads, sorted."""
    stored = set().union(*map(stored_attributes, storing))
    return sorted(stored - set().union(*map(read_attributes, reading)))


def test_unread_attributes_are_found():
    package = ("class Queue:\n"
               "    __slots__ = ('bits', 'count', 'stamp', 'named')\n"
               "    def __init__(self):\n"
               "        self.bits = self.count = 0\n"
               "        self.stamp, self.named = None, 1\n"
               "    def push(self, bits):\n"
               "        self.bits += bits\n        self.count += 1\n"
               "        return self.bits\n")
    bench = "getattr(queue, 'named')\n"
    assert unread_attributes([package], [package, bench]) == [
        "count", "stamp"]


def test_every_stored_attribute_is_read():
    assert unread_attributes(
        [path.read_text() for path in PACKAGE],
        [path.read_text() for path in READERS]) == []
