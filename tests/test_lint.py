"""Names a module imports and never uses.

No linter is a dependency, so this is a small `ast` pass over every module
of `src/ntnmc` but `__init__.py`, whose imports are the package's API, and
over every test module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([path for path in (ROOT / "src" / "ntnmc").glob("*.py")
                  if path.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


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
