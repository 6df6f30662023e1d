"""The package depends on the Python standard library alone: every
absolute import in src/exactmatch names a standard-library module or the
package itself. No module, test or demo imports a name it never uses. The
package exports exactly the public names its __init__ imports."""

import ast
import sys
from pathlib import Path

import pytest

import exactmatch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exactmatch"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"exactmatch"}
    outside = sorted({name for name in absolute_imports(path)
                      if name.split(".")[0] not in allowed})
    assert not outside, f"{path.name} imports {outside}"


def test_all_lists_exactly_the_public_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(exactmatch.__all__) == public
    namespace = {}
    exec("from exactmatch import *", namespace)
    assert set(exactmatch.__all__) <= set(namespace)


def unused_imports(path):
    """Names the file imports and never reads. A name listed in __all__,
    or imported on a line marked `# noqa: F401`, counts as used."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import json as js\n"
                    "from random import (\n"
                    "    Random,\n"
                    "    choice,  # noqa: F401\n"
                    "    shuffle,\n"
                    ")\n"
                    "from math import pi, tau\n"
                    "__all__ = ['pi']\n"
                    "print(os.sep, Random)\n")
    assert unused_imports(path) == [(3, "js"), (7, "shuffle"), (9, "tau")]


def test_sources_are_found():
    names = {path.parent.name for path in SOURCES}
    assert names == {"exactmatch", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert not unused_imports(path), f"{path.name} imports names it never uses"
