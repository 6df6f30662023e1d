"""The package depends on the Python standard library alone: every
absolute import in src/exactmatch names a standard-library module or the
package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exactmatch"
MODULES = sorted(PACKAGE.glob("*.py"))


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
