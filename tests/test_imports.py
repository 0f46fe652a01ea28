"""A dead-import check with the standard library's ast: no module of the
package, apart from __init__.py, which re-exports, imports a name it never
uses."""

import ast
from pathlib import Path

import pytest

import maxilat

PACKAGE = Path(maxilat.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name an import binds that no expression reads;
    an attribute chain starts with a Name, so `mod.f` reads `mod`."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno,
                                  alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_check_finds_an_unused_name():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "d(os)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "b")]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_an_unused_name(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
