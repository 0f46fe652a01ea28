"""A dead-import check with the standard library's ast: no module of the
package, apart from __init__.py, which re-exports, imports a name it never
uses.  And an import-footprint guard: importing the command line loads
neither hashlib nor fractions nor importlib.resources."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import maxilat

PACKAGE = Path(maxilat.__file__).parent
PROBE = Path(__file__).with_name("import_probe.py")
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


def test_the_import_of_the_command_line_loads_no_heavy_module():
    """tests/import_probe.py in a fresh interpreter without site; the cone
    document it reads afterwards must load fractions, so the probe does see
    a lazy import."""
    proc = subprocess.run([sys.executable, "-E", "-S", str(PROBE),
                           str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert Path(report["package"]).resolve().parent == PACKAGE.resolve()
    assert report["loaded"] == []
    assert "fractions" in report["cone_loads"]
