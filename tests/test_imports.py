"""Two dead-code checks with the standard library's ast: no module of the
package, apart from __init__.py, which re-exports, imports a name it never
uses, and no module, top-level function or class of the package is
referenced only from outside it.  And an import-footprint guard: importing
the command line loads neither hashlib nor fractions nor
importlib.resources."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maxilat

PACKAGE = Path(maxilat.__file__).parent
PROBE = Path(__file__).with_name("import_probe.py")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")

# The definitions that nothing in the package references but that stay:
# perfbench/layertrace.py patches each of them by name, so removing one
# breaks the traced benchmark run in CI.  The same holds for the methods
# MaxMapSpace.join and FilterSelection.fsets, which this check, going by
# top-level names, does not see.
UNREFERENCED_ON_PURPOSE = {
    "io.fixture_poset",             # patched for the io.fixture span
    "maxitive.from_ideal_family",   # patched for maxitive.ideal_family
    "maxitive.ideal_family_of",     # patched for maxitive.ideal_family
    "residuation.theorem_5_4",      # patched for residuation.thm_5_4
}


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


def unreferenced(sources, roots=()):
    """The modules ("module") and top-level functions and classes
    ("module.name") of sources, a dict of module name -> source, that no
    other top-level statement of the sources references: a module by a
    relative import of it, a definition by a Name or an attribute of its
    name.  A definition's references to itself do not count.  roots are the
    names that something outside the sources references, in the same
    form."""
    modules, definitions, statements = set(), [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    # `from .m import x` names m, `from . import m` names m
                    modules.update([node.module] if node.module else
                                   [alias.name for alias in node.names])
            statements.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((f"{module}.{stmt.name}", stmt))
    found = [module for module in sources if module not in modules]
    for qualified, stmt in definitions:
        name = qualified.rsplit(".", 1)[1]
        if not any(name in names for other, names in statements
                   if other is not stmt):
            found.append(qualified)
    return sorted(set(found) - set(roots))


def entry_points():
    """The modules and functions that pyproject.toml's console scripts
    name, such as "cli" and "cli.main" for maxilat.cli:main."""
    out = set()
    for module, function in re.findall(r'"maxilat\.(\w+):(\w+)"',
                                       PYPROJECT.read_text("utf-8")):
        out |= {module, f"{module}.{function}"}
    return out


def test_the_reference_check_finds_an_unreferenced_definition():
    # unused() calls only itself, and no module imports module b
    source = ("def used():\n    pass\n\n\ndef unused():\n    unused()\n"
              "\n\nX = used()\n")
    assert unreferenced({"a": source}, roots={"a"}) == ["a.unused"]
    assert unreferenced({"a": source, "b": "from .a import X\n"}) == [
        "a.unused", "b"]


def test_nothing_in_the_package_is_referenced_only_from_outside():
    sources = {name[:-3]: (PACKAGE / name).read_text(encoding="utf-8")
               for name in MODULES}
    assert entry_points() == {"cli", "cli.main"}
    assert unreferenced(sources, entry_points()) == sorted(
        UNREFERENCED_ON_PURPOSE)


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
