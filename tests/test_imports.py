"""Every module of the package uses each name it imports, and only
protocol.py knows the entries a layout is made of.

No linter is a dependency, so this walks each module's syntax tree with
the standard library's ast.  A name counts as used when it appears as a
name anywhere in the module, annotations included.  An import kept only
so that another tool can find the name (perfbench's tracer rebinds traced
names on the module) says so with `# noqa: F401` on the alias's own line.
"""

import ast
from pathlib import Path

import pytest

import intraport

_PACKAGE = Path(intraport.__file__).parent
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never uses and
    whose line carries no `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def imported_names(source: str) -> set[str]:
    """Every name a module imports from another, as it is spelled there."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


# A layout's entries: the modules that read layouts use Layout's columns,
# residue and message channels instead, so the format stays in protocol.py.
_LAYOUT_ENTRIES = {"MessageOut", "ResidueOut", "ExpectedOut"}


@pytest.mark.parametrize("name", ["cli.py", "eavesdrop.py", "search.py"])
def test_layout_readers_do_not_import_layout_entries(name):
    source = (_PACKAGE / name).read_text(encoding="utf-8")
    assert imported_names(source) & _LAYOUT_ENTRIES == set()


def test_imported_names_finds_names_imported_from_a_package():
    source = ("from .protocol import (\n    Layout,\n    MessageOut as M,\n)\n"
              "import intraport.protocol\n")
    assert imported_names(source) == {"Layout", "MessageOut", "intraport.protocol"}


def test_the_package_has_modules():
    assert {p.name for p in _MODULES} >= {"protocol.py", "search.py", "eavesdrop.py"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_an_unused_name_and_honours_noqa():
    source = ("from dataclasses import dataclass, field\n"
              "import os.path\n"
              "from json import dumps  # noqa: F401\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n")
    assert unused_imports(source) == [(1, "field"), (2, "os")]
