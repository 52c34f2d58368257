"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dihedralcat"
MODULES = sorted(SOURCE.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that nothing else in source reads;
    __future__ imports and names listed in __all__ are not counted."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_finds_a_dead_name():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport sys\n"
              "from .x import a, b as c\n"
              "print(sys.argv, a)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


def test_every_module_is_checked():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == [], path.name
