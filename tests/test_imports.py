"""Every name a package module imports is used in that module, every
public function, class and method of the package is used somewhere, and
the package needs nothing beyond the standard library and click and
draws no random numbers."""

import ast
import pathlib
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "dihedralcat"
MODULES = sorted(SOURCE.glob("*.py"))
# where a use of a package name counts
SEARCHED = sorted(p for d in ("src", "tests", "perfbench")
                  for p in (ROOT / d).rglob("*.py"))


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


def imported_modules(source):
    """Top-level modules that source imports by absolute name, at any
    depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out.update(name.partition(".")[0] for name in names)
    return out


def foreign_imports(source):
    """Top-level modules that source imports, at any depth, from outside
    the standard library, click and dihedralcat."""
    allowed = set(sys.stdlib_module_names) | {"click", "dihedralcat"}
    return sorted(imported_modules(source) - allowed)


def test_foreign_imports_finds_a_third_party_module():
    source = ("from __future__ import annotations\n"
              "import os.path, sympy.core\n"
              "from click import echo\n"
              "from . import ring\n"
              "from .series import QSeries\n"
              "def homfly():\n"
              "    from numpy import array\n")
    assert foreign_imports(source) == ["numpy", "sympy"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_the_standard_library_and_click(path):
    assert foreign_imports(path.read_text()) == [], path.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_random(path):
    # every verdict is exact and deterministic: no answer hangs on a seed
    assert "random" not in imported_modules(path.read_text()), path.name


def references(node):
    """Counter of the names read under an AST node: names, attributes,
    imported names and the dotted parts of string constants (getattr and
    metric names)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def public_definitions(tree):
    """The public module-level functions and classes of a module and the
    public methods of its classes, as AST nodes; click commands, which the
    command line reaches by name, are left out."""
    def command(node):
        return any(isinstance(dec, ast.Call) and isinstance(
            dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
            for dec in node.decorator_list)

    kinds = (ast.FunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if isinstance(node, kinds):
            out.append(node)
            if isinstance(node, ast.ClassDef):
                out.extend(sub for sub in node.body
                           if isinstance(sub, ast.FunctionDef))
    return [node for node in out
            if not node.name.startswith("_") and not command(node)]


def unused_definitions(sources, searched):
    """(module, name) of every public definition in the sources (name ->
    text) that no text of searched reads outside its own body."""
    used = Counter()
    for text in searched:
        used += references(ast.parse(text))
    out = []
    for module, text in sorted(sources.items()):
        for node in public_definitions(ast.parse(text)):
            if used[node.name] <= references(node)[node.name]:
                out.append((module, node.name))
    return out


def test_unused_definitions_finds_a_dead_name():
    lib = ("import click\n"
           "def used(): return helper()\n"
           "def helper(): return helper\n"
           "def dead(n): return dead(n - 1)\n"
           "class Box:\n"
           "    def get(self): return 1\n"
           "    def drop(self): return 0\n"
           "@click.group()\n"
           "def main(): pass\n"
           "@main.command()\n"
           "def run(): pass\n")
    caller = "from lib import used, Box\nused(); Box().get(); getattr(x, 'y')"
    assert unused_definitions({"lib": lib}, [lib, caller]) == [
        ("lib", "dead"), ("lib", "drop")]


def test_every_public_definition_is_used():
    sources = {path.name: path.read_text() for path in MODULES}
    searched = [path.read_text() for path in SEARCHED]
    assert unused_definitions(sources, searched) == []
