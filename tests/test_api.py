import ast
import inspect
import re
from pathlib import Path

import dynseq

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_exported():
    public = {name for name, obj in vars(dynseq).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(dynseq.__all__)


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that the module never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound: set[str] = set()
    exported: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound.update(a.asname or a.name for a in stmt.names)
        elif (isinstance(stmt, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in stmt.targets)):
            exported = set(ast.literal_eval(stmt.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - exported)


def test_unused_imports_scan_finds_them():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\n"
                          "from __future__ import annotations\n") == ["a", "os", "z"]
    assert unused_imports("import os\nfrom x import y\n__all__ = ['y']\n"
                          "os.getcwd()\n") == []


def test_no_unused_imports():
    found = {}
    for folder in ("src/dynseq", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names = unused_imports(path.read_text())
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


def names_read(tree: ast.AST) -> set[str]:
    """Identifiers a module reads: names, attributes, imported names, and
    the words of its string constants other than docstrings (perfbench and
    ``__all__`` name functions in strings)."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            read.update(re.findall(r"\w+", node.value))
    return read


def dead_definitions(defining: list[str], others: list[str]) -> list[str]:
    """Functions, methods and classes defined in the ``defining`` sources
    that no source, of those or of ``others``, names anywhere but at their
    definition; dunder methods are exempt."""
    trees = [ast.parse(source) for source in defining]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    read = set().union(*map(names_read, trees + [ast.parse(s) for s in others]))
    return sorted(name for name in defined - read
                  if not (name.startswith("__") and name.endswith("__")))


def test_dead_definitions_scan_finds_them():
    source = ("class A:\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "    def __len__(self): return 0\n"
              "def helper():\n"
              "    \"helper is named only in its docstring\"\n"
              "A().used()\n")
    assert dead_definitions([source], []) == ["helper", "unused"]
    assert dead_definitions([source], ["from m import helper\n",
                                       "x.unused()\n"]) == []
    assert dead_definitions([source], ["TRACED = ('m.A.unused', 'helper')\n"
                                       ]) == []


def test_no_dead_definitions():
    def sources(*folders):
        return [path.read_text() for folder in folders
                for path in sorted((ROOT / folder).rglob("*.py"))]
    assert dead_definitions(sources("src/dynseq"),
                            sources("tests", "perfbench")) == []
