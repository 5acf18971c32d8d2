import ast
import inspect
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
