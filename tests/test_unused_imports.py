"""Every module-level import in ``src/cstlab`` is read or re-exported, and
every ``__all__`` entry names something the module binds.

No linter ships with the lab, so these AST passes stand in for the checks
that matter after a deletion: a name imported at module level must occur
in the module as a name (or an attribute's base) or be listed in
``__all__``, and a name listed in ``__all__`` must be bound at module level
by a def, a class, an assignment or an import.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cstlab"


def exported_names(tree: ast.Module) -> list[str]:
    exported = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            exported.extend(ast.literal_eval(stmt.value))
    return exported


def imported_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        imported.update((name, stmt.lineno) for name in imported_names(stmt))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(exported_names(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update(node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name))
        bound.update(imported_names(stmt))
    return [name for name in exported_names(tree) if name not in bound]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys)\n"
    assert unused_imports(source) == ["line 1: path"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_stale_export():
    source = (
        "import os\nfrom sys import argv as args\n"
        "def f(): pass\nclass C: pass\na = b = 1\nx, (y, z) = 1, (2, 3)\nt: int = 0\n"
        "__all__ = ['os', 'args', 'f', 'C', 'a', 'b', 'x', 'z', 't', 'gone', 'argv']\n"
    )
    assert unbound_exports(source) == ["gone", "argv"]
