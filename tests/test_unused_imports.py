"""Every module-level import in ``src/cstlab`` is read or re-exported,
every ``__all__`` entry names something the module binds, and every
module-level private def or class is referenced somewhere in the package.

No linter ships with the lab, so these AST passes stand in for the checks
that matter after a deletion: a name imported at module level must occur
in the module as a name (or an attribute's base) or be listed in
``__all__``; a name listed in ``__all__`` must be bound at module level
by a def, a class, an assignment or an import; and a helper named with a
leading underscore must occur, as a name or an attribute, in some
module-level statement of the package other than its own definition.
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


def read_names(stmt: ast.stmt) -> set[str]:
    """The names and attribute names that *stmt* reads or writes."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def orphaned_private_defs(sources: dict[str, str]) -> list[str]:
    """``<module>: <name>`` for each module-level def or class named with
    one leading ``_`` that no other module-level statement of *sources*
    (module name -> source) names."""
    defs = []
    statements = []
    for module, source in sorted(sources.items()):
        for stmt in ast.parse(source).body:
            statements.append((stmt, read_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                stmt.name.startswith("_") and not stmt.name.startswith("__")
            ):
                defs.append((module, stmt))
    return [
        f"{module}: {stmt.name}"
        for module, stmt in defs
        if not any(other is not stmt and stmt.name in names for other, names in statements)
    ]


def test_no_orphaned_private_defs():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert orphaned_private_defs(sources) == []


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": (
            "def _used(): pass\ndef _orphan(): pass\ndef _recurse(): return _recurse()\n"
            "class _Read: pass\ndef __getattr__(name): pass\ndef public(): pass\n"
        ),
        "b.py": "from a import _used\nimport a\n_used()\nx = a._Read\n",
    }
    assert orphaned_private_defs(sources) == ["a.py: _orphan", "a.py: _recurse"]
