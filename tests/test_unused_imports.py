"""Every module-level import in ``src/cstlab`` is read or re-exported.

No linter ships with the lab, so this AST pass stands in for the one check
that matters after a deletion: a name imported at module level must occur
in the module as a name (or an attribute's base) or be listed in
``__all__``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cstlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            names = [alias.asname or alias.name for alias in stmt.names]
        else:
            continue
        imported.update((name, stmt.lineno) for name in names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            exported.update(ast.literal_eval(stmt.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys)\n"
    assert unused_imports(source) == ["line 1: path"]
