"""Every public top-level function or class of the package has a caller in
the package itself: code that only tests call belongs in the tests."""

import ast
from pathlib import Path

import dobcbf

SRC = Path(dobcbf.__file__).resolve().parent


def used_names(node) -> set:
    """Names read in node: bare names and attribute names (`mod.name`).

    Import statements bind names without using them, so a re-export in
    `__init__.py` is not a caller.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_public_definitions_have_library_callers():
    statements = []  # (module, top-level statement, names it uses)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.name, stmt, used_names(stmt)) for stmt in tree.body]
    uncalled = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for _, other, names in statements
                   if other is not stmt):
            uncalled.append(f"{module}: {stmt.name}")
    assert not uncalled, f"no caller in src/dobcbf: {uncalled}"
