"""Every public definition of the package has a caller in the package
itself: code that only tests call belongs in the tests.

A top-level function or class needs a statement that names it.  A public
method, property or annotated field (of a dataclass or NamedTuple) of a
public class needs a statement other than its own definition that reads it
as an attribute (`obj.name`) or passes it as a keyword (`Cls(name=...)`).
"""

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


def member_uses(node) -> set:
    """Names that node reads as an attribute or passes as a keyword."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            out.add(sub.arg)
    return out


def member_name(stmt) -> str | None:
    """The name that a class-body statement defines as a public member."""
    if isinstance(stmt, ast.FunctionDef):
        name = stmt.name
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        name = stmt.target.id
    else:
        return None
    return None if name.startswith("_") else name


def module_statements() -> list:
    """(module, top-level statement) for every module of the package."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [(path.name, stmt) for stmt in tree.body]
    return out


def test_public_definitions_have_library_callers():
    statements = [(module, stmt, used_names(stmt))
                  for module, stmt in module_statements()]
    uncalled = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in names for _, other, names in statements
                   if other is not stmt):
            uncalled.append(f"{module}: {stmt.name}")
    assert not uncalled, f"no caller in src/dobcbf: {uncalled}"


def test_public_class_members_have_library_callers():
    # a class body is split into its member statements, so that one
    # method's use of another member counts and a member's own body does not
    units = []
    for module, stmt in module_statements():
        if isinstance(stmt, ast.ClassDef):
            units += [(module, stmt.name, sub) for sub in stmt.body]
        else:
            units.append((module, None, stmt))
    uses = [(stmt, member_uses(stmt)) for _, _, stmt in units]
    uncalled = []
    for module, cls, stmt in units:
        name = member_name(stmt) if cls and not cls.startswith("_") else None
        if name is not None and not any(name in names for other, names in uses
                                        if other is not stmt):
            uncalled.append(f"{module}: {cls}.{name}")
    assert not uncalled, f"no caller in src/dobcbf: {uncalled}"
