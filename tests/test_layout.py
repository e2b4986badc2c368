"""Layout of src/polyakit: no module-level function or class that nothing
in the package uses.

A def or class at module level must be referenced somewhere in
src/polyakit outside its own body (a name, an attribute, or an import)
or be exported from polyakit/__init__.py.  Code that only the tests use
belongs in the test helpers (fieldref.py, groupcorpus.py).  Names are
matched by identifier, so the check can miss an orphan that shares its
name with something in use, but never flags a used one.
"""

import ast
from pathlib import Path

import polyakit

PACKAGE = Path(polyakit.__file__).parent
# wrapped by bench/tracer.py as the per-prime valuation layer
ALLOWED = {"cubicfield.element_valuation"}


def _names_used(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _orphans() -> set[str]:
    defs = []  # (qualified name, bare name, the def statement)
    uses = []  # (top-level statement, names it uses)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            uses.append((stmt, _names_used(stmt)))
            if path.stem != "__init__" and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
    return {
        qual
        for qual, name, stmt in defs
        if not any(name in names for other, names in uses if other is not stmt)
    }


def test_every_module_level_def_is_used_or_exported():
    assert _orphans() - ALLOWED == set()


def test_allowlist_holds_only_orphans():
    assert ALLOWED <= _orphans()
