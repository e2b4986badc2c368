"""Layout of src/polyakit: no function, class, method, property,
dataclass field or slot that nothing in the package uses, and no import
from a higher layer.

A def or class at module level must be referenced somewhere in
src/polyakit outside its own body and outside polyakit/__init__.py (a
name, an attribute, or an import), or be exported from
polyakit/__init__.py and named in the row of its module in README's
library table, which documents it as library API.  A method or
property of a module-level class (dunders aside) must be read as an
attribute (`x.name`) somewhere in src/polyakit outside its own body;
exporting its class does not count.  A dataclass field or a
`__slots__` entry must be read as an attribute somewhere in
src/polyakit.  Code that only the tests use belongs in the test helpers
(fieldref.py, groupref.py, groupcorpus.py); `ALLOWED` holds the few
names that only bench/ reads, and does not apply to fields or slots.
Names are matched by identifier, so the check can miss an orphan that
shares its name with something in use, but never flags a used one.

The modules form layers, lowest first, and each imports only modules
below it, so no import cycle can form.

No module reads, as an attribute or an import, a single-underscore name
that only other modules define: a private name is read only where it is
defined, so what a module keeps private can change without the others.
"""

import ast
import re
from pathlib import Path

import polyakit

PACKAGE = Path(polyakit.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# The names only bench/ reads outside the tests; they leave src with
# ROADMAP item 5, the change that may touch bench/.
ALLOWED = {
    "cubicfield.element_valuation",  # traced by bench/tracer.py
    "modpoly.factor_monic_cubic",  # traced by bench/tracer.py
    "cubicfield.IntegralIdeal.is_unit_ideal",  # called by bench/checks.py
    "cubicfield.ideal_equal",  # called by bench/checks.py
}
LAYERS = ("intlinalg", "modpoly", "abelian", "permgroup", "artin", "cubicfield", "classgroup", "cli")


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


def _documented() -> dict[str, set[str]]:
    """For each module, the identifiers inside backticks in its row of
    README's library table."""
    table = (ROOT / "README.md").read_text().split("\n## Library layout\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `polyakit\.(\w+)` \|(.*)\|$", table, re.MULTILINE)
    return {
        module: set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", text))))
        for module, text in rows
    }


def _documented_exports() -> set[str]:
    """`module.name` for each name polyakit/__init__.py imports from a
    module whose README row names it."""
    documented = _documented()
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        f"{node.module}.{alias.name}"
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.module in documented
        for alias in node.names
        if alias.name in documented[node.module]
    }


def _orphans() -> set[str]:
    defs = []  # (qualified name, bare name, the def statement)
    uses = []  # (top-level statement, names it uses)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            uses.append((stmt, _names_used(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
    exported = _documented_exports()
    return {
        qual
        for qual, name, stmt in defs
        if qual not in exported
        and not any(name in names for other, names in uses if other is not stmt)
    }


def _orphan_methods() -> set[str]:
    methods = []  # (qualified name, bare name, the method's def)
    parts = []  # (statement, attributes it reads), each class split into its body
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            is_class = isinstance(stmt, ast.ClassDef)
            for item in stmt.body if is_class else [stmt]:
                attrs = {node.attr for node in ast.walk(item) if isinstance(node, ast.Attribute)}
                parts.append((item, attrs))
                if is_class and isinstance(item, ast.FunctionDef) and item.name[:2] != "__":
                    methods.append((f"{path.stem}.{stmt.name}.{item.name}", item.name, item))
    return {
        qual
        for qual, name, item in methods
        if not any(name in attrs for other, attrs in parts if other is not item)
    }


def test_every_module_level_def_is_used_or_exported():
    assert _orphans() - ALLOWED == set()


def test_every_method_and_property_is_used():
    assert _orphan_methods() - ALLOWED == set()


def test_allowlist_holds_only_orphans():
    assert ALLOWED <= _orphans() | _orphan_methods()


def test_allowlist_holds_only_names_bench_reads():
    bench = " ".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))
    used = set(re.findall(r"\w+", bench))
    assert {name.rsplit(".", 1)[1] for name in ALLOWED} <= used


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return False


def _unread_fields() -> set[str]:
    """`module.Class.name` for each dataclass field and `__slots__` entry
    of a module-level class that nothing in src/polyakit reads as an
    attribute (`x.name`, not as an assignment target)."""
    fields = []  # (qualified name, bare name)
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
        )
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = []
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and _is_dataclass(cls):
                    names.append(item.target.id)
                elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    names += [elt.value for elt in item.value.elts]
            fields += [(f"{path.stem}.{cls.name}.{name}", name) for name in names]
    return {qual for qual, name in fields if name not in reads}


def test_every_field_and_slot_is_read():
    """A dataclass field or a slot that nothing reads is state kept for no
    one: a report field no caller prints, or a cache no code consults."""
    assert _unread_fields() == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads() -> set[str]:
    """`module.name` for each single-underscore name the module reads as
    an attribute or imports, where the module does not define the name
    (as a def, class, argument or assignment target) and another module
    does."""
    defined, read = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs, reads = set(), set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.add(node.name)
            elif isinstance(node, ast.arg):
                defs.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defs.add(node.id)
            elif isinstance(node, ast.Attribute):
                (defs if isinstance(node.ctx, ast.Store) else reads).add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
        defined[path.stem] = {name for name in defs if _private(name)}
        read[path.stem] = {name for name in reads if _private(name)}
    return {
        f"{module}.{name}"
        for module, names in read.items()
        for name in names - defined[module]
        if any(name in defined[other] for other in defined if other != module)
    }


def test_no_module_reads_another_modules_private_name():
    assert _private_reads() == set()


def _package_imports(tree) -> set[str]:
    """The polyakit modules a module imports, anywhere in its body."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "polyakit." * (node.level > 0) + (node.module or "")
            names += [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("polyakit.")}


def test_modules_import_only_lower_layers():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYERS)
    for i, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert _package_imports(tree) <= set(LAYERS[:i]), name
