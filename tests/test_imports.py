"""Every name a calad module imports is used in that module or re-exported
through its ``__all__``, so deleting a function cannot leave a stray import
behind. Every top-level function, class and constant a calad module defines
is used somewhere, so deleting its last caller cannot leave it behind. No
module reads another object's private attributes, so a module's
underscored names can change without breaking its callers."""

import ast
from pathlib import Path

import pytest

import calad

MODULES = sorted(Path(calad.__file__).parent.glob("*.py"))
# where a calad definition may be used: the package, its tests, its benchmark
READERS = MODULES + sorted(Path(__file__).parent.glob("*.py")) + sorted(
    (Path(__file__).parents[1] / "perfbench").glob("*.py"))


def imported_names(tree):
    """(name, line) for every name bound by an import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"


# underscored names that the Python library reference documents as public
DOCUMENTED_PUBLIC = {"os._exit"}


def private_reads(tree):
    """(expression, line) for every read of a private attribute, one with
    a leading underscore but not a dunder, of anything but self or cls,
    other than the DOCUMENTED_PUBLIC expressions."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        if ast.unparse(node) in DOCUMENTED_PUBLIC:
            continue
        yield ast.unparse(node), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_reads(path):
    tree = ast.parse(path.read_text())
    reads = [f"{expr} (line {line})" for expr, line in private_reads(tree)]
    assert not reads, f"{path.name} reads private attributes: {', '.join(reads)}"


def defined_names(stmt):
    """Names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def referenced_names(stmt):
    """Names a statement reads, bare or as an attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_used():
    # by name: a use in a function's own body, such as recursion, does not count
    defined, used = {}, set()
    for path in READERS:
        for stmt in ast.parse(path.read_text()).body:
            own = defined_names(stmt) if path in MODULES else set()
            for name in own - {n for n in own if n.startswith("__")}:
                defined[name] = f"{path.name}:{stmt.lineno}"
            used.update(set(referenced_names(stmt)) - own)
    orphans = [f"{name} ({where})" for name, where in defined.items() if name not in used]
    assert not orphans, f"defined but never used: {', '.join(orphans)}"
