"""Every name a calad module imports is used in that module or re-exported
through its ``__all__``, so deleting a function cannot leave a stray import
behind. No module reads another object's private attributes, so a module's
underscored names can change without breaking its callers."""

import ast
from pathlib import Path

import pytest

import calad

MODULES = sorted(Path(calad.__file__).parent.glob("*.py"))


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


def private_reads(tree):
    """(expression, line) for every read of a private attribute, one with
    a leading underscore but not a dunder, of anything but self or cls."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        yield ast.unparse(node), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_reads(path):
    tree = ast.parse(path.read_text())
    reads = [f"{expr} (line {line})" for expr, line in private_reads(tree)]
    assert not reads, f"{path.name} reads private attributes: {', '.join(reads)}"
