import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module_name", ["invmark", "invmark.nn"])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Bare and imported names a module uses, and the attribute names it reads
    (``x.copy`` reads ``copy``); comments and docstrings are not part of the
    tree's references."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names, attributes


def _traced_names() -> set[str]:
    """String entries of perfbench's TRACED table, which patches functions by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def _outside_references() -> tuple[set[str], set[str]]:
    """Names and attribute names referenced by src/ (package __init__
    re-exports aside), perfbench (its TRACED table's names included) and the
    acceptance suite."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    names, attributes = _traced_names(), set()
    for path in files:
        file_names, file_attributes = _references(ast.parse(path.read_text()))
        names |= file_names
        attributes |= file_attributes
    return names, attributes


def test_every_export_has_a_caller_outside_the_unit_tests():
    referenced = set().union(*_outside_references())
    for module_name in ("invmark", "invmark.nn"):
        exported = importlib.import_module(module_name).__all__
        assert [name for name in exported if name not in referenced] == [], module_name


def _definitions(tree: ast.Module):
    """Top-level functions and class methods of a module, as (qualified name,
    name, whether it is a method)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, True


# Methods that Python itself calls: construction, dataclass set-up, ==, hash().
_IMPLICIT_METHODS = {"__init__", "__post_init__", "__eq__", "__hash__"}


def test_every_function_and_method_has_a_caller_outside_the_unit_tests():
    # A function is called by name or as a module attribute; a method only as
    # an attribute (``x.copy``), so a bare name that matches it does not count.
    names, attributes = _outside_references()
    uncalled = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for qualified, name, method in _definitions(ast.parse(path.read_text())):
            if method:
                called = name in attributes or name in _IMPLICIT_METHODS
            else:
                called = name in names or name in attributes
            if not called:
                uncalled.append(f"{path.relative_to(ROOT / 'src')}:{qualified}")
    assert uncalled == []
