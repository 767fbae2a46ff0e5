import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module_name", ["invmark", "invmark.nn"])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names, attributes and imported names a module uses; comments and
    docstrings are not part of the tree's references."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def _traced_names() -> set[str]:
    """String entries of perfbench's TRACED table, which patches functions by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def _outside_references() -> set[str]:
    """Names referenced by src/ (package __init__ re-exports aside), perfbench
    (its TRACED table included) and the acceptance suite."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    referenced = _traced_names()
    for path in files:
        referenced |= _referenced_names(ast.parse(path.read_text()))
    return referenced


def test_every_export_has_a_caller_outside_the_unit_tests():
    referenced = _outside_references()
    for module_name in ("invmark", "invmark.nn"):
        exported = importlib.import_module(module_name).__all__
        assert [name for name in exported if name not in referenced] == [], module_name


def _definitions(tree: ast.Module):
    """Top-level functions and class methods of a module, as (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_every_function_and_method_has_a_caller_outside_the_unit_tests():
    referenced = _outside_references()
    uncalled = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for qualified, name in _definitions(ast.parse(path.read_text())):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced:
                uncalled.append(f"{path.relative_to(ROOT / 'src')}:{qualified}")
    assert uncalled == []
