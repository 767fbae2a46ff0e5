import importlib

import pytest


@pytest.mark.parametrize("module_name", ["invmark", "invmark.nn"])
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
