import importlib
import pkgutil

import pytest

import quantlink

MODULES = [
    name
    for name in ["quantlink"] + [f"quantlink.{m.name}" for m in pkgutil.iter_modules(quantlink.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
