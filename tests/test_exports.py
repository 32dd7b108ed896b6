import dataclasses
import importlib
import pkgutil

import pytest

import quantlink

MODULES = [
    name
    for name in ["quantlink"] + [f"quantlink.{m.name}" for m in pkgutil.iter_modules(quantlink.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_every_dataclass_but_the_plan_is_frozen():
    # value objects are read-only; AllocationPlan waits until no caller reassigns its fields
    found = {
        f"{name}.{cls.__name__}": cls.__dataclass_params__.frozen
        for name in ["quantlink"] + [f"quantlink.{m.name}" for m in pkgutil.iter_modules(quantlink.__path__)]
        for cls in vars(importlib.import_module(name)).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == name
    }
    assert "quantlink.quantizer.ScalarQuantizer" in found and "quantlink.simulator._FrameLayout" in found
    assert [cls for cls, frozen in found.items() if not frozen] == ["quantlink.allocator.AllocationPlan"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
