"""Every name a module lists in `__all__` resolves, so a retired name cannot linger there."""

import importlib
import pkgutil

import pytest

import nlsdamp

MODULES = ["nlsdamp"] + [f"nlsdamp.{m.name}" for m in pkgutil.iter_modules(nlsdamp.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)
