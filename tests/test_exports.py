import importlib
import pkgutil

import pytest

import twisteta

MODULES = [f"twisteta.{m.name}" for m in pkgutil.iter_modules(twisteta.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from <module> import *``
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
