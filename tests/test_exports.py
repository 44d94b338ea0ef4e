import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import twisteta

MODULES = [f"twisteta.{m.name}" for m in pkgutil.iter_modules(twisteta.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from <module> import *``
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_module_computes_in_longdouble():
    # the package is float64 throughout, and its rounding bounds assume it:
    # numpy's longdouble is 80-bit on x86-64 Linux, a plain double under MSVC
    # and on Apple silicon, and software quad precision on aarch64 Linux
    source = Path(twisteta.__file__).parent
    wide = re.compile(r"longdouble|float96|float128")
    assert [path.name for path in sorted(source.rglob("*.py")) if wide.search(path.read_text())] == []
