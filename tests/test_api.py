import importlib
import pkgutil

import pytest

import lsalab

MODULES = ["lsalab"] + [f"lsalab.{m.name}" for m in pkgutil.iter_modules(lsalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= namespace.keys()
