import importlib
import pkgutil

import pytest

import factorrace

MODULES = ["factorrace"] + [f"factorrace.{m.name}" for m in pkgutil.iter_modules(factorrace.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
