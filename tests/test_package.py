import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter

import pytest

import factorrace

MODULES = ["factorrace"] + [f"factorrace.{m.name}" for m in pkgutil.iter_modules(factorrace.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_each_public_name_is_declared_once():
    """A public name sits in the `__all__` of the one module that defines
    it, the package's own included, so no list re-exports another's."""
    counts = Counter(n for name in MODULES for n in getattr(importlib.import_module(name), "__all__", ()))
    assert sorted(n for n, c in counts.items() if c > 1) == []


@pytest.mark.parametrize("name", MODULES)
def test_each_exported_function_or_class_is_defined_in_its_module(name):
    """A function or class in a module's `__all__` has that module as its
    `__module__`, so a name moved to another module leaves no re-export
    behind in the old one's list."""
    module = importlib.import_module(name)
    exported = (getattr(module, n) for n in getattr(module, "__all__", ()))
    assert [f.__name__ for f in exported if callable(f) and f.__module__ != name] == []


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_import_sets_the_openblas_default(given, expected):
    """`import factorrace` sets OPENBLAS_NUM_THREADS=1 when it is unset and
    keeps a caller's value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    src = os.path.dirname(os.path.dirname(factorrace.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import os, factorrace\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
