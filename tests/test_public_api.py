"""The traced benchmark run wraps every public function of these modules
(those for which inspect.isfunction holds) to time it.  A decorator that
turns a public function into another callable type, such as a
functools.lru_cache wrapper, would silently drop that function's per-layer
metrics, so every public callable other than a class must stay a plain
function; caches belong on private helpers.
"""

import importlib
import inspect

import pytest

MODULES = ("groups", "harmonics", "transforms", "fields", "spectral_conv",
           "nonlin", "se_kernels", "checks")


@pytest.mark.parametrize("short", MODULES)
def test_public_callables_are_plain_functions(short):
    mod = importlib.import_module(f"homharm.{short}")
    offenders = [name for name, obj in vars(mod).items()
                 if not name.startswith("_") and callable(obj)
                 and not inspect.isclass(obj)
                 and getattr(obj, "__module__", None) == mod.__name__
                 and not inspect.isfunction(obj)]
    assert offenders == []
