"""The traced benchmark run wraps every public function of these modules
(those for which inspect.isfunction holds) to time it.  A decorator that
turns a public function into another callable type, such as a
functools.lru_cache wrapper, would silently drop that function's per-layer
metrics, so every public callable other than a class must stay a plain
function; caches belong on private helpers.
"""

import importlib
import inspect
import json
from pathlib import Path

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


def test_benchmark_names_resolve():
    """Every per-layer metric of BENCHMARK.json that names a library object
    must resolve: <module>.<fn>.<stat> to a public plain function of
    homharm.<module> (the name the tracer records), checks.<name>.s to a
    check in SUITES.  SUITES entries stay (name, fn, tol) triples, the
    shape the benchmark runner unpacks."""
    from homharm.checks import SUITES

    for suite in SUITES.values():
        for entry in suite:
            assert isinstance(entry, tuple) and len(entry) == 3, entry
            name, fn, tol = entry
            assert isinstance(name, str) and callable(fn)
            assert isinstance(tol, (int, float))
    checks = {name for suite in SUITES.values() for name, _, _ in suite}
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in bench["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] == "checks" and len(parts) == 3:
            if parts[1] not in checks:
                missing.append(metric["name"])
        elif parts[0] in MODULES and len(parts) == 3:
            mod = importlib.import_module(f"homharm.{parts[0]}")
            fn = getattr(mod, parts[1], None)
            if not (inspect.isfunction(fn) and not parts[1].startswith("_")
                    and fn.__module__ == mod.__name__):
                missing.append(metric["name"])
    assert missing == []
