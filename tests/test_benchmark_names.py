"""Every per-layer metric that BENCHMARK.json names has a function to measure.

The traced benchmark run reports ``<module>.<fn>.<what>`` only for public
functions that ``probemax.<module>`` defines itself (and, for
``distributions.<method>``, for public methods of its classes).  A metric
whose function was renamed, moved or deleted goes missing from the traced
result, and the run's output no longer lists every metric it declares.
``trace.*`` metrics describe the tracer itself and name no function.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.")]


def _public_functions(module) -> set[str]:
    return {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _public_methods(module) -> set[str]:
    return {
        meth
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for meth, fn in vars(cls).items()
        if not meth.startswith("_") and inspect.isfunction(fn)
    }


def test_names_are_module_function_what():
    assert NAMES
    assert all(name.count(".") == 2 for name in NAMES), NAMES


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metric_names_a_public_function(name):
    layer, fn, _ = name.split(".")
    module = importlib.import_module(f"probemax.{layer}")
    if layer == "distributions":
        assert fn in _public_methods(module), f"no class in {module.__name__} has a method {fn}"
    else:
        assert fn in _public_functions(module), f"{module.__name__} defines no function {fn}"
