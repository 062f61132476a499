"""The benchmark's tracer wraps ffprog functions by name, and only under `--trace 1`.

A public name that a refactor deletes or renames would first show up as a crashed
traced run; these tests catch it in the suite instead.
"""

import importlib
import runpy
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
TARGETS = runpy.run_path(str(LAYERS))["TARGETS"]


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in TARGETS.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    obj = importlib.import_module(f"ffprog.{layer}")
    for part in name.split("."):  # "Class.method" for methods
        obj = getattr(obj, part)
    assert callable(obj)
