"""The benchmark's layer list names functions that exist.

`perfbench/run.py --trace 1` wraps every function that perfbench/layers.json
lists, looking each one up by name in its cvbench module; a renamed or
deleted function makes the traced run crash before it measures anything.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "layers.json")
                    .read_text())["layers"]


@pytest.mark.parametrize("module, name", [
    (module, name) for module, layer in sorted(LAYERS.items())
    for name in layer["functions"]])
def test_every_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"cvbench.{module}"), name, None))
