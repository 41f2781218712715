"""Every layer that the benchmark's tracer wraps still names a function of
the package: a layer whose targets are all gone reports no metrics, and a
traced run then ends without a full result line."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    """perfbench/layers.py as a module, read from its file and not registered."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def importable(module_name, attr):
    try:
        return callable(getattr(importlib.import_module(module_name), attr))
    except (ImportError, AttributeError):
        return False


@pytest.mark.parametrize("layer, targets", sorted(load_layers().LAYERS.items()))
def test_every_layer_has_an_importable_target(layer, targets):
    assert any(importable(module, attr) for module, attr in targets), (
        f"no target of layer {layer} is left: {targets}")
