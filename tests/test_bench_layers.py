"""Every layer that bench/layers.json traces names a module and attribute
that exist, so a traced benchmark run does not fail on a deleted name."""
import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.json"


def test_every_traced_layer_resolves():
    layers = json.loads(LAYERS.read_text())["layers"]
    assert layers
    for layer in layers:
        target = importlib.import_module(layer["module"])
        for part in layer["attr"].split("."):
            assert hasattr(target, part), f"{layer['name']}: {layer['module']}.{layer['attr']}"
            target = getattr(target, part)
        assert callable(target), layer["name"]
