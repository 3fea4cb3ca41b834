"""The benchmark tracer's view of the package: every traced function exists,
and every argument a work counter reads is a parameter of that function."""
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(layer: str):
    mod_name, fn_name = layer.split(".")
    return getattr(importlib.import_module("wgbound." + mod_name), fn_name)


def test_layers_resolve_to_functions(tracer):
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        assert inspect.isfunction(_traced(layer)), layer


def test_counters_read_parameters(tracer):
    read = set()
    for layer, count in tracer.LAYERS.items():
        if count is None:
            continue
        # a counter gets the bound arguments as a["<parameter name>"]
        names = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(count[1])))
        params = inspect.signature(_traced(layer)).parameters
        assert names <= set(params), (layer, names - set(params))
        read |= names
    assert read == {"X", "irrep", "G", "nu1", "nu2", "irreps"}
