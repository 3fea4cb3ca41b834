"""The benchmark tracer's view of the package: every traced function exists,
and every argument a work counter reads is a parameter of that function."""
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

from wgbound import bound, fourier, groups

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


def _counted_calls() -> dict:
    """Small real arguments for every traced function with a work counter,
    with the count each call should give."""
    su2, t2 = groups.descriptor("su2"), groups.descriptor("torus(2)")
    x, y = groups.haar_sample(su2, 1, 4), groups.haar_sample(su2, 2, 3)
    nu1, nu2 = fourier.DiscreteMeasure.uniform(su2, x), fourier.DiscreteMeasure.uniform(su2, y)
    tau = fourier.DiscreteMeasure.uniform(t2, groups.haar_sample(t2, 3, 5))
    spin = groups.enumerate_irreps(su2, 2.0)
    return {
        "fourier.irrep_matrices": [((su2, spin[-1], y), 3 * 16)],
        # the Gram matrix of the 7 atoms of nu1 - nu2, times the top dimension
        "fourier.hs_profile": [((su2, nu1, nu2, spin), 49 * 4),
                               ((t2, tau, None, groups.enumerate_irreps(t2, 8.0)), 0)],
        "groups.enumerate_irreps": [((su2, 3.0), 5)],
        "transport.exact_wasserstein": [
            ((su2, bound.ModulusOfContinuity.power(1.0), nu1, nu2), 12)],
    }


def test_counters_run_on_real_calls(tracer):
    # each counter reads what its function's arguments and result hold, not
    # only their names: the call, then the counter on its bound arguments
    calls = _counted_calls()
    assert set(calls) == {layer for layer, count in tracer.LAYERS.items()
                          if count is not None}
    for layer, cases in calls.items():
        fn, count = _traced(layer), tracer.LAYERS[layer][1]
        for args, expected in cases:
            result = fn(*args)
            assert count(inspect.signature(fn).bind(*args).arguments, result) \
                == expected, layer
