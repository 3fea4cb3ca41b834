"""Spans around calls into the program's public functions, recorded from outside.

`Tracer.install` replaces each function listed in `LAYERS` under every name
it is bound to in the loaded `wgbound` modules (`bound` imports
`bump_transform` by name, for instance), so calls made inside the program
are caught too.  Spans stay in memory until `write_spans`.  A function's
self time is its span minus the spans of wrapped functions it called.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np


def _entries(a, result):
    return len(np.atleast_2d(a["X"])) * a["irrep"].dim ** 2


def _gram_entries(a, result):
    # su2/so3 only: the torus route forms no Gram matrix
    if a["G"].group_id.startswith("torus") or not a["irreps"]:
        return 0
    n = a["nu1"].size + (0 if a["nu2"] is None else a["nu2"].size)
    return n * n * max(p.dim for p in a["irreps"])


def _irreps(a, result):
    return len(result)


def _variables(a, result):
    return a["nu1"].size * a["nu2"].size


# function -> (work-count name, count from (named arguments, result))
LAYERS = {
    "cli.run": None,
    "smoothing.bump_transform": None,
    "fourier.irrep_matrices": ("entries", _entries),
    "fourier.measure_transform": None,
    "fourier.hs_profile": ("gram_entries", _gram_entries),
    "groups.enumerate_irreps": ("irreps", _irreps),
    "groups.spectral_data": None,
    "bound.wg_bound": None,
    "bound.optimize_M": None,
    "bound.optimized_gap_bound": None,
    "bound.psi_detailed": None,
    "bound.phi": None,
    "transport.exact_wasserstein": ("variables", _variables),
    "transport.sinkhorn": None,
    "walks.walk_evolve": None,
    "walks.sampled_walk_blocks": None,
    "walks.empirical_experiment": None,
    "walks.equidistribution_audit": None,
}


# layers whose work is done in the set-up (the transform is cached after its
# first call); they are summed over the set-up, every other layer over the
# operations
SETUP_LAYERS = ("smoothing.bump_transform",)


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, work]
        self._stack = []

    def _wrap(self, layer: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, clock(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count[1](signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        """Wrap every listed function under each name that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "wgbound" or name.startswith("wgbound.")]
        for layer, count in LAYERS.items():
            mod_name, fn_name = layer.split(".")
            original = getattr(sys.modules["wgbound." + mod_name], fn_name)
            wrapper = self._wrap(layer, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self, first: int = 0, stop=None) -> dict:
        """Per layer: calls, self seconds and the work count, over spans[first:stop]."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (layer, start, end, _, work), inner in zip(self.spans[first:stop],
                                                       child_time[first:stop]):
            row = out.setdefault(layer, {"calls": 0, "s": 0.0, "work": 0})
            row["calls"] += 1
            row["s"] += (end - start) - inner
            row["work"] += work
        for layer in LAYERS:
            out.setdefault(layer, {"calls": 0, "s": 0.0, "work": 0})
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "work": work}) + "\n")
