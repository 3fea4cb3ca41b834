"""Shared numeric and serialization helpers."""
from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable

import numpy as np

# the rounding model of every error bound (Higham 2002, ch. 2-3): an operation
# is exact times (1 + t), |t| <= U, and k such factors are within gamma(k)
U = 2.0 ** -53


def gamma(k):
    return k * U / (1.0 - k * U)


class SolverError(RuntimeError):
    """An iterative or external solver failed to produce a certified result."""


class DominanceError(RuntimeError):
    """A certified upper bound fell below an exact oracle value."""


def pairwise_sum(values: Any) -> Any:
    """Balanced pairwise summation along the first axis.

    The reduction tree depends only on the operand count, so the result is
    reproducible across runs and thread counts whenever the operand order is
    fixed, and each entry of a multi-dimensional sum is reduced on its own.
    The tree has depth ceil(log2 n), so the error is at most
    gamma_{ceil(log2 n)} times the sum of the moduli, instead of O(n) ulps
    for naive accumulation.  A 1-d input gives a Python scalar.
    """
    a = np.atleast_1d(np.asarray(values))
    if a.shape[0] == 0:
        return 0.0
    while a.shape[0] > 1:
        m = (a.shape[0] // 2) * 2
        paired = a[0:m:2] + a[1:m:2]
        if m < a.shape[0]:
            paired = np.concatenate([paired, a[m:]])
        a = paired
    return a[0].item() if a.ndim == 1 else a[0]


def tolerance_union(records) -> dict:
    """Each tolerance key of the records, at its largest value (0 if absent)."""
    keys = sorted(set().union(*(r.tolerances for r in records)))
    return {k: max(r.tolerances.get(k, 0.0) for r in records) for k in keys}


def json_default(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (tuple, set, frozenset)):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=json_default)


def config_hash(payload: Any) -> str:
    """Short stable digest of a JSON-able configuration mapping."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


def golden_min(fn: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-13, max_iter: int = 256) -> tuple[float, float]:
    """Golden-section minimum of a unimodal function on [lo, hi].

    Returns (argmin, value).  The returned value is fn evaluated at a point of
    the original interval, so for functions where any point yields a valid
    certificate the output stays certified even before convergence.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if (hi - lo) <= tol * (1.0 + abs(lo) + abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    xs = [(f1, x1), (f2, x2)]
    fbest, xbest = min(xs)
    return xbest, fbest

