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


# cosine sums split node k = COSINE_BLOCK a + b by angle addition
COSINE_BLOCK = 64


def phases(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """2 pi s j modulo 2 pi, in about [-pi, pi], per s (rows) and integer j (columns).

    s splits as hi + lo with hi a multiple of 2^-40, so hi j is exact while
    it stays below 2^13, its reduction to [-1/2, 1/2] turns is exact, and
    only the tiny lo j is rounded: for 0 <= s <= 1/8 and j < 2^11 each
    phase is off by at most 3 pi u.  For s = m / N with N <= 2^40 a power
    of two, hi = s and lo = 0, so hi j = m j / N is exact whenever m j <
    2^53, and only the final product by 2 pi rounds (at most 2 pi u).
    """
    hi = np.round(s * 2.0 ** 40) * 2.0 ** -40
    turns = hi[:, None] * j
    turns -= np.round(turns)
    return 2.0 * np.pi * (turns + (s - hi)[:, None] * j)


def cosine_tables(s: np.ndarray, nodes: int):
    """cos and sin of phi_b = 2 pi s b (b < COSINE_BLOCK) and of theta_a =
    2 pi s COSINE_BLOCK a (a < nodes / COSINE_BLOCK), for cosine_sum."""
    phi = phases(s, np.arange(COSINE_BLOCK))
    theta = phases(s, COSINE_BLOCK * np.arange(nodes // COSINE_BLOCK))
    return np.cos(phi), np.sin(phi), np.cos(theta), np.sin(theta)


def cosine_sum(weights: np.ndarray, tables) -> np.ndarray:
    """sum_k weights[..., r, k] cos(2 pi s k) per s of cosine_tables(s, nodes),
    for weights of `nodes` columns: shape (s.size,) for one weight vector,
    lead + (s.size, R) for weights of shape lead + (R, nodes).

    With k = COSINE_BLOCK a + b, cos(theta_a + phi_b) = cos theta_a cos phi_b
    - sin theta_a sin phi_b: one GEMM over b per trig function and leading
    index, of shape (s.size, COSINE_BLOCK) by (COSINE_BLOCK, R A) for
    A = nodes / COSINE_BLOCK, then a pairwise sum over a.  Every cosine is
    exact angle addition of two directly evaluated phases, never a
    recurrence.  With phases within 3 pi u and trig values within 4 ulp,
    each cosine is within 2 sqrt(2) (3 pi + 4) u < 38 u, and the GEMM over
    b, the product, the difference and the pairwise sum over a add
    gamma_{COSINE_BLOCK + 2 + ceil(log2 A)}, relative to sum_k |weights[k]|.
    """
    cos_phi, sin_phi, cos_theta, sin_theta = tables
    lead, rows = weights.shape[:-2], (weights.shape[-2] if weights.ndim > 1 else 1)
    w = np.swapaxes(weights.reshape(lead + (-1, COSINE_BLOCK)), -1, -2)
    shape = lead + (cos_theta.shape[0], rows, cos_theta.shape[1])
    terms = ((cos_phi @ w).reshape(shape) * cos_theta[:, None, :]
             - (sin_phi @ w).reshape(shape) * sin_theta[:, None, :])
    out = pairwise_sum(np.moveaxis(terms, -1, 0))
    return out if weights.ndim > 1 else out.reshape(-1)


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

