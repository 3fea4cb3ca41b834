"""Reference routes that the numeric paths are checked against; no command
imports this module.  Each is built apart from the route it checks, as its
imports show: characters by the Chebyshev recurrence U_{d-1}(cos(theta/2))
on su2/so3, inner products under Weyl quadrature, derived representations
from their own spin ladder, a finite-difference Laplacian of
fourier.irrep_matrices, exact transport against empirical Haar samples and
a Monte Carlo integral of the distance to a point set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import groups
from ._util import pairwise_sum
from .fourier import DiscreteMeasure, irrep_matrices
from .groups import GroupDescriptor
from .transport import exact_wasserstein

# distances per block of voronoi_quantization: 16 MB of float64
_BLOCK_ENTRIES = 1 << 21


def characters(G: GroupDescriptor, irrep: groups.Irrep, X: np.ndarray) -> np.ndarray:
    """Character values at a batch of elements."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        return np.exp(2j * np.pi * (X @ m))
    # U_{d-1}(cos(theta/2)) by the three-term recurrence
    x2 = 2.0 * groups.class_cosines(G, X, groups.identity(G))[:, 0]
    u0, u1 = np.zeros_like(x2), np.ones_like(x2)
    for _ in range(irrep.dim - 1):
        u0, u1 = u1, x2 * u1 - u0
    return u1


def weyl_quadrature(G: GroupDescriptor, n_nodes: int = 2 ** 14):
    """Nodes and weights integrating class functions exactly up to aliasing.

    Returns (points, weights) with points encoded like group elements.  For
    the torus this is a product grid over [0,1)^d; for su2/so3 it is a
    uniform angular grid against the class density, exact for characters of
    spin (dimension) well below ``n_nodes``.
    """
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        per_axis = max(2, round(n_nodes ** (1.0 / d_t)))
        axes = [np.arange(per_axis) / per_axis] * d_t
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return pts, w
    n = int(n_nodes)
    # rotation angles span [0, 4pi) on su2, where -1 is not the identity
    span = 4.0 * np.pi if G.group_id == "su2" else 2.0 * np.pi
    theta = span * (np.arange(n) + 0.5) / n
    w = (2.0 / n) * np.sin(theta / 2.0) ** 2
    pts = np.zeros((n, 4))
    pts[:, 0] = np.cos(theta / 2.0)
    pts[:, 3] = np.sin(theta / 2.0)
    if G.group_id == "so3":
        pts = groups.canonicalize(G, pts)
    return pts, w


def class_coefficients(G: GroupDescriptor, values: np.ndarray,
                       irreps: list, quad=None) -> np.ndarray:
    """Inner products <f, chi_pi> of sampled class-function values."""
    if quad is None:
        quad = weyl_quadrature(G)
    pts, w = quad
    values = np.asarray(values)
    out = np.empty(len(irreps), dtype=complex)
    for i, p in enumerate(irreps):
        chi = characters(G, p, pts)
        out[i] = pairwise_sum(w * values * np.conj(chi))
    return out


def derived_rep(G: GroupDescriptor, irrep: groups.Irrep, X: np.ndarray) -> np.ndarray:
    """Derivative of the irrep at the identity along algebra vector X.

    Always skew-Hermitian; for X in the maximal torus direction the
    eigenvalues are i * (weight values).  On su2/so3 it is built from the
    real ladder L with L[k+1, k] = sqrt((2j - k)(k + 1)).
    """
    X = np.asarray(X, dtype=float)
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        return np.array([[2j * np.pi * float(m @ X)]])
    two_j = irrep.dim - 1
    k = np.arange(two_j)
    L = np.zeros((two_j + 1, two_j + 1))
    L[k + 1, k] = np.sqrt((two_j - k) * (k + 1.0))
    A1 = -0.5j * (L + L.T)
    A2 = 0.5 * (L - L.T)
    A3 = 1j * np.diag(np.arange(two_j + 1) - two_j / 2.0)
    return X[0] * A1 + X[1] * A2 + X[2] * A3


_PROBE_SEED = 20240817  # fixed so the oracle is deterministic

_STENCILS = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12), (1, 16.0 / 12), (2, -1.0 / 12)),
}


def casimir_residual(G: GroupDescriptor, irrep: groups.Irrep, h: float,
                     order: int = 4) -> float:
    """Relative defect of the finite-difference Laplacian on irrep entries.

    Applies a central second-difference stencil (order 2 or 4) along an
    orthonormal basis of the Lie algebra at the identity and eight fixed
    pseudo-random probe points, and compares against ``-casimir * matrix``.
    Returns the worst relative Frobenius defect over the probes.
    """
    if order not in _STENCILS:
        raise ValueError(f"stencil order must be one of {sorted(_STENCILS)}")
    if irrep.casimir == 0:
        return 0.0  # trivial irrep: constant entries, zero Laplacian exactly
    if irrep.casimir < 0:
        raise ValueError("negative casimir")
    if not (h > 0):
        raise ValueError("step h must be positive")
    probes = np.concatenate(([groups.identity(G)], groups.haar_sample(G, _PROBE_SEED, 8)))
    stencil = _STENCILS[order]
    # the stencil's points along each basis vector of the algebra, in the
    # order they are summed
    steps = groups.exp_map(G, np.asarray(
        [shift * h * e for e in np.eye(G.n) for shift, _ in stencil]))
    coefs = [coef for _ in range(G.n) for _, coef in stencil]
    worst = 0.0
    for x, base in zip(probes, irrep_matrices(G, irrep, probes)):
        acc = np.zeros_like(base)
        for coef, U in zip(coefs, irrep_matrices(G, irrep, groups.multiply(G, x, steps))):
            acc += coef * U
        lap = acc / (h * h)
        defect = np.linalg.norm(lap + irrep.casimir * base, "fro")
        worst = max(worst, defect / (irrep.casimir * np.linalg.norm(base, "fro")))
    return worst


@dataclass(frozen=True)
class HaarDistanceEstimate:
    """Monte Carlo estimate of the distance from a measure to Haar.

    Biased upward by roughly the empirical Haar sample's own distance to
    Haar, of scale g(n_samples^(-1/dim)); the band is [min, max] over reps.
    """

    estimate: float
    band: Tuple[float, float]


def haar_oracle_distance(G: GroupDescriptor, g, nu: DiscreteMeasure,
                         n_samples: int, n_reps: int,
                         seed: int) -> HaarDistanceEstimate:
    """Estimate W_g(nu, Haar) by transport against empirical Haar samples."""
    if n_samples < nu.size:
        raise ValueError(
            f"need n_samples >= {nu.size} atoms, got {n_samples}")
    child_seeds = np.random.SeedSequence(seed).generate_state(n_reps)
    costs = []
    for s in child_seeds:
        sample = groups.haar_sample(G, int(s), n_samples)
        emp = DiscreteMeasure.uniform(G, sample)
        costs.append(exact_wasserstein(G, g, nu, emp).cost)
    costs_arr = np.asarray(costs)
    return HaarDistanceEstimate(
        estimate=float(costs_arr.mean()),
        band=(float(costs_arr.min()), float(costs_arr.max())))


@dataclass(frozen=True)
class QuantizationEstimate:
    """Monte Carlo value of the optimal quantization cost on a point set."""

    value: float
    stderr: float
    n_samples: int
    cell_masses: Optional[np.ndarray] = None


def voronoi_quantization(G: GroupDescriptor, g, A, n_samples: int, seed: int,
                         return_cell_masses: bool = False) -> QuantizationEstimate:
    """Monte Carlo estimate of the mean cost to the nearest point of A.

    This integral equals the smallest W_g distance to Haar among measures
    supported on A, attained by weighting each atom with its Voronoi cell
    mass.  Samples come in chunks of 2^14, one child seed each; the
    distances of a chunk are formed in row blocks of a power of two with at
    most _BLOCK_ENTRIES entries, which split the chunk evenly.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        raise ValueError("A must be nonempty")
    total = 0.0
    total_sq = 0.0
    counts = np.zeros(A.shape[0])
    done = 0
    chunk = 1 << 14
    rows = 1 << max(0, (_BLOCK_ENTRIES // A.shape[0]).bit_length() - 1)
    child_seeds = np.random.SeedSequence(seed).generate_state(
        (n_samples + chunk - 1) // chunk)
    for s in child_seeds:
        take = min(chunk, n_samples - done)
        pts = groups.haar_sample(G, int(s), take)
        nearest = np.empty(take, dtype=np.intp)
        best = np.empty(take)
        for lo in range(0, take, rows):
            dists = groups.pairwise_distance(G, pts[lo:lo + rows], A)
            nearest[lo:lo + rows] = dists.argmin(axis=1)
            best[lo:lo + rows] = dists.min(axis=1)
        vals = np.asarray(g(best), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        np.add.at(counts, nearest, 1.0)
        done += take
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    stderr = math.sqrt(var / n_samples)
    masses = counts / n_samples if return_cell_masses else None
    return QuantizationEstimate(value=mean, stderr=stderr,
                                n_samples=n_samples, cell_masses=masses)
