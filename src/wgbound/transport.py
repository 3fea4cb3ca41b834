"""Independent optimal-transport oracles.

Exact LP Wasserstein for discrete pairs with duality certificates, a
log-domain entropic solver with feasible rounding, the circle closed
form, semi-discrete Haar estimation, and Voronoi quantization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import logsumexp

from ._util import SolverError, pairwise_sum
from . import groups
from .fourier import DiscreteMeasure
from .groups import GroupDescriptor

_SIZE_LIMIT = 10 ** 6
GAP_TOL = 1e-9
MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class TransportPlan:
    """A coupling with its cost and dual certificate."""

    cost: float
    coupling: np.ndarray
    dual_potentials: Tuple[np.ndarray, np.ndarray]
    status: str

    def as_json_dict(self) -> dict:
        i, j = np.nonzero(self.coupling)
        return {
            "cost": self.cost,
            "status": self.status,
            "coupling": [[int(a), int(b), float(self.coupling[a, b])]
                         for a, b in zip(i, j)],
            "dual_row": self.dual_potentials[0].tolist(),
            "dual_col": self.dual_potentials[1].tolist(),
        }


def _support(nu: DiscreteMeasure):
    """Atom array and weights with zero-weight atoms dropped.

    Zero weights make the marginal constraints degenerate, so they are
    removed before solving and their rows/columns restored as zeros.
    """
    keep = np.nonzero(nu.weights > 0.0)[0]
    return nu.atoms[keep], nu.weights[keep], keep


def _costs(G: GroupDescriptor, g, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(g(groups.pairwise_distance(G, x, y)), dtype=float)


def cost_matrix(G: GroupDescriptor, g, nu1: DiscreteMeasure,
                nu2: DiscreteMeasure) -> np.ndarray:
    return _costs(G, g, nu1.atoms, nu2.atoms)


def _full_plan(nu1: DiscreteMeasure, nu2: DiscreteMeasure, keep1, keep2,
               plan: np.ndarray, dual_row: np.ndarray, dual_col: np.ndarray,
               cost: float, status: str) -> TransportPlan:
    """A plan and duals on the supports, embedded back at full size."""
    full = np.zeros((nu1.size, nu2.size))
    full[np.ix_(keep1, keep2)] = plan
    duals = (np.zeros(nu1.size), np.zeros(nu2.size))
    duals[0][keep1] = dual_row
    duals[1][keep2] = dual_col
    return TransportPlan(cost=cost, coupling=full, dual_potentials=duals,
                         status=status)


def _marginal_constraints(n1: int, n2: int) -> sparse.csr_matrix:
    """0/1 rows summing each row, then each column, of a raveled n1 x n2 plan."""
    cells = np.arange(n1 * n2)
    ii = np.concatenate([np.repeat(np.arange(n1), n2),
                         n1 + np.repeat(np.arange(n2), n1)])
    jj = np.concatenate([cells, cells.reshape(n1, n2).T.ravel()])
    return sparse.csr_matrix((np.ones(len(ii)), (ii, jj)),
                             shape=(n1 + n2, n1 * n2))


def exact_wasserstein(G: GroupDescriptor, g, nu1: DiscreteMeasure,
                      nu2: DiscreteMeasure) -> TransportPlan:
    """Exact W_g between discrete measures, as a certified LP optimum.

    Solves the transport LP with a simplex method and verifies the duality
    gap, dual feasibility (f_i + h_j <= C_ij) and marginal residuals before
    returning; a failed certificate raises instead of returning an
    uncertified value.
    """
    if nu1.size * nu2.size > _SIZE_LIMIT:
        raise ValueError(
            f"problem size {nu1.size}x{nu2.size} exceeds {_SIZE_LIMIT}")
    a1, w1, keep1 = _support(nu1)
    a2, w2, keep2 = _support(nu2)
    n1, n2 = len(w1), len(w2)
    C = _costs(G, g, a1, a2)
    A = _marginal_constraints(n1, n2)
    b = np.concatenate([w1, w2])
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0.0, None),
                  method="highs")
    if not res.success:
        raise SolverError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n1, n2)
    cost = float(res.fun)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    dual_obj = float(b @ y)
    gap = abs(cost - dual_obj)
    if gap > GAP_TOL * max(1.0, abs(cost)):
        raise SolverError(f"duality gap {gap:.3e} exceeds tolerance")
    # b.y is a lower bound on the cost only for dual-feasible y
    excess = float(np.max(y[:n1, None] + y[None, n1:] - C))
    if excess > GAP_TOL * max(1.0, float(C.max())):
        raise SolverError(f"dual potentials infeasible by {excess:.3e}")
    row_err = float(np.max(np.abs(plan.sum(axis=1) - w1)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - w2)))
    if max(row_err, col_err) > MARGINAL_TOL:
        raise SolverError(
            f"coupling marginals off by {max(row_err, col_err):.3e}")
    return _full_plan(nu1, nu2, keep1, keep2, plan, y[:n1], y[n1:], cost,
                      "optimal")


def _round_to_feasible(plan: np.ndarray, w1: np.ndarray,
                       w2: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto exact marginals.

    Scale rows down, then columns, then spread the leftover mass rank-one;
    the result is a true coupling whose cost differs from the input by at
    most the leftover mass times the cost range.
    """
    r = plan.sum(axis=1)
    scale = np.where(r > 0, np.minimum(w1 / np.where(r > 0, r, 1.0), 1.0), 1.0)
    plan = plan * scale[:, None]
    c = plan.sum(axis=0)
    scale = np.where(c > 0, np.minimum(w2 / np.where(c > 0, c, 1.0), 1.0), 1.0)
    plan = plan * scale[None, :]
    err_r = w1 - plan.sum(axis=1)
    err_c = w2 - plan.sum(axis=0)
    total = err_r.sum()
    if total > 0:
        plan = plan + np.outer(err_r, err_c) / total
    return plan


def sinkhorn(G: GroupDescriptor, g, nu1: DiscreteMeasure,
             nu2: DiscreteMeasure, eps: float,
             max_iter: int = 200000) -> TransportPlan:
    """Entropic-regularized transport cost, rounded to a feasible coupling.

    Log-domain iterations with an annealing schedule, so small eps is
    safe.  Iterates until the pre-rounding marginal residual is below
    1e-4 in L1; rounding then makes the marginals exact, perturbing the
    cost by at most that residual times the cost range.  Raises on
    non-convergence rather than returning a silently bad plan.
    """
    if not eps > 0:
        raise ValueError(f"need eps > 0, got {eps}")
    a1, w1, keep1 = _support(nu1)
    a2, w2, keep2 = _support(nu2)
    C = _costs(G, g, a1, a2)
    lw1 = np.log(w1)
    lw2 = np.log(w2)
    # dual potentials f, h carried across an annealing schedule: plain
    # iterations stall once eps is far below the cost scale
    f = np.zeros(len(w1))
    h = np.zeros(len(w2))
    schedule = []
    e = max(float(C.max()) / 2.0, eps)
    while e > eps:
        schedule.append(e)
        e /= 2.0
    schedule.append(eps)
    spent = 0
    converged = False
    for level, e in enumerate(schedule):
        mk = -C / e
        final = level == len(schedule) - 1
        budget = max_iter - spent if final else min(600, max_iter - spent)
        tol = 1e-4 if final else 1e-3
        for _ in range(budget):
            spent += 1
            f = e * (lw1 - logsumexp(mk + h[None, :] / e, axis=1))
            h = e * (lw2 - logsumexp(mk + f[:, None] / e, axis=0))
            row = np.exp(logsumexp(mk + f[:, None] / e + h[None, :] / e, axis=1))
            if float(np.abs(row - w1).sum()) <= tol:
                converged = final
                break
    if not converged:
        raise SolverError(f"sinkhorn did not converge in {max_iter} iterations")
    la = f / eps
    lb = h / eps
    plan = np.exp(-C / eps + la[:, None] + lb[None, :])
    plan = _round_to_feasible(plan, w1, w2)
    cost = float(pairwise_sum((C * plan).ravel()))
    return _full_plan(nu1, nu2, keep1, keep2, plan, eps * la, eps * lb, cost,
                      f"approx({eps:g})")


def circle_w1(nu1: DiscreteMeasure, nu2: DiscreteMeasure) -> float:
    """Exact W_1 on the circle via the rotation-optimal CDF formula.

    The optimal shift is a weighted median of the piecewise-constant CDF
    difference; no LP involved, so this is an independent oracle.
    """
    for nu in (nu1, nu2):
        if nu.atoms.ndim != 2 or nu.atoms.shape[1] != 1:
            raise ValueError("circle_w1 needs torus(1) measures")
    pos = np.concatenate([nu1.atoms[:, 0], nu2.atoms[:, 0]])
    sgn = np.concatenate([nu1.weights, -nu2.weights])
    upos, inv = np.unique(pos, return_inverse=True)
    jumps = np.zeros(len(upos))
    np.add.at(jumps, inv, sgn)
    # CDF difference D on [0, upos[0]) is 0, then cumulative jumps
    vals = np.concatenate(([0.0], np.cumsum(jumps)))
    lens = np.concatenate((upos[:1], np.diff(upos), [1.0 - upos[-1]]))
    order = np.argsort(vals)
    v, l = vals[order], lens[order]
    cw = np.cumsum(l)
    median = v[np.searchsorted(cw, 0.5 * cw[-1])]
    return float(np.abs(vals - median) @ lens)


@dataclass(frozen=True)
class HaarDistanceEstimate:
    """Monte Carlo estimate of the distance from a measure to Haar.

    Biased upward by roughly the empirical Haar sample's own distance to
    Haar, of scale g(n_samples^(-1/dim)); the band is [min, max] over reps.
    """

    estimate: float
    band: Tuple[float, float]
    values: Tuple[float, ...]
    n_samples: int
    n_reps: int

    def as_json_dict(self) -> dict:
        return {"estimate": self.estimate, "band": list(self.band),
                "values": list(self.values), "n_samples": self.n_samples,
                "n_reps": self.n_reps}


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
        band=(float(costs_arr.min()), float(costs_arr.max())),
        values=tuple(float(c) for c in costs_arr),
        n_samples=n_samples, n_reps=n_reps)


@dataclass(frozen=True)
class QuantizationEstimate:
    """Monte Carlo value of the optimal quantization cost on a point set."""

    value: float
    stderr: float
    n_samples: int
    cell_masses: Optional[np.ndarray] = None

    def as_json_dict(self) -> dict:
        out = {"value": self.value, "stderr": self.stderr,
               "n_samples": self.n_samples}
        if self.cell_masses is not None:
            out["cell_masses"] = self.cell_masses.tolist()
        return out


def voronoi_quantization(G: GroupDescriptor, g, A, n_samples: int, seed: int,
                         return_cell_masses: bool = False) -> QuantizationEstimate:
    """Monte Carlo estimate of the mean cost to the nearest point of A.

    This integral equals the smallest W_g distance to Haar among measures
    supported on A, attained by weighting each atom with its Voronoi cell
    mass.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] == 0:
        raise ValueError("A must be nonempty")
    total = 0.0
    total_sq = 0.0
    counts = np.zeros(A.shape[0])
    done = 0
    chunk = 1 << 14
    child_seeds = np.random.SeedSequence(seed).generate_state(
        (n_samples + chunk - 1) // chunk)
    for s in child_seeds:
        take = min(chunk, n_samples - done)
        pts = groups.haar_sample(G, int(s), take)
        dists = groups.pairwise_distance(G, pts, A)
        nearest = dists.argmin(axis=1)
        vals = np.asarray(g(dists[np.arange(take), nearest]), dtype=float)
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
