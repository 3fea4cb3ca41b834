"""Independent optimal-transport oracles.

Exact Wasserstein for discrete pairs, solved as an assignment problem
when both sides have equal weights and the larger size is a multiple of
the smaller, and by the HiGHS LP otherwise; both routes return a coupling
with dual potentials that pass one certificate (duality gap, dual
feasibility, marginals).  Also a log-domain entropic solver with feasible
rounding, the circle closed form, semi-discrete Haar estimation, and
Voronoi quantization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from ._util import SolverError, pairwise_sum
from . import groups
from .fourier import DiscreteMeasure
from .groups import GroupDescriptor

_SIZE_LIMIT = 10 ** 6
# distances per block of voronoi_quantization: 16 MB of float64
_BLOCK_ENTRIES = 1 << 21
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


def _lp_plan(C: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Plan, row and column duals and cost of the transport LP, by HiGHS."""
    n1, n2 = C.shape
    res = linprog(C.ravel(), A_eq=_marginal_constraints(n1, n2),
                  b_eq=np.concatenate([w1, w2]), bounds=(0.0, None),
                  method="highs")
    if not res.success:
        raise SolverError(f"transport LP failed: {res.message}")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    return res.x.reshape(n1, n2), y[:n1], y[n1:], float(res.fun)


def _assignment_plan(C: np.ndarray):
    """Plan, row and column duals and cost of a uniform pair, by assignment.

    Each atom of the smaller side is repeated up to L = max(n1, n2) copies
    in all, so the L x L cost matrix has a uniform transport optimum at a
    permutation (Birkhoff-von Neumann).  The plan is the assignment's count
    matrix over L.  The duals are Bellman-Ford shortest-path potentials on
    the collapsed n1 x n2 graph, from h = 0: a_i = min over the support of
    row i of (h_j - C_ij), then h_j <- min(h_j, min_i (a_i + C_ij)), until a
    fixed point or n2 rounds.  An optimal plan has no negative cycle, so a
    fixed point is reached and f_i = max over the support of (C_ij - h_j)
    is complementary to h and feasible; a suboptimal one leaves a gap or an
    infeasibility for the certificate to reject.
    """
    n1, n2 = C.shape
    L = max(n1, n2)
    rows = np.repeat(np.arange(n1), L // n1)
    cols = np.repeat(np.arange(n2), L // n2)
    r, c = linear_sum_assignment(C[np.ix_(rows, cols)])
    counts = np.zeros((n1, n2))
    np.add.at(counts, (rows[r], cols[c]), 1.0)
    support = counts > 0
    h = np.zeros(n2)
    for _ in range(n2):
        a = np.where(support, h[None, :] - C, np.inf).min(axis=1)
        relaxed = np.minimum(h, (a[:, None] + C).min(axis=0))
        if np.array_equal(relaxed, h):
            break
        h = relaxed
    f = np.where(support, C - h[None, :], -np.inf).max(axis=1)
    cost = float(pairwise_sum(C[rows[r], cols[c]])) / L
    return counts / L, f, h, cost


def _uniform_pair(w1: np.ndarray, w2: np.ndarray) -> bool:
    """Whether the assignment route solves this pair of support weights."""
    small, large = sorted((len(w1), len(w2)))
    return (bool(np.all(w1 == w1[0])) and bool(np.all(w2 == w2[0]))
            and large % small == 0 and large * large <= _SIZE_LIMIT)


def _certify(C: np.ndarray, w1: np.ndarray, w2: np.ndarray, plan: np.ndarray,
             f: np.ndarray, h: np.ndarray, cost: float) -> None:
    """Raise SolverError unless the plan and duals certify cost as optimal.

    Checks the duality gap |cost - (w1.f + w2.h)|, dual feasibility
    max(f_i + h_j - C_ij) <= GAP_TOL max(1, max C), which makes w1.f + w2.h
    a proven lower bound, and the plan's marginal residuals.
    """
    dual_obj = float(w1 @ f + w2 @ h)
    gap = abs(cost - dual_obj)
    if gap > GAP_TOL * max(1.0, abs(cost)):
        raise SolverError(f"duality gap {gap:.3e} exceeds tolerance")
    excess = float(np.max(f[:, None] + h[None, :] - C))
    if excess > GAP_TOL * max(1.0, float(C.max())):
        raise SolverError(f"dual potentials infeasible by {excess:.3e}")
    row_err = float(np.max(np.abs(plan.sum(axis=1) - w1)))
    col_err = float(np.max(np.abs(plan.sum(axis=0) - w2)))
    if max(row_err, col_err) > MARGINAL_TOL:
        raise SolverError(
            f"coupling marginals off by {max(row_err, col_err):.3e}")


def exact_wasserstein(G: GroupDescriptor, g, nu1: DiscreteMeasure,
                      nu2: DiscreteMeasure) -> TransportPlan:
    """Exact W_g between discrete measures, as a certified LP optimum.

    Two routes solve the transport LP on the supports (zero weights
    dropped).  When each side's weights are all equal, the larger size L
    is a multiple of the smaller and L^2 <= _SIZE_LIMIT, it is an L x L
    assignment problem (``linear_sum_assignment``) with Bellman-Ford dual
    potentials; every other pair goes to the HiGHS simplex.  Both routes
    pass one certificate before returning: duality gap, dual feasibility
    (f_i + h_j <= C_ij) and marginal residuals.  A failed certificate
    raises SolverError instead of returning an uncertified value.
    """
    if nu1.size * nu2.size > _SIZE_LIMIT:
        raise ValueError(
            f"problem size {nu1.size}x{nu2.size} exceeds {_SIZE_LIMIT}")
    a1, w1, keep1 = _support(nu1)
    a2, w2, keep2 = _support(nu2)
    C = _costs(G, g, a1, a2)
    if _uniform_pair(w1, w2):
        plan, f, h, cost = _assignment_plan(C)
    else:
        plan, f, h, cost = _lp_plan(C, w1, w2)
    _certify(C, w1, w2, plan, f, h, cost)
    return _full_plan(nu1, nu2, keep1, keep2, plan, f, h, cost, "optimal")


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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the maximum (a is finite)."""
    m = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=axis)) + np.squeeze(m, axis=axis)


def sinkhorn(G: GroupDescriptor, g, nu1: DiscreteMeasure,
             nu2: DiscreteMeasure, eps: float,
             max_iter: int = 200000) -> TransportPlan:
    """Entropic-regularized transport cost, rounded to a feasible coupling.

    Log-domain iterations with an annealing schedule, so small eps is
    safe.  Iterates until the pre-rounding row-marginal residual, read
    every 10th iteration and at the end of each level's budget, is below
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
        for it in range(budget):
            spent += 1
            f = e * (lw1 - _logsumexp(mk + h[None, :] / e, axis=1))
            h = e * (lw2 - _logsumexp(mk + f[:, None] / e, axis=0))
            # the column marginal is exact after the h update; the row
            # marginal costs a third pass over the matrix
            if (it + 1) % 10 and it + 1 < budget:
                continue
            row = np.exp(_logsumexp(mk + f[:, None] / e + h[None, :] / e, axis=1))
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
