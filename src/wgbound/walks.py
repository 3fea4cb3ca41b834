"""Experiment drivers: exact Fourier-side random walks, quaternion rotation
sets, empirical-measure sweeps, and equidistribution audits.

Walk bounds are computed on the Fourier side only: the transform blocks of
the k-th convolution power are the k-th matrix powers of the step-1 blocks,
so every reported walk number is free of sampling error.  Sampled walks
appear only as statistical cross-checks of that identity.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from . import bound, fourier, groups, transport
from ._util import DominanceError, SolverError, pairwise_sum

_POWER_RECHECK_EVERY = 8
_POWER_TOL = 1e-9
_SUBMULT_TOL = 1e-9
_INVERSE_MATCH_TOL = 1e-12
# irreps tested against the dim/N variance law: a few multiples of the
# lowest weight norm, which scales with the admissibility threshold
_VARIANCE_CUTOFF_FACTOR = 5.0


# ---------------------------------------------------------------------------
# quaternion rotation sets with optimal spectral gap


@dataclass(frozen=True)
class LpsSet:
    """Symmetric set of p + 1 rotations from integer quaternions of norm p."""

    p: int
    rotations: np.ndarray  # (p + 1, 4) unit quaternions, scalar part > 0
    symmetric: bool

    @property
    def size(self) -> int:
        return int(self.rotations.shape[0])

    def measure(self) -> fourier.DiscreteMeasure:
        return fourier.DiscreteMeasure.uniform(groups.descriptor("so3"),
                                               self.rotations)


def _closed_under_inverse(rot: np.ndarray, inv: np.ndarray) -> bool:
    # greedy perfect matching; atoms are well separated so tolerance is loose
    used = np.zeros(rot.shape[0], dtype=bool)
    for q in inv:
        d = np.max(np.abs(rot - q), axis=1)
        j = int(np.argmin(np.where(used, np.inf, d)))
        if d[j] > _INVERSE_MATCH_TOL:
            return False
        used[j] = True
    return True


def _is_prime(n: int) -> bool:
    """Trial division; meant for the small n that lps_generators admits."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def lps_generators(p: int) -> LpsSet:
    """Rotations of the integer quaternions a+bi+cj+dk of norm p, a odd > 0.

    For prime p = 1 (mod 4) exactly one coordinate of each representation
    is odd, so fixing it to be a positive first slot leaves exactly p + 1
    solutions; their rotations form a symmetric set.
    """
    p = int(p)
    if p > 10 ** 4 or p % 4 != 1 or not _is_prime(p):
        raise ValueError(
            f"need a prime p = 1 (mod 4) with p <= 10^4, got {p}")
    quats = []
    for a in range(1, math.isqrt(p) + 1, 2):
        rem_a = p - a * a
        for b in range(-math.isqrt(rem_a), math.isqrt(rem_a) + 1):
            rem_b = rem_a - b * b
            for c in range(-math.isqrt(rem_b), math.isqrt(rem_b) + 1):
                d2 = rem_b - c * c
                d = math.isqrt(d2)
                if d * d != d2:
                    continue
                quats.append((a, b, c, d))
                if d > 0:
                    quats.append((a, b, c, -d))
    arr = np.asarray(quats, dtype=float) / math.sqrt(p)
    if arr.shape[0] != p + 1:
        raise SolverError(
            f"norm-{p} enumeration gave {arr.shape[0]} quaternions, not p+1")
    G = groups.descriptor("so3")
    rot = groups.canonicalize(G, arr)
    if not _closed_under_inverse(rot, groups.inverse(G, rot)):
        raise SolverError(f"norm-{p} rotation set is not symmetric")
    return LpsSet(p=p, rotations=rot, symmetric=True)


# ---------------------------------------------------------------------------
# exact Fourier-side walks


@dataclass(frozen=True)
class WalkState:
    """One convolution-power step: gap trace and bound totals."""

    step: int
    q_hat: float
    fourier_sum: float
    exact_m: float
    exact_total: float
    power_check: Optional[float] = None
    relaxed_q: Optional[float] = None
    relaxed_m: Optional[float] = None
    relaxed_total: Optional[float] = None

    def as_json_dict(self) -> dict:
        out = {
            "step": self.step,
            "q_hat": self.q_hat,
            "fourier_sum": self.fourier_sum,
            "exact": {"M": self.exact_m, "total": self.exact_total},
        }
        if self.power_check is not None:
            out["power_check"] = self.power_check
        if self.relaxed_total is not None:
            out["relaxed"] = {"q": self.relaxed_q, "M": self.relaxed_m,
                              "total": self.relaxed_total}
        return out


WALK_CSV_HEADER = ("step", "q_hat", "fourier_sum", "exact_m", "exact_total",
                   "relaxed_q", "relaxed_m", "relaxed_total")


def walk_csv_row(state: WalkState) -> list:
    blank = lambda v: "" if v is None else v
    return [state.step, state.q_hat, state.fourier_sum, state.exact_m,
            state.exact_total, blank(state.relaxed_q), blank(state.relaxed_m),
            blank(state.relaxed_total)]


def walk_evolve(G: groups.GroupDescriptor, nu: fourier.DiscreteMeasure,
                k_max: int, M: float, g=None, profile="paper_bump",
                q_hint: Optional[float] = None,
                m_grid=None) -> List[WalkState]:
    """Power the walk of nu for k_max steps and bound each step against Haar.

    Each state carries the truncated gap trace q_hat(k) over the irreps
    below M, the full Fourier sum below M, and the best exact bound total
    over admissible cutoffs M' <= M.  Powered blocks are rechecked against
    independently computed matrix powers every 8 steps, and the gap trace
    is checked for submultiplicativity; either failure raises SolverError.

    With ``q_hint`` each state adds a gap-relaxed total computed under the
    hypothesis that the step-k gap over the full dual is at most q_hint**k,
    optimized over a much larger scalar cutoff grid.  Those totals inherit
    the hypothesis; they are not certified by the enumerated blocks alone.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    if g is None:
        g = bound.ModulusOfContinuity.power(1.0)
    irreps = groups.enumerate_irreps(G, M)
    if not irreps:
        raise ValueError(f"no irreps below M={M}; raise the cutoff")
    base = [fourier.measure_transform(G, nu, p).matrix for p in irreps]
    ratios = np.asarray([p.dim / p.casimir for p in irreps])
    grid = np.asarray(bound.default_m_grid(G, cap=float(M)) if m_grid is None
                      else m_grid, dtype=float)
    sweep = bound.CutoffSweep(G, g, profile, grid[grid <= M])
    gap_sweep = None if q_hint is None else bound.CutoffSweep(
        G, g, profile, relaxed=True)

    # one-dimensional blocks (every torus irrep) power as a single vector
    scalar = all(b.shape == (1, 1) for b in base)
    if scalar:
        base_v = np.asarray([b[0, 0] for b in base])
        cur_v = base_v.copy()
        q1 = float(np.max(np.abs(base_v)))
    else:
        blocks = [b.copy() for b in base]
        q1 = max(float(np.linalg.norm(b, 2)) for b in base)
    states: List[WalkState] = []
    prev_q = None
    for k in range(1, k_max + 1):
        if k > 1:
            if scalar:
                cur_v = cur_v * base_v
            else:
                blocks = [bk @ b for bk, b in zip(blocks, base)]
        check = None
        if k % _POWER_RECHECK_EVERY == 0:
            if scalar:
                check = float(np.max(np.abs(cur_v - base_v ** k)))
            else:
                check = max(
                    float(np.max(np.abs(bk - np.linalg.matrix_power(b, k))))
                    for bk, b in zip(blocks, base))
            if check > _POWER_TOL:
                raise SolverError(
                    f"powered blocks drifted {check:.3e} at step {k}")
        if scalar:
            q_hat = float(np.max(np.abs(cur_v)))
            hs_sq = np.abs(cur_v) ** 2
        else:
            q_hat = max(float(np.linalg.norm(bk, 2)) for bk in blocks)
            hs_sq = np.asarray([float(np.vdot(bk, bk).real) for bk in blocks])
        if prev_q is not None and q_hat > prev_q * q1 + _SUBMULT_TOL:
            raise SolverError(f"gap trace not submultiplicative at step {k}")
        contrib = ratios * hs_sq
        totals, i_best = sweep.totals(
            np.concatenate(([0.0], np.cumsum(contrib))))
        fields = dict(
            step=k, q_hat=q_hat, fourier_sum=float(pairwise_sum(contrib)),
            exact_m=float(sweep.grid[i_best]),
            exact_total=float(totals[i_best]), power_check=check)
        if gap_sweep is not None:
            qk = float(q_hint) ** k
            rm, rrep = gap_sweep.best(q=qk)
            fields.update(relaxed_q=qk, relaxed_m=rm,
                          relaxed_total=rrep.total)
        states.append(WalkState(**fields))
        prev_q = q_hat
    return states


def sampled_walk_blocks(G: groups.GroupDescriptor,
                        nu: fourier.DiscreteMeasure, k: int, n_paths: int,
                        seed: int, irreps) -> List[np.ndarray]:
    """Mean transform blocks of n_paths sampled k-step products.

    Statistical cross-check of the powering identity; each returned matrix
    estimates the corresponding exact block with HS standard error at most
    sqrt(dim / n_paths).
    """
    if k < 1 or n_paths < 1:
        raise ValueError("k and n_paths must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.choice(nu.size, size=(n_paths, k), p=nu.weights)
    pos = nu.atoms[idx[:, 0]]
    for j in range(1, k):
        pos = groups.multiply(G, pos, nu.atoms[idx[:, j]])
    emp = fourier.DiscreteMeasure.uniform(G, pos)
    return [fourier.measure_transform(G, emp, p).matrix for p in irreps]


# ---------------------------------------------------------------------------
# empirical measures


@dataclass(frozen=True)
class EmpiricalRow:
    """Per-sample-size summary of an empirical-measure experiment."""

    N: int
    n_reps: int
    bound_mean: float
    bound_min: float
    bound_max: float
    best_m_mean: float
    variance_ratios: Tuple[Tuple[str, float], ...]
    oracle_mean: Optional[float] = None
    oracle_min: Optional[float] = None
    oracle_max: Optional[float] = None

    @property
    def max_variance_ratio(self) -> float:
        """Worst mean squared HS deviation relative to its dim/N budget."""
        return max(r for _, r in self.variance_ratios)

    def as_json_dict(self) -> dict:
        return {
            "N": self.N, "n_reps": self.n_reps,
            "bound": {"mean": self.bound_mean, "min": self.bound_min,
                      "max": self.bound_max},
            "best_M_mean": self.best_m_mean,
            "variance_ratios": {k: v for k, v in self.variance_ratios},
            "oracle": None if self.oracle_mean is None else {
                "mean": self.oracle_mean, "min": self.oracle_min,
                "max": self.oracle_max},
        }


EMPIRICAL_CSV_HEADER = ("N", "n_reps", "bound_mean", "bound_min", "bound_max",
                        "best_m_mean", "max_variance_ratio", "oracle_mean",
                        "oracle_min", "oracle_max")


def empirical_csv_row(row: EmpiricalRow) -> list:
    blank = lambda v: "" if v is None else v
    return [row.N, row.n_reps, row.bound_mean, row.bound_min, row.bound_max,
            row.best_m_mean, row.max_variance_ratio, blank(row.oracle_mean),
            blank(row.oracle_min), blank(row.oracle_max)]


def empirical_experiment(G: groups.GroupDescriptor,
                         source: Union[str, fourier.DiscreteMeasure],
                         N_list, n_reps: int, g, seed: int,
                         profile="paper_bump", m_cap: Optional[float] = None,
                         with_oracle: bool = True) -> List[EmpiricalRow]:
    """Empirical-measure sweep against a source distribution.

    ``source`` is "haar" or a discrete measure on G.  For each N in the
    ascending N_list, draws n_reps independent N-point empirical measures
    and reports: the optimized bound total against the source (mean and
    extremes), the per-irrep ratio of the mean squared HS deviation to its
    dim/N budget over the irreps below a small test cutoff, and, for
    discrete sources, the exact LP transport cost.
    """
    N_list = [int(N) for N in N_list]
    if not N_list or min(N_list) < 1:
        raise ValueError("N_list must be nonempty with positive entries")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly ascending")
    haar_source = isinstance(source, str)
    if haar_source and source != "haar":
        raise ValueError(f"unknown source {source!r}")
    if not haar_source and source.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    sweep = bound.CutoffSweep(
        G, g, profile,
        None if m_cap is None else bound.default_m_grid(G, cap=m_cap))
    var_irreps = groups.enumerate_irreps(
        G, _VARIANCE_CUTOFF_FACTOR * G.admissibility_threshold + 0.1)
    nu2 = None if haar_source else source
    children = np.random.SeedSequence(seed).generate_state(
        len(N_list) * n_reps, dtype=np.uint64).reshape(len(N_list), n_reps)
    rows: List[EmpiricalRow] = []
    for i, N in enumerate(N_list):
        totals, ms, oracles = [], [], []
        var_acc = np.zeros(len(var_irreps))
        for r in range(n_reps):
            s = int(children[i, r])
            if haar_source:
                atoms = groups.haar_sample(G, s, N)
            else:
                picks = np.random.default_rng(s).choice(
                    source.size, size=N, p=source.weights)
                atoms = source.atoms[picks]
            nu_bar = fourier.DiscreteMeasure.uniform(G, atoms)
            var_acc += fourier.hs_profile(G, nu_bar, nu2, var_irreps)
            best_m, rep = sweep.best(sweep.hs_profile(nu_bar, nu2))
            totals.append(rep.total)
            ms.append(best_m)
            if with_oracle and not haar_source:
                cost = transport.exact_wasserstein(G, g, nu_bar, source).cost
                if rep.total + rep.tolerance < cost:
                    raise DominanceError(
                        f"bound {rep.total} below LP cost {cost} at N={N}")
                oracles.append(cost)
        var_mean = var_acc / n_reps
        ratios = tuple((str(p.label), float(var_mean[j] * N / p.dim))
                       for j, p in enumerate(var_irreps))
        rows.append(EmpiricalRow(
            N=N, n_reps=n_reps,
            bound_mean=float(np.mean(totals)),
            bound_min=float(np.min(totals)),
            bound_max=float(np.max(totals)),
            best_m_mean=float(np.mean(ms)),
            variance_ratios=ratios,
            oracle_mean=float(np.mean(oracles)) if oracles else None,
            oracle_min=float(np.min(oracles)) if oracles else None,
            oracle_max=float(np.max(oracles)) if oracles else None))
    return rows


# ---------------------------------------------------------------------------
# equidistribution audits


@dataclass(frozen=True)
class AuditReport:
    """Equidistribution audit of a uniform point measure against Haar."""

    group_id: str
    n_points: int
    g_descriptor: str
    profile_id: str
    best_m: float
    report: bound.BoundReport
    gap_m: float
    gap_estimate: float
    character_profile: Tuple[Tuple[str, float, int, float], ...]

    def as_json_dict(self) -> dict:
        return {
            "group": self.group_id,
            "n_points": self.n_points,
            "g": self.g_descriptor,
            "profile": self.profile_id,
            "best_M": self.best_m,
            "bound": self.report.as_json_dict(),
            "gap_M": self.gap_m,
            "gap_estimate": self.gap_estimate,
            "character_profile": [
                {"irrep": lbl, "weight_norm": wn, "dim": d, "hs_sq": e}
                for lbl, wn, d, e in self.character_profile],
        }


def equidistribution_audit(G: groups.GroupDescriptor, points, g,
                           M_grid=None, profile="paper_bump",
                           gap_m: float = 25.5) -> AuditReport:
    """Bound the distance between a uniform point measure and Haar.

    ``points`` is either a point-set file path (with a ``# group=<id>``
    header) or a coordinate array.  The audit reports the bound optimized
    over the cutoff grid, the truncated spectral gap over irreps below
    gap_m, and the per-irrep squared HS energies on the same range (the
    character-sum profile driving the bound).  Deterministic: identical
    inputs give identical reports.
    """
    if isinstance(points, (str, os.PathLike)):
        _, pts = groups.load_points(points, expect_group=G.group_id)
    else:
        pts = np.asarray(points, dtype=float)
    nu = fourier.DiscreteMeasure.uniform(G, pts)
    best_m, rep = bound.optimize_M(G, g, nu, None, profile=profile,
                                   M_grid=M_grid)
    prof = []
    q_hat = 0.0
    for p_ in groups.enumerate_irreps(G, gap_m):
        blk = fourier.measure_transform(G, nu, p_)
        q_hat = max(q_hat, blk.op_norm)
        prof.append((str(p_.label), float(p_.weight_norm), int(p_.dim),
                     float(blk.hs_norm ** 2)))
    return AuditReport(
        group_id=G.group_id, n_points=nu.size, g_descriptor=g.descriptor(),
        profile_id=rep.profile_id, best_m=best_m, report=rep,
        gap_m=float(gap_m), gap_estimate=float(q_hat),
        character_profile=tuple(prof))
