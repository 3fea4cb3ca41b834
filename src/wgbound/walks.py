"""Experiment drivers: exact Fourier-side random walks, quaternion rotation
sets, empirical-measure sweeps, and equidistribution audits.

Walk bounds are computed on the Fourier side only: the transform blocks of
the k-th convolution power are the k-th matrix powers of the step-1 blocks,
so every reported walk number is free of sampling error.  `walk --verify`
checks that identity exactly on the two-step convolution; sampled walks
remain only as a statistical oracle for the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import bound, fourier, groups, transport
from ._util import SolverError, U, gamma, tolerance_union

_POWER_RECHECK_EVERY = 8
_POWER_TOL = 1e-9
_SUBMULT_TOL = 1e-9
# blocks whose anti-Hermitian part has at most this Frobenius norm are
# diagonalised once; the part itself enters their eigenvalue error bound
_HERMITIAN_TOL = 1e-12
_INVERSE_MATCH_TOL = 1e-12
# steps whose (steps x irreps) arrays walk_evolve forms at once
_STEP_BLOCK = 64
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
    """One convolution-power step: gap trace, bound totals and tolerances."""

    step: int
    q_hat: float
    fourier_sum: float
    exact_m: float
    exact_total: float
    power_check: Optional[float] = None
    relaxed_q: Optional[float] = None
    relaxed_m: Optional[float] = None
    relaxed_total: Optional[float] = None
    spectral_error: float = 0.0
    tolerances: Dict[str, float] = field(default_factory=dict)


WALK_CSV_HEADER = ("step", "q_hat", "fourier_sum", "exact_m", "exact_total",
                   "relaxed_q", "relaxed_m", "relaxed_total")


def csv_row(record, header) -> list:
    """The attributes of record named by header, with "" for None."""
    return ["" if v is None else v for v in (getattr(record, k) for k in header)]


def _real_type(d: int) -> bool:
    """Whether a walk block of dimension d belongs to an irrep of real type.

    An su2/so3 irrep of dimension d = 2j + 1 is of real type when j is an
    integer, so when d is odd (every so3 irrep, the integer spins of su2);
    the half-integer spins are quaternionic.  Torus irreps (d = 1) are
    complex and take the 1x1 route of _diagonalise.
    """
    return d > 1 and d % 2 == 1


@lru_cache(maxsize=64)
def _real_basis(d: int):
    """The real spherical-harmonic basis of a real-type level, d = 2l + 1.

    Returns (a, c, scale).  With row and column i holding the weight
    m = i - l, the unitary U = (diag(a) + J diag(c)) diag(sigma), J the
    reversal, has two nonzero entries per column (Ivanic & Ruedenberg 1996):
    column l is e_0, column l + m is (e_m + (-1)^m e_-m) / sqrt 2 and column
    l - m is i (e_m - (-1)^m e_-m) / sqrt 2, for m = 1..l.  So a and c hold
    0, +-1 and +-i, sigma is 1 at the centre and 1/sqrt 2 elsewhere, and
    scale[i, j] = sigma_i sigma_j is 1, 0.5 or the rounded 1/sqrt 2.
    The transform blocks of these levels satisfy conj(B) = C B C with
    C = antidiag((-1)^m), and U = C conj(U), so U^* B U is real.
    """
    m = np.arange(d) - d // 2
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    a = np.where(m < 0, -1j * sign, 1.0 + 0j)
    c = np.where(m > 0, sign + 0j, np.where(m < 0, 1j, 0j))
    off = m != 0
    scale = np.where(off[:, None] & off[None, :], 0.5,
                     np.where(off[:, None] | off[None, :], math.sqrt(0.5), 1.0))
    for arr in (a, c, scale):
        arr.flags.writeable = False
    return a, c, scale


def _walk_form(b: np.ndarray) -> np.ndarray:
    """A transform block in the basis its walk works in.

    For a real-type level (_real_type) this is fl(U^* b U) in the real basis
    of _real_basis, formed by two gathers, with the exact factors of a and c
    and one scaling; its imaginary part is rounding, and the walk powers its
    real part (_diagonalise charges both).  Other blocks are returned as
    they are.
    """
    if not _real_type(b.shape[0]):
        return b
    a, c, scale = _real_basis(b.shape[0])
    x = b * a + b[:, ::-1] * c
    return scale * (np.conj(a)[:, None] * x + np.conj(c)[:, None] * x[::-1])


def _diagonalise(b: np.ndarray):
    """Eigenvalues, eigenvectors and eigenvalue error bound of a walk block.

    b is a transform block in its walk form (_walk_form).  Returns
    (lam, V, delta) with B ~ V diag(lam) V^*, or None when B is left to the
    powering route; B is b, or the real part of b on a real-type level.
    The k-th power of a block on this route is read off its eigenvalue
    moduli: the spectral norm of B^k is q^k with q = max |lam_i|, and its
    squared HS norm is sum |lam_i|^2k.  delta bounds how far each |lam_i|
    may sit from an exact modulus of the transform block.  Below, |X| is
    the spectral norm, |X|_F >= |X| the Frobenius norm and u = 2^-53
    (_util.U).

    * A 1x1 block is its own eigenvalue; delta = 4 u |b| covers the
      rounding of |b| and of its k-th power.
    * On a real-type level, b = fl(U^* t U) for the transform block t and
      the exact unitary U of _real_basis, and Y = U^* t U is unitarily
      similar to t, so the powers of Y and of t have the same norms.  Each
      real component of an entry of Y is a sum of at most four terms
      +-Re or +-Im of entries of t times sigma_i sigma_j: the factors of a
      and c are exact, each of the two gathers adds one rounding, and the
      scaling by 0.5 is exact, while by the rounded 1/sqrt 2 (where one of
      i, j is the centre, which has one gather sum only) it adds two.  So
      each component errs by at most gamma_3 times the sum of its terms'
      moduli, and an entry by sqrt 2 gamma_3 (W^T T W)_ij, with W and T
      the matrices of the moduli of U's and t's entries.  W has the 2x2
      blocks (1/sqrt 2) [[1, 1], [1, 1]] and a 1 at the centre, so
      |W| = sqrt 2, and the basis change errs by
      |fl(Y) - Y|_F <= 2 sqrt 2 gamma_3 |t|_F.
      beta = 3 gamma_3 |b|_F bounds that, the rounding of the computed
      norm and |t|_F <= |b|_F + |fl(Y) - Y|_F included.  The imaginary part
      iota = |Im b|_F is dropped: B = Re b, so Y = B + i Im b - (fl(Y) - Y)
      lies within iota + beta of B.  On other levels iota = beta = 0.
    * A d x d block is taken when its anti-Hermitian part A = B - H,
      H = (B + B^*)/2, has alpha = |A|_F <= _HERMITIAN_TOL; eigh then
      diagonalises H.  The residual rho = |HV - V diag(lam)|_F and the
      orthogonality defect eta = |V^*V - I|_F are evaluated in floating
      point, and each is raised by 4 (d + 2) u |X|_F |Y|_F, a bound on
      the rounding of the product X Y that forms it.  With eta < 1, write
      V = QP with Q unitary and P = (V^*V)^(1/2), so |P - I| <= eta and
      |P^-1| <= 1/(1 - eta).  Then, with R = HV - V diag(lam),
      Q^*HQ - diag(lam) = (P diag(lam) - diag(lam) P) P^-1 + Q^* R P^-1
      is Hermitian of norm at most (2 eta q + rho) / (1 - eta), and
      Weyl's inequality puts each eigenvalue of H within that distance of
      its lam_i.  The transform block is unitarily similar to H plus a
      matrix of spectral norm at most kappa = alpha + iota + beta (A, the
      dropped imaginary part and the basis change), which moves its k-th
      power from H^k by at most (|H| + kappa)^k - |H|^k.  So with
      delta = kappa + (2 eta q + rho) / (1 - eta) + 4 u q:

          | |B^k| - q^k |                        <= (q + delta)^k - q^k = eps_k
          | |B^k|_F - (sum |lam_i|^2k)^(1/2) |   <= sqrt(d) eps_k,

      B^k here standing for the power of the transform block.  The first
      adds the eigenvalue shift of H, at most (q + delta - kappa)^k - q^k
      by convexity of x^k, to the shift from kappa; the second pairs the
      sorted eigenvalues in l2 and adds the same shift from kappa, at most
      sqrt(d) times its spectral norm.

    The norms alpha and iota are taken as computed.
    """
    d = b.shape[0]
    if d == 1:
        return b[0], np.ones((1, 1)), 4.0 * U * abs(b[0, 0])
    kappa = 0.0
    if _real_type(d):
        kappa = float(np.linalg.norm(b.imag)) + 3.0 * gamma(3) * float(np.linalg.norm(b))
        b = b.real
    H = 0.5 * (b + b.conj().T)
    alpha = float(np.linalg.norm(b - H))
    if alpha > _HERMITIAN_TOL:
        return None
    kappa += alpha
    lam, V = np.linalg.eigh(H)
    gamma_p = 4.0 * (d + 2) * U
    v_f = float(np.linalg.norm(V))
    rho = float(np.linalg.norm(H @ V - V * lam)) \
        + gamma_p * float(np.linalg.norm(H)) * v_f
    eta = float(np.linalg.norm(V.conj().T @ V - np.eye(d))) + gamma_p * v_f ** 2
    if eta >= 1.0:
        return None
    q = float(np.max(np.abs(lam)))
    return lam, V, kappa + (2.0 * eta * q + rho) / (1.0 - eta) + 4.0 * U * q


def _powers(x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Rows x ** k for the steps ks, each bitwise x ** k for a Python int k.

    numpy squares x ** 2 (it does not call pow), so row k = 2 does too.
    """
    out = x ** ks[:, None]
    out[ks == 2] = np.square(x)
    return out


def _power_gap(q: np.ndarray, delta: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(q + delta)^k - q^k elementwise, one row per step k, without cancellation.

    Raising q raises the gap, so q below delta (or zero) is lifted to it.
    """
    q = np.maximum(q, np.maximum(delta, np.finfo(float).tiny))
    return _powers(q, ks) * np.expm1(ks[:, None] * np.log1p(delta / q))


def _carried_powers(blocks):
    """Recheck references R_8, R_16, ... of each block or block stack B.

    B^8 is one matrix_power per entry, taken on the first draw; each later
    reference is one product, R_8j = R_8(j-1) B^8.  That order of products
    differs from the step-by-step powering and from the eigen
    reconstruction, so the reference stays independent of both routes.
    """
    step = [np.linalg.matrix_power(b, _POWER_RECHECK_EVERY) for b in blocks]
    refs = step
    while True:
        yield refs
        refs = [r @ s for r, s in zip(refs, step)]


def walk_evolve(G: groups.GroupDescriptor, nu: fourier.DiscreteMeasure,
                k_max: int, M: float, g=None, profile="paper_bump",
                q_hint: Optional[float] = None) -> List[WalkState]:
    """Power the walk of nu for k_max steps and bound each step against Haar.

    Each state carries the truncated gap trace q_hat(k) over the irreps
    below M, the full Fourier sum below M, and the best exact bound total
    over the default cutoff grid, which ends at M and holds those irreps.

    Blocks of real-type irreps (every so3 irrep and the integer spins of
    su2, _real_type) are moved once into the real spherical-harmonic basis
    (_real_basis, _walk_form), where they are real up to rounding; the walk
    powers, diagonalises and rechecks their real parts in real arithmetic.
    Half-integer su2 spins and torus characters stay complex.

    Blocks that are 1x1 (every torus irrep) or Hermitian within
    _HERMITIAN_TOL (every block of a symmetric step set) are diagonalised
    once (_diagonalise).  Step k then reads only the eigenvalue moduli to
    the power k, so the steps go through in blocks of _STEP_BLOCK as
    (steps x irreps) and (steps x grid) arrays: gap trace, HS sums, Fourier
    sums at the cuts, totals and their argmin, error bounds and relaxed
    totals, all formed by the sweeps (CutoffSweep.sums, gap_sums, totals),
    so a block's arrays scale with the irreps below M and with the grids,
    not with the gap sweep's spectrum.  fourier_sum is the sum at the top
    cut, over every irrep below M.  Other blocks are multiplied out step by
    step and their norms taken from the powered matrices.  On such a block
    the dropped imaginary part of a real-type level moves the norms only
    at second order (it and the powered real part are real matrices, so
    the first-order change of each squared norm is imaginary and drops
    out) and, like the products' rounding, is not charged.  Every 8 steps
    each block's power is rechecked against the carried reference R_8j =
    R_8(j-1) B^8 (_carried_powers); the checks of a step block are formed
    together, each stack of eigen-route blocks of one dimension
    reconstructed at all of its check steps in one broadcast product.  The
    gap trace is checked for submultiplicativity; either failure raises
    SolverError.  Each state's spectral_error carries the eigenvalue error
    bounds of _diagonalise through the k-th power: it bounds how far q_hat,
    fourier_sum and exact_total may sit from the values of the exact block
    powers (0 when no block is diagonalised).
    Each state's tolerances are those of its walk CSV row: the recheck and
    submultiplicativity slacks, walk_spectral (= spectral_error), and the
    psi_quadrature and float_slack entries that a bound report carries at
    exact_m and exact_total (CutoffSweep.tolerances).  power_recheck and
    gap_submultiplicative are the thresholds of those two checks, not
    parts of a certified total, and a walk row carries no "total" entry
    yet: what must be added to exact_total for a certified bound still
    lacks the transforms' own rounding and a bound for the powering route.

    With ``q_hint`` each state adds a gap-relaxed total computed under the
    hypothesis that the step-k gap over the full dual is at most q_hint**k,
    optimized over a much larger scalar cutoff grid.  Those totals inherit
    the hypothesis; they are not certified by the enumerated blocks alone.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if q_hint is not None and not 0.0 <= q_hint <= 1.0:
        raise ValueError(f"gap hint must be a number in [0, 1], got {q_hint}")
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    if g is None:
        g = bound.ModulusOfContinuity.power(1.0)
    # below the threshold default_m_grid refuses a cutoff that has irreps
    # under it, and spectral_data refuses a non-finite one
    admissible = G.admissibility_threshold <= M < math.inf
    if admissible or len(groups.spectral_data(G, M)["label"]):
        sweep = bound.CutoffSweep(G, g, profile, bound.default_m_grid(G, cap=M))
    if not admissible or not len(sweep.labels):
        raise ValueError(f"no irreps below M={M}; raise the cutoff")
    base = [_walk_form(b) for b in fourier.measure_transforms(G, nu, sweep.labels)]
    gap_sweep = None if q_hint is None else bound.CutoffSweep(
        G, g, profile, relaxed=True)

    route = [_diagonalise(b) for b in base]
    base = [b.real.copy() if _real_type(b.shape[0]) else b for b in base]
    pow_idx = [i for i, r in enumerate(route) if r is None]
    eig = [(i, r) for i, r in enumerate(route) if r is not None]
    eig_idx = np.asarray([i for i, _ in eig], dtype=int)
    lams = [r[0] for _, r in eig]
    mods = np.abs(np.concatenate([np.zeros(0)] + lams))
    dims = np.asarray([lam.size for lam in lams], dtype=int)
    starts = np.cumsum(dims) - dims
    q_eig = np.maximum.reduceat(mods, starts)
    delta = np.asarray([r[2] for _, r in eig], dtype=float)
    root_d = np.sqrt(dims)
    # eigen-route blocks of one dimension, stacked for the recheck
    stacks = {}
    for i, (lam, V, _) in eig:
        stacks.setdefault(lam.size, []).append((base[i], V, V.conj().T, lam))
    stacks = [tuple(np.stack(col) for col in zip(*grp))
              for grp in stacks.values()]
    refs = _carried_powers([base[i] for i in pow_idx] + [s[0] for s in stacks])

    def recheck(kc: np.ndarray, powered: list) -> dict:
        """Largest entry drift of the powers at the check steps kc from their
        references, by step; powered holds the powering route's blocks at
        each step of kc.  Each stack is reconstructed at all of kc at once."""
        if not kc.size:
            return {}
        drawn = [next(refs) for _ in kc]
        drift = np.zeros(kc.size)
        for j, (_, V, Vh, lam) in enumerate(stacks):
            got = (V * lam[:, None, :] ** kc[:, None, None, None]) @ Vh
            ref = np.stack([r[len(pow_idx) + j] for r in drawn])
            drift = np.maximum(drift, np.max(np.abs(got - ref), axis=(1, 2, 3)))
        for c, (blocks, r) in enumerate(zip(powered, drawn)):
            drift[c] = max(drift[c], *(np.max(np.abs(a - b)) for a, b in zip(blocks, r)))
        return dict(zip(kc.tolist(), drift.tolist()))

    states: List[WalkState] = []
    powered = [base[i] for i in pow_idx]
    # q_hat(0) = 1: the check at step 1 then always holds
    q1, q_prev = None, 1.0
    for k0 in range(1, k_max + 1, _STEP_BLOCK):
        ks = np.arange(k0, min(k0 + _STEP_BLOCK, k_max + 1))
        n, steps = ks.size, ks.tolist()
        pk = _powers(mods, ks)
        hs_sq = np.empty((n, len(base)))
        # one 1-d reduceat, whose segments are those of each row's own
        hs_sq[:, eig_idx] = np.add.reduceat(
            (pk * pk).ravel(), (starts + mods.size * np.arange(n)[:, None]).ravel()
        ).reshape(n, eig_idx.size)
        q_hat = np.max(pk, axis=1, initial=0.0)
        kc = ks[ks % _POWER_RECHECK_EVERY == 0]
        at_checks = []
        if pow_idx:  # the powering route, step by step
            for j, k in enumerate(steps):
                if k > 1:
                    powered = [bk @ base[i] for bk, i in zip(powered, pow_idx)]
                q_hat[j] = max(q_hat[j], *(np.linalg.norm(bk, 2) for bk in powered))
                hs_sq[j, pow_idx] = [np.vdot(bk, bk).real for bk in powered]
                if k % _POWER_RECHECK_EVERY == 0:
                    at_checks.append(powered)
        checks = recheck(kc, at_checks)
        if q1 is None:
            q1 = float(q_hat[0])
        prev = np.concatenate(([q_prev], q_hat[:-1]))
        unsub = ks[q_hat > prev * q1 + _SUBMULT_TOL]
        drift = [k for k, c in checks.items() if c > _POWER_TOL]
        if drift and (not unsub.size or drift[0] <= unsub[0]):
            raise SolverError(
                f"powered blocks drifted {checks[drift[0]]:.3e} at step {drift[0]}")
        if unsub.size:
            raise SolverError(f"gap trace not submultiplicative at step {unsub[0]}")
        q_prev = float(q_hat[-1])
        fs = sweep.sums(hs_sq)
        totals, best = sweep.totals(fs)
        # spectral_error: eps_k per diagonalised block, then its HS and
        # Fourier-sum consequences and the largest shift of a total
        eps = _power_gap(q_eig, delta, ks)
        hs_err = np.zeros((n, len(base)))
        hs_err[:, eig_idx] = root_d * eps * (
            2.0 * np.sqrt(hs_sq[:, eig_idx]) + root_d * eps)
        fs_err = sweep.sums(hs_err)
        total_err = sweep.phis * (np.sqrt(fs) - np.sqrt(np.maximum(fs - fs_err, 0.0)))
        spectral = np.maximum(np.maximum(np.max(eps, axis=1, initial=0.0),
                                         fs_err[:, -1]), np.max(total_err, axis=1))
        total = totals[np.arange(n), best]
        columns = dict(step=steps, q_hat=q_hat.tolist(),
                       fourier_sum=fs[:, -1].tolist(),
                       exact_m=sweep.grid[best].tolist(), exact_total=total.tolist(),
                       power_check=[checks.get(k) for k in steps],
                       spectral_error=spectral.tolist())
        if gap_sweep is not None:
            # Python's float power per step, as bound.optimized_gap_bound is given
            qk = np.asarray([float(q_hint) ** k for k in steps])
            r_totals, r_best = gap_sweep.totals(gap_sweep.gap_sums(qk))
            columns.update(relaxed_q=qk.tolist(),
                           relaxed_m=gap_sweep.grid[r_best].tolist(),
                           relaxed_total=r_totals[np.arange(n), r_best].tolist())
        for j, i in enumerate(best.tolist()):
            fields = {key: col[j] for key, col in columns.items()}
            tol = sweep.tolerances(i, fields["exact_total"])
            fields["tolerances"] = {
                "power_recheck": _POWER_TOL, "walk_spectral": fields["spectral_error"],
                "gap_submultiplicative": _SUBMULT_TOL,
                **{t: tol[t] for t in ("psi_quadrature", "float_slack")}}
            states.append(WalkState(**fields))
    return states


def sampled_walk_blocks(G: groups.GroupDescriptor,
                        nu: fourier.DiscreteMeasure, k: int, n_paths: int,
                        seed: int, labels: np.ndarray) -> List[np.ndarray]:
    """Mean transform blocks of n_paths sampled k-step products, per label row.

    A statistical oracle of the powering identity for the tests; no
    command calls it (walk --verify checks the identity exactly).  Each
    returned matrix estimates the corresponding exact block with HS
    standard error at most sqrt(dim / n_paths).
    """
    if k < 1 or n_paths < 1:
        raise ValueError("k and n_paths must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.choice(nu.size, size=(n_paths, k), p=nu.weights)
    pos = nu.atoms[idx[:, 0]]
    for j in range(1, k):
        pos = groups.multiply(G, pos, nu.atoms[idx[:, j]])
    emp = fourier.DiscreteMeasure.uniform(G, pos)
    return fourier.measure_transforms(G, emp, labels)


# ---------------------------------------------------------------------------
# one HS profile for a cutoff sweep and a short irrep range


def _joint_irreps(sweep: bound.CutoffSweep, cutoff: float) -> Tuple[dict, int]:
    """spectral_data of the sweep's and the sub-cutoff irreps, and the latter's count.

    Along its rows the weight norm never decreases, so both ranges are
    prefixes, and slices of one hs_profile_rows over the label rows equal
    separate calls bit for bit.  The irreps below cutoff are counted by
    weight_norm < cutoff, the rule of the sweep's own cuts.
    """
    sd = groups.spectral_data(sweep.G, max(cutoff, float(sweep.grid[-1])))
    return sd, int(np.searchsorted(sd["weight_norm"], cutoff))


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
    # tolerance union of the bound reports behind bound_mean/min/max
    tolerances: Dict[str, float] = field(default_factory=dict)

    @property
    def max_variance_ratio(self) -> float:
        """Worst mean squared HS deviation relative to its dim/N budget."""
        return max(r for _, r in self.variance_ratios)


EMPIRICAL_CSV_HEADER = ("N", "n_reps", "bound_mean", "bound_min", "bound_max",
                        "best_m_mean", "max_variance_ratio", "oracle_mean",
                        "oracle_min", "oracle_max")


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

    Every draw from a discrete source is a multiset of its atoms, so each
    signed measure nu_bar - source is one row of masses on source.atoms
    (fourier.empirical_masses), and one fourier.hs_profile_rows call
    profiles every draw of every N on that shared support.  An all-zero row
    (nu_bar equal to the source) has Fourier sum 0.  A Haar draw has its
    own support and its own hs_profile_rows call, on fourier.merged_atoms.
    One stacked CutoffSweep.sums and totals give every draw's Fourier sums
    and best cutoff, and the sweep reports each draw there.
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
    sd, n_var = _joint_irreps(
        sweep, _VARIANCE_CUTOFF_FACTOR * G.admissibility_threshold + 0.1)
    labels, n_sweep = sd["label"], len(sweep.labels)
    children = np.random.SeedSequence(seed).generate_state(
        len(N_list) * n_reps, dtype=np.uint64).reshape(len(N_list), n_reps)
    # profiles[i, r] and same[i, r]: the draw r of size N_list[i]
    if haar_source:
        profiles = np.asarray([[fourier.hs_profile_rows(G, *fourier.merged_atoms(
            fourier.DiscreteMeasure.uniform(G, groups.haar_sample(G, int(s), N)), None),
            labels)[0] for s in row] for N, row in zip(N_list, children)])
        same = np.zeros(children.shape, dtype=bool)
    else:
        picks = [[np.random.default_rng(int(s)).choice(
            source.size, size=N, p=source.weights) for s in row]
            for N, row in zip(N_list, children)]
        masses = np.stack([fourier.empirical_masses(source, p) for row in picks for p in row])
        profiles = fourier.hs_profile_rows(G, source.atoms, masses, labels).reshape(
            children.shape + (len(labels),))
        same = ~np.any(masses, axis=1).reshape(children.shape)
    # identical measures have Fourier sum 0, as CutoffSweep.fourier_sums says
    fs = sweep.sums(np.where(same[..., None], 0.0, profiles[..., :n_sweep]))
    best = sweep.totals(fs)[1]
    rows: List[EmpiricalRow] = []
    for i, N in enumerate(N_list):
        reports, oracles = [], []
        var_acc = np.zeros(n_var)
        for r in range(n_reps):
            hs = profiles[i, r]
            var_acc += hs[:n_var]
            b = int(best[i, r])
            rep = sweep.report(b, None if same[i, r] else fs[i, r, b])
            reports.append(rep)
            if with_oracle and not haar_source:
                nu_bar = fourier.DiscreteMeasure.uniform(G, source.atoms[picks[i][r]])
                cost = transport.exact_wasserstein(G, g, nu_bar, source).cost
                # the LP cost is certified to within GAP_TOL, as in bound --verify
                bound.check_dominance([rep], cost, transport.GAP_TOL)
                oracles.append(cost)
        var_mean = var_acc / n_reps
        ratios = tuple((str(tuple(label)), float(v * N / d)) for label, v, d in zip(
            labels[:n_var].tolist(), var_mean, sd["dim"][:n_var].tolist()))
        totals = [r.total for r in reports]
        rows.append(EmpiricalRow(
            N=N, n_reps=n_reps,
            bound_mean=float(np.mean(totals)),
            bound_min=float(np.min(totals)),
            bound_max=float(np.max(totals)),
            best_m_mean=float(np.mean(sweep.grid[best[i]])),
            variance_ratios=ratios,
            oracle_mean=float(np.mean(oracles)) if oracles else None,
            oracle_min=float(np.min(oracles)) if oracles else None,
            oracle_max=float(np.max(oracles)) if oracles else None,
            tolerances=tolerance_union(reports)))
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

    ``points`` is a coordinate array, one point per row (read a point-set
    file with groups.load_points).  The audit reports the bound optimized
    over the cutoff grid, the truncated spectral gap over irreps below
    gap_m, and the per-irrep squared HS energies on the same range (the
    character-sum profile driving the bound).  Deterministic: identical
    inputs give identical reports.
    """
    nu = fourier.DiscreteMeasure.uniform(G, points)
    sweep = bound.CutoffSweep(G, g, profile, M_grid)
    sd, n_gap = _joint_irreps(sweep, gap_m)
    hs = fourier.hs_profile_rows(G, *fourier.merged_atoms(nu, None), sd["label"])[0]
    best_m, rep = sweep.best(sweep.sums(hs[:len(sweep.labels)]))
    rows = zip(*(sd[key][:n_gap].tolist() for key in ("label", "weight_norm", "dim")), hs)
    prof = tuple((str(tuple(label)), wn, d, float(e)) for label, wn, d, e in rows)
    return AuditReport(
        group_id=G.group_id, n_points=nu.size, g_descriptor=g.descriptor(),
        profile_id=rep.profile_id, best_m=best_m, report=rep,
        gap_m=float(gap_m),
        gap_estimate=fourier.spectral_gap_estimate(G, nu, gap_m),
        character_profile=prof)
