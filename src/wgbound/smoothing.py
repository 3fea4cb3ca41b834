"""Smoothing-kernel machinery behind the main Wasserstein bound.

Radial bump profiles on the Cartan algebra, their Fourier transforms
(evaluated within a stated error bound) with certified power-law tail
majorants, Weyl density coefficients, the coefficients a_pi of the
degree-limited smoothing polynomial, and the Fourier decay budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._util import SolverError, pairwise_sum
from .groups import GroupDescriptor, Irrep, enumerate_irreps

PROFILE_IDS = ("paper_bump", "plateau")

_TAIL_ORDERS = (2, 4, 6)
_MAJORANT_SAFETY = 1.1


# ---------------------------------------------------------------------------
# truncated Taylor jets: arrays whose row k is the k-th Taylor coefficient
# (Griewank & Walther, Evaluating Derivatives, ch. 13)

_JET_ORDER = max(_TAIL_ORDERS)


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    for k in range(len(a)):
        out[k] = (a[k] - sum(out[j] * b[k - j] for j in range(k))) / b[0]
    return out


def _jet_exp(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, len(a)):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


def _jet_sqrt(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        out[k] = (a[k] - sum(out[j] * out[k - j] for j in range(1, k))) / (2.0 * out[0])
    return out


# ---------------------------------------------------------------------------
# bump profiles


def _plateau_step(t: np.ndarray) -> np.ndarray:
    # smooth 0->1 step on (0,1); flat to all orders at both ends
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    z = np.clip(1.0 / ti - 1.0 / (1.0 - ti), -700.0, 700.0)
    out[inside] = 1.0 / (1.0 + np.exp(z))
    out[t >= 1.0] = 1.0
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Smooth radial bump on the Cartan algebra: 1 at 0, vanishing at radius 1."""

    profile_id: str
    is_plateau: bool

    def radial(self, t) -> np.ndarray:
        t = np.abs(np.asarray(t, dtype=float))
        if self.is_plateau:
            return _plateau_step(2.0 * (1.0 - t))
        out = np.zeros_like(t)
        inside = t < 1.0
        q = t[inside] ** 2
        out[inside] = np.exp(-q / (1.0 - q))
        return out

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim <= 1:
            return self.radial(np.linalg.norm(np.atleast_1d(X)))
        return self.radial(np.linalg.norm(X, axis=-1))

    def _t_jet(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Taylor coefficients in t of h(t, c) = radial(sqrt(t^2 + c^2)).

        Row k holds the k-th coefficient, so the k-th t-derivative is
        k! * row k.  Valid where the profile is not locally constant.
        """
        q = np.zeros((_JET_ORDER + 1,) + t.shape)
        q[0], q[1], q[2] = t * t + c * c, 2.0 * t, 1.0
        one = np.zeros_like(q)
        one[0] = 1.0
        if self.is_plateau:
            tau = 2.0 * (one - _jet_sqrt(q))
            z = _jet_div(one, tau) - _jet_div(one, one - tau)
            return _jet_div(one, one + _jet_exp(z))
        return _jet_exp(-_jet_div(q, one - q))


def bump_profile(profile_id: str) -> BumpProfile:
    if profile_id not in PROFILE_IDS:
        raise ValueError(f"unknown profile {profile_id!r}; expected one of {PROFILE_IDS}")
    return BumpProfile(profile_id=profile_id, is_plateau=profile_id == "plateau")


def as_profile_id(profile) -> str:
    """Id of a profile given as a BumpProfile or as its id string."""
    return profile.profile_id if isinstance(profile, BumpProfile) else str(profile)


# ---------------------------------------------------------------------------
# radial Fourier transforms


def _gauss_nodes(lo: np.ndarray, hi: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights of the given order on each panel [lo, hi]."""
    gx, gw = leggauss(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


# F is summed by the trapezoidal rule on t_k = k / _T_NODES.  A power of
# two, so that t_k and the phase reduction of _phases are exact, and far
# enough beyond _X_MAX, the largest |X| evaluated (80 pi on the tori), that
# the aliases F(X + m _T_NODES) stay below the rounding.  k = _T_BLOCK a + b
# splits every cosine by angle addition.
_T_NODES = 2048
_T_BLOCK = 64
_X_MAX = 256.0
# P_r for r = 2, 3 by Gauss-Legendre on _P_PANELS panels, at two orders
_P_PANELS = 32
_P_ORDERS = (12, 20)
# rows of t_k, and of arguments X, per block: under 1 MB of temporaries
_ROWS = 32
# rounding budget of evaluate, in units u = 2^-53 of h sum_k |P(t_k)|:
# - phases within 3 pi u and trig values within 4 ulp put each
#   cos(theta + phi) within 2 sqrt(2) (3 pi + 4) u < 38 u;
# - the GEMM over b, the product, the difference and the pairwise sum over
#   a add gamma_71 (64 + 1 + 1 + 5);
# - the tabulated P adds 48 u: 20 u relative (bump values, products and
#   pairwise sums over 640 nodes) and 8 u absolute per bump value, which
#   over the unit ball of rank r <= 3 is under 28 u of h sum_k |P(t_k)|.
# 157 in all
_ROUNDING_UNITS = 160


def _projection(profile: BumpProfile, r: int, order: int) -> np.ndarray:
    """P_r(t_k) for t_k = k / _T_NODES, k = 0.._T_NODES: the bump integrated
    over the hyperplane at distance t_k from the origin.

    P_1(t) = eta(t); for r = 2, 3 P_r(t) = c_r int_0^L eta(sqrt(t^2 + u^2))
    u^(r-2) du with L = sqrt(1 - t^2), c_2 = 2 and c_3 = 2 pi (polar
    coordinates in the plane), by Gauss-Legendre panels of the given order.
    """
    t = np.arange(_T_NODES + 1) / _T_NODES
    if r == 1:
        return profile.radial(t)
    edges = np.linspace(0.0, 1.0, _P_PANELS + 1)
    y, w = _gauss_nodes(edges[:-1], edges[1:], order)
    out = np.empty_like(t)
    for lo in range(0, t.size, _ROWS):
        tb = t[lo:lo + _ROWS, None]
        half = np.sqrt((1.0 - tb) * (1.0 + tb))
        u = half * y
        vals = profile.radial(np.hypot(tb, u)) * u ** (r - 2) * w
        out[lo:lo + _ROWS] = half[:, 0] * pairwise_sum(vals.T)
    return (2.0 if r == 2 else 2.0 * np.pi) * out


def _phases(s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """2 pi s j modulo 2 pi, in about [-pi, pi], for 0 <= s <= 1/8 and integers j < 2^11.

    s splits as hi + lo with hi a multiple of 2^-40, so hi j (a multiple of
    2^-40 below 2^8) and its reduction to [-1/2, 1/2] turns are exact and
    only the tiny lo j is rounded: each phase is off by at most 3 pi u.
    """
    hi = np.round(s * 2.0 ** 40) * 2.0 ** -40
    turns = hi[:, None] * j
    turns -= np.round(turns)
    return 2.0 * np.pi * (turns + (s - hi)[:, None] * j)


def _cosine_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k weights[k] cos(2 pi x t_k) for one block of x in [0, _X_MAX].

    With k = _T_BLOCK a + b, cos(theta_a + phi_b) = cos theta_a cos phi_b -
    sin theta_a sin phi_b: one GEMM over b per trig function, then a
    pairwise sum over a.  Every cosine is exact angle addition of two
    directly evaluated phases, never a recurrence.
    """
    s = x / _T_NODES
    phi = _phases(s, np.arange(_T_BLOCK))
    theta = _phases(s, _T_BLOCK * np.arange(_T_NODES // _T_BLOCK))
    w = weights.reshape(-1, _T_BLOCK)
    terms = (np.cos(phi) @ w.T) * np.cos(theta) - (np.sin(phi) @ w.T) * np.sin(theta)
    return pairwise_sum(terms.T)


def _tail_majorants(profile: BumpProfile, r: int) -> Dict[int, float]:
    """Constants C_k with |F(x)| <= C_k / x^k, via k partial integrations.

    C_k = (2 pi)^{-k} * L1 norm of the k-th partial derivative of eta along
    one coordinate axis, integrated over the ball.  Evaluated on a dense
    midpoint grid over the shell where the profile is not constant, and
    inflated by a safety factor; one Taylor jet per point gives every k.
    """
    r_lo, r_hi = (0.5 if profile.is_plateau else 0.0), 1.0
    if r == 1:
        n = 20001
        tv = np.linspace(r_lo, r_hi, n + 1)
        tv = 0.5 * (tv[:-1] + tv[1:])
        cv = np.zeros_like(tv)
        wv = np.full_like(tv, 2.0 * (r_hi - r_lo) / n)
    else:
        nt, nc = 1601, 801
        tv = np.linspace(0.0, r_hi, nt + 1)
        tv = 0.5 * (tv[:-1] + tv[1:])
        cv = np.linspace(0.0, r_hi, nc + 1)
        cv = 0.5 * (cv[:-1] + cv[1:])
        T, C = np.meshgrid(tv, cv, indexing="ij")
        rad = np.hypot(T, C)
        mask = (rad > r_lo) & (rad < r_hi)
        tv, cv = T[mask], C[mask]
        cell = (r_hi / nt) * (r_hi / nc)
        wv = np.full_like(tv, 4.0 * cell) if r == 2 else 4.0 * np.pi * cell * cv
    sums = dict.fromkeys(_TAIL_ORDERS, 0.0)
    # in blocks, so the jets' temporaries stay a few MB
    for lo in range(0, tv.size, 65536):
        blk = slice(lo, lo + 65536)
        with np.errstate(all="ignore"):
            jet = np.nan_to_num(profile._t_jet(tv[blk], cv[blk]),
                                nan=0.0, posinf=0.0, neginf=0.0)
        for k in _TAIL_ORDERS:
            sums[k] += float(np.abs(jet[k]) @ wv[blk])
    return {k: _MAJORANT_SAFETY * math.factorial(k) * sums[k] / (2.0 * np.pi) ** k
            for k in _TAIL_ORDERS}


@dataclass(frozen=True)
class BumpTransform:
    """Radial Fourier transform F of a bump profile in rank r, for |X| <= _X_MAX.

    By the projection-slice theorem F(X) = int_{-1}^{1} P(t) cos(2 pi X t) dt,
    P the bump's projection onto a line (_projection).  evaluate sums it by
    the trapezoidal rule on t_k = k h, h = 1/_T_NODES; P is smooth with
    support in [-1, 1], so by Poisson summation the sum is exactly
    sum_m F(X + m _T_NODES).  ``error`` bounds |evaluate(X) - F(X)| at every
    |X| <= _X_MAX.  It is the sum of three parts:

    - aliases: 2 sum_{m >= 1} tail_bound(m _T_NODES - _X_MAX), proven from
      the majorants;
    - the P check: h sum_k |P_k at order 20 - P_k at order 12|, since
      |Delta F(X)| <= h sum_k |Delta P_k| at every X;
    - rounding: _ROUNDING_UNITS u h sum_k |P_k|.

    The first two must each stay below the third, or the build raises
    SolverError.
    """

    profile: BumpProfile
    r: int
    majorants: Dict[int, float]
    f0: float
    error: float
    weights: np.ndarray = field(repr=False, compare=False)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.abs(x.ravel())
        if flat.size and not flat.max() <= _X_MAX:
            raise ValueError(f"bump transform is tabulated for |x| <= {_X_MAX}")
        # every block has _ROWS rows, so every GEMM has one shape and a value
        # does not depend on the batch it is evaluated in
        padded = np.zeros(-(-flat.size // _ROWS) * _ROWS)
        padded[:flat.size] = flat
        out = np.empty_like(padded)
        for lo in range(0, padded.size, _ROWS):
            out[lo:lo + _ROWS] = _cosine_sum(self.weights, padded[lo:lo + _ROWS])
        return out[:flat.size].reshape(x.shape)

    def tail_bound(self, x: float) -> float:
        """Certified bound on |F| at radius x > 0 from the power-law majorants."""
        if x <= 0:
            raise ValueError("tail bound needs x > 0")
        return min(self.majorants[k] / x ** k for k in _TAIL_ORDERS)


@lru_cache(maxsize=16)
def _bump_transform_cached(profile_id: str, r: int) -> BumpTransform:
    profile = bump_profile(profile_id)
    p_lo, p = (_projection(profile, r, order) for order in _P_ORDERS)
    # trapezoidal weights h c_k P_k over k = -K..K folded onto k = 0..K-1
    # (P is even and P(1) = 0); c_0 = 1, else 2
    scale = np.full(_T_NODES, 2.0 / _T_NODES)
    scale[0] = 1.0 / _T_NODES
    weights = scale * p[:-1]
    check = float(scale @ np.abs(p - p_lo)[:-1])
    rounding = _ROUNDING_UNITS * 2.0 ** -53 * float(scale @ np.abs(p[:-1]))
    majorants = _tail_majorants(profile, r)
    # the m = 1 alias, then m >= 2 under int_1^inf C_k / (s K - X)^k ds
    k = max(_TAIL_ORDERS)
    gap = _T_NODES - _X_MAX
    aliases = 2.0 * (min(majorants[j] / gap ** j for j in _TAIL_ORDERS)
                     + majorants[k] / ((k - 1) * _T_NODES * gap ** (k - 1)))
    if not (aliases <= rounding and check <= rounding):
        raise SolverError(
            f"bump transform table not at rounding level (aliases {aliases:.2e}, "
            f"P check {check:.2e}, rounding {rounding:.2e})")
    return BumpTransform(profile=profile, r=r, majorants=majorants,
                         f0=float(pairwise_sum(weights)),
                         error=aliases + check + rounding, weights=weights)


def bump_transform(profile, r: int) -> BumpTransform:
    """Fourier transform of a radial bump over R^r, with tail majorants."""
    if r not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {r}")
    profile_id = as_profile_id(profile)
    if profile_id not in PROFILE_IDS:
        raise ValueError(f"unknown profile {profile_id!r}")
    return _bump_transform_cached(profile_id, r)


# ---------------------------------------------------------------------------
# Weyl density and kernel coefficients


def weyl_density_coeffs(G: GroupDescriptor) -> Dict[tuple, int]:
    """Exact integer coefficients of the Weyl density as a torus polynomial.

    Keys are root-lattice elements in weight coordinates; the constant term
    equals the order of the Weyl group.
    """
    if not G.positive_roots:
        return {(0.0,) * G.r: 1}
    # rank one: |e^{2 pi i x} - 1|^2 = 2 - e^{2 pi i x} - e^{-2 pi i x}
    return {(0.0,): 2, (1.0,): -1, (-1.0,): -1}


@dataclass(frozen=True)
class KernelCoefficients:
    """Coefficients a_pi of the smoothing polynomial at degree cutoff M."""

    group_id: str
    profile_id: str
    M: float
    m0: int
    coeffs: Dict[Irrep, float]

    def as_json_dict(self) -> dict:
        entries = [
            {"label": list(p.label), "a": a, "dim": p.dim}
            for p, a in self.coeffs.items()
        ]
        return {"group": self.group_id, "profile": self.profile_id,
                "M": self.M, "M0": self.m0, "entries": entries}


def kernel_degree(G: GroupDescriptor, M: float) -> int:
    """The scaling integer M0 = floor(M / (|2 rho+| + a))."""
    return int(math.floor(M / G.admissibility_threshold))


def kernel_coefficients(G: GroupDescriptor, M: float,
                        profile="paper_bump") -> KernelCoefficients:
    """Coefficients a_pi of the central smoothing polynomial of degree < M.

    a_pi is a finite double sum of bump samples over the weights of pi and
    the root lattice, weighted by the Weyl density coefficients.
    """
    if M < G.admissibility_threshold:
        raise ValueError(
            f"M={M} below admissibility threshold {G.admissibility_threshold} "
            f"for {G.group_id}")
    prof = profile if isinstance(profile, BumpProfile) else bump_profile(str(profile))
    m0 = kernel_degree(G, M)
    dens = weyl_density_coeffs(G)
    lams = np.asarray(list(dens.keys()), dtype=float)
    cs = np.asarray([dens[tuple(l)] for l in lams], dtype=float)
    wsc = 1.0 / G.weyl_order
    coeffs: Dict[Irrep, float] = {}
    for p in enumerate_irreps(G, M, include_trivial=True):
        mu = np.asarray(p.weights, dtype=float)            # (dim, rank)
        # arguments mu/(a m0) - lam/a for all weight/lattice pairs
        args = mu[:, None, :] / (G.a * m0) - lams[None, :, :] / G.a
        vals = prof.radial(np.linalg.norm(args, axis=-1))
        coeffs[p] = float(np.dot(vals, cs).sum() * wsc)
    return KernelCoefficients(group_id=G.group_id, profile_id=prof.profile_id,
                              M=float(M), m0=m0, coeffs=coeffs)


# ---------------------------------------------------------------------------
# decay budget


def budget_interval(n: int) -> float:
    """Right endpoint of the admissible interval for the budget parameter c."""
    return 2.0 * (math.sqrt(n * n + n) - n)


def fourier_decay_budget(n: int, g, M: float, c: Optional[float] = None) -> float:
    """Budget bounding sum of d_pi kappa_pi |f_hat(pi)|_HS^2 over |weight| <= M.

    Valid for any f whose L2 translation modulus is bounded by g.  The
    budget at parameter c is the square of the objective bound.phi
    minimises, so without c it is phi(n, g, M)^2: the infimum over the
    admissible interval, including the c -> 0 boundary limit when g has a
    finite slope at zero.
    """
    from . import bound as _bound

    if not (M > 0 and n >= 1):
        raise ValueError("need M > 0 and n >= 1")
    if c is None:
        return _bound.phi(n, g, M) ** 2
    c_max = budget_interval(n)
    if not (0.0 < c < c_max):
        raise ValueError(f"c={c} outside (0, {c_max})")
    return _bound._phi_objective(n, g, M, c) ** 2
