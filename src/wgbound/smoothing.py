"""Smoothing-kernel machinery behind the main Wasserstein bound.

Radial bump profiles on the Cartan algebra, their Fourier transforms with
certified power-law tail majorants, Weyl density coefficients, the
coefficients a_pi of the degree-limited smoothing polynomial, a
per-function pairing bound, and the Fourier decay budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from ._util import SolverError, golden_min, pairwise_sum
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


@lru_cache(maxsize=64)
def _gl_panels(n_panels: int, order: int):
    """Gauss-Legendre nodes/weights on [0,1] split into equal panels."""
    x, w = leggauss(order)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 / n_panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * x[None, :]).ravel()
    weights = np.tile(half * w, n_panels)
    return nodes, weights


def _radial_integral(profile: BumpProfile, r: int, x: np.ndarray,
                     order: int = 12) -> np.ndarray:
    """F(x) for radial eta of rank r, by panelled Gauss-Legendre quadrature.

    The panel count grows with the largest argument, so mixed-magnitude
    batches are split into dyadic bins and integrated bin by bin.
    """
    x = np.asarray(x, dtype=float)
    flat = np.abs(x.ravel())
    out = np.empty_like(flat)
    lo = 0.0
    for edge in (16.0, 32.0, 64.0, 128.0, math.inf):
        sel = (flat >= lo) & (flat < edge)
        if np.any(sel):
            out[sel] = _radial_integral_bin(profile, r, flat[sel], order)
        lo = edge
    return out.reshape(x.shape)


def _radial_integral_bin(profile: BumpProfile, r: int, flat: np.ndarray,
                         order: int) -> np.ndarray:
    # kernels oscillate with period 1/x in y; 1.25 panels per period at
    # order >= 12 leaves the quadrature error at rounding level
    xmax = float(flat.max()) if flat.size else 0.0
    n_panels = max(24, int(1.25 * xmax) + 10)
    y, w = _gl_panels(n_panels, order)
    sv = profile.radial(y)
    if r == 1:
        base = w * sv
        out = np.empty_like(flat)
        for lo in range(0, flat.size, 2048):
            blk = flat[lo:lo + 2048]
            out[lo:lo + 2048] = 2.0 * (np.cos(2.0 * np.pi * np.outer(blk, y)) @ base)
    elif r == 2:
        base = w * sv * y
        out = np.empty_like(flat)
        for lo in range(0, flat.size, 2048):
            blk = flat[lo:lo + 2048]
            out[lo:lo + 2048] = 2.0 * np.pi * (j0(2.0 * np.pi * np.outer(blk, y)) @ base)
    elif r == 3:
        base = w * sv * y * y
        out = np.empty_like(flat)
        for lo in range(0, flat.size, 2048):
            blk = flat[lo:lo + 2048]
            out[lo:lo + 2048] = 4.0 * np.pi * (np.sinc(2.0 * np.outer(blk, y)) @ base)
    else:
        raise ValueError(f"rank must be 1, 2 or 3, got {r}")
    return out


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
    """Radial Fourier transform of a bump profile in rank r."""

    profile: BumpProfile
    r: int
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    majorants: Dict[int, float]
    f0: float

    def evaluate(self, x) -> np.ndarray:
        return _radial_integral(self.profile, self.r, np.asarray(x, dtype=float))

    def tail_bound(self, x: float) -> float:
        """Certified bound on |F| at radius x > 0 from the power-law majorants."""
        if x <= 0:
            raise ValueError("tail bound needs x > 0")
        return min(self.majorants[k] / x ** k for k in _TAIL_ORDERS)


@lru_cache(maxsize=16)
def _bump_transform_cached(profile_id: str, r: int) -> BumpTransform:
    profile = bump_profile(profile_id)
    grid = np.linspace(0.0, 50.0, 2001)
    values = _radial_integral(profile, r, grid, order=12)
    check = _radial_integral(profile, r, grid, order=20)
    err = float(np.max(np.abs(values - check)))
    if err > 1e-10:
        raise SolverError(
            f"bump transform quadrature did not converge (disagreement {err:.2e})")
    return BumpTransform(profile=profile, r=r, grid=grid, values=values,
                         majorants=_tail_majorants(profile, r),
                         f0=float(values[0]))


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
# per-function pairing bound and decay budget


def per_function_bound(G: GroupDescriptor, f_hat: Dict[Irrep, np.ndarray],
                       g, M: float, nu1, nu2, profile="paper_bump") -> float:
    """Upper bound on |integral of f d(nu1 - nu2)| for f with modulus g.

    Requires the Fourier blocks of f on every irrep below the cutoff; any
    spectral mass of f at or above M is the caller's responsibility.
    """
    from . import bound as _bound
    from . import fourier as _fourier

    irreps = enumerate_irreps(G, M)
    missing = [p for p in irreps if p not in f_hat]
    if missing:
        raise ValueError(f"f_hat missing blocks below M={M}: {missing[:4]}"
                         + ("..." if len(missing) > 4 else ""))
    psi_val = _bound.psi(G, g, M, profile)
    if not irreps:
        return psi_val
    hs_sq = _fourier.hs_profile(G, nu1, nu2, irreps)
    terms = [
        p.dim * float(np.linalg.norm(np.atleast_2d(f_hat[p]), "fro"))
        * math.sqrt(max(hs_sq[i], 0.0))
        for i, p in enumerate(irreps)
    ]
    return psi_val + float(pairwise_sum(terms))


def budget_interval(n: int) -> float:
    """Right endpoint of the admissible interval for the budget parameter c."""
    return 2.0 * (math.sqrt(n * n + n) - n)


_C_EPS = 1e-6


def fourier_decay_budget(n: int, g, M: float, c: Optional[float] = None) -> float:
    """Budget bounding sum of d_pi kappa_pi |f_hat(pi)|_HS^2 over |weight| <= M.

    Valid for any f whose L2 translation modulus is bounded by g.  With c
    given, evaluates the budget at that parameter; otherwise returns the
    infimum over the admissible interval, including the c -> 0 boundary
    limit when g has a finite slope at zero.
    """
    if not (M > 0 and n >= 1):
        raise ValueError("need M > 0 and n >= 1")
    c_max = budget_interval(n)

    def value(cv: float) -> float:
        u = cv / (n * M)
        gu = float(np.asarray(g(u), dtype=float))
        return n / (1.0 - cv - cv * cv / (4.0 * n)) * (gu / u) ** 2

    if c is not None:
        if not (0.0 < c < c_max):
            raise ValueError(f"c={c} outside (0, {c_max})")
        return value(c)
    _, best = golden_min(value, _C_EPS, c_max - _C_EPS)
    slope = getattr(g, "initial_slope", None)
    if callable(slope):
        s0 = slope()
        if s0 is not None and math.isfinite(s0):
            best = min(best, n * s0 * s0)
    return best
