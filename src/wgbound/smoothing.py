"""Smoothing-kernel machinery behind the main Wasserstein bound.

Radial bump profiles on the Cartan algebra, their Fourier transforms
(evaluated within a stated error bound) with power-law tail majorants
proven from the derivatives of the bump's projection, Weyl density
coefficients, the coefficients a_pi of the degree-limited smoothing
polynomial, and the budget interval of bound.fourier_decay_budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._util import SolverError, U, cosine_sum, cosine_tables, pairwise_sum
from .groups import GroupDescriptor, doubled_spins, spectral_data

PROFILE_IDS = ("paper_bump", "plateau")

_TAIL_ORDERS = (2, 4, 6)
# degree of the Taylor polynomial of P^(k) on each cell of _tail_majorants
_CELL_DEGREE = 4


# ---------------------------------------------------------------------------
# truncated Taylor jets: arrays whose row k is the k-th Taylor coefficient
# (Griewank & Walther, Evaluating Derivatives, ch. 13)

_JET_ORDER = max(_TAIL_ORDERS) + _CELL_DEGREE


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[j] * y[j] over the leading axis."""
    return np.einsum("j...,j...->...", x, y)


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = a[0] / b[0]
    for k in range(1, len(a)):
        out[k] = (a[k] - _dot(out[:k], b[k:0:-1])) / b[0]
    return out


def _jet_exp(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    ja = np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1)) * a
    for k in range(1, len(a)):
        out[k] = _dot(ja[1:k + 1], out[k - 1::-1]) / k
    return out


def _jet_sqrt(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = np.sqrt(a[0])
    for k in range(1, len(a)):
        out[k] = (a[k] - _dot(out[1:k], out[k - 1:0:-1])) / (2.0 * out[0])
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
        k! * row k.  Outside the unit ball the jet is 0, and on the
        plateau's flat disc r <= 0.5, where its formula does not hold, it
        is the jet of the constant 1.
        """
        q = np.zeros((_JET_ORDER + 1,) + t.shape)
        q[0], q[1], q[2] = t * t + c * c, 2.0 * t, 1.0
        one = np.zeros_like(q)
        one[0] = 1.0
        # the formulas run over every point; the masks below replace them
        # where they do not hold
        with np.errstate(all="ignore"):
            if self.is_plateau:
                tau = 2.0 * (one - _jet_sqrt(q))
                z = _jet_div(one, tau) - _jet_div(one, one - tau)
                # 1/(1 + e^z) as e^-z/(1 + e^-z) where z > 0: no exp overflows
                up = z[0] > 0.0
                e = _jet_exp(np.where(up, -z, z))
                jet = _jet_div(np.where(up, e, one), one + e)
            else:
                jet = _jet_exp(-_jet_div(q, one - q))
        flat = (q[0] <= 0.25) if self.is_plateau else np.zeros(t.shape, dtype=bool)
        jet[:, flat | (q[0] >= 1.0)] = 0.0
        jet[0, flat] = 1.0
        return jet


def bump_profile(profile) -> BumpProfile:
    """The profile given as a BumpProfile or as its id string, checked."""
    profile_id = profile.profile_id if isinstance(profile, BumpProfile) else str(profile)
    if profile_id not in PROFILE_IDS:
        raise ValueError(f"unknown profile {profile_id!r}; expected one of {PROFILE_IDS}")
    return BumpProfile(profile_id=profile_id, is_plateau=profile_id == "plateau")


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
# two, so that t_k and the phase reduction of _util.phases are exact, and
# far enough beyond _X_MAX, the largest |X| evaluated (80 pi on the tori),
# that the aliases F(X + m _T_NODES) stay below the rounding.
# _util.cosine_sum splits every cosine by angle addition.
_T_NODES = 2048
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


# _tail_majorants: cells per unit of t in each rank (rank 2 pays a
# u-quadrature per cell, ranks 1 and 3 one jet), the panels of that
# quadrature in x, and the rounding allowance
_CELLS = {1: 2048, 2: 512, 3: 2048}
_U_PANELS = 4
_JET_ROUNDING = 2.0 ** -20


def _projection_jets(profile: BumpProfile, r: int, m: np.ndarray):
    """Taylor coefficients of P_r at the points m, rows 0.._JET_ORDER, and
    bounds on their quadrature errors (0 where there is no quadrature).

    P_1 = eta.  P_3(t) = pi int_{t^2}^1 eta(sqrt s) ds, so P_3' = -2 pi t
    eta(t) and coefficient j of P_3 is -2 pi (t eta)_{j-1} / j.  P_2(t) =
    2 int_0^L eta(sqrt(t^2 + u^2)) du, L = sqrt(1 - t^2), and since eta is
    flat at radius 1 every t-derivative passes under the integral.  The
    u-integral runs in x over q = t^2 + u^2 = q0 + (1 - q0) sin^2(pi x / 2),
    q0 = t^2, or 1/4 on the plateau below its flat disc, whose jet has no
    rows past 0 there; so the nodes crowd toward both ends in q, where the
    profile joins its flat parts.  It takes _U_PANELS Gauss-Legendre panels
    at both orders of _P_ORDERS; the higher is the value and the difference
    bounds its error, as the P check does for _projection.
    """
    jet = profile._t_jet(m, np.zeros_like(m))
    if r == 1:
        return jet, np.zeros_like(jet)
    if r == 3:
        t_eta = m * jet
        t_eta[1:] += jet[:-1]
        p = np.zeros_like(jet)
        p[1:] = -2.0 * np.pi * t_eta[:-1] / np.arange(1.0, _JET_ORDER + 1)[:, None]
        return p, np.zeros_like(jet)
    q0 = np.maximum(m * m, 0.25) if profile.is_plateau else m * m
    edges = np.linspace(0.0, 1.0, _U_PANELS + 1)
    both = []
    for order in _P_ORDERS:
        x, w = _gauss_nodes(edges[:-1], edges[1:], order)
        sin, cos = np.sin(0.5 * np.pi * x), np.cos(0.5 * np.pi * x)
        p = np.empty_like(jet)
        for lo in range(0, m.size, _ROWS):
            blk = slice(lo, lo + _ROWS)
            span = (1.0 - q0[blk])[:, None]
            u = np.sqrt((q0 - m * m)[blk, None] + span * sin * sin)
            # P_2^(j) = int g_j dq / u, and dq = pi (1 - q0) sin cos dx
            du = np.pi * span * (w * sin * cos) / u
            g = profile._t_jet(np.broadcast_to(m[blk, None], u.shape), u)
            p[:, blk] = np.einsum("jcn,cn->jc", g, du)
        both.append(p)
    return both[1], np.abs(both[1] - both[0])


def _log_circle_max(profile: BumpProfile, qc: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Log of a bound on |E| or |E - 1| over the disc |w - qc| <= delta.

    E(w) = radial(sqrt w) continued off the real axis; E and E - 1 have the
    same derivatives.  Entries where the disc reaches a singularity of E
    read inf.
    - Paper bump: E(w) = exp(1 - 1/(1 - w)), and on the disc Re 1/(1 - w)
      >= 1/(1 - qc + delta) when delta < 1 - qc.
    - Plateau: E = 1/(1 + e^z), z = 1/tau - 1/sigma, tau = 2 - 2 sqrt w,
      sigma = 1 - tau.  sqrt w lies within delta / (sqrt qc + sqrt(qc -
      delta)) of sqrt qc, so tau and sigma lie within dt, twice that, of
      tau0 and sigma0; 1/tau then lies in the disc whose real parts span
      [1/(tau0 + dt), 1/(tau0 - dt)] and whose radius is dt / (tau0^2 -
      dt^2), and likewise 1/sigma.  So x_lo <= Re z <= x_hi and |Im z| <= y,
      and |E| <= 1/(e^x_lo - 1) if x_lo > 0, |E - 1| = 1/|1 + e^-z| <=
      1/(e^-x_hi - 1) if x_hi < 0, and, for y < pi/2, where Re e^z > 0,
      |E| <= 1/(1 + e^x_lo cos y) and |E - 1| <= 1/(1 + e^-x_hi cos y).
    """
    with np.errstate(all="ignore"):
        if not profile.is_plateau:
            return np.where(delta < 1.0 - qc, 1.0 - 1.0 / (1.0 - qc + delta), np.inf)
        root = np.sqrt(qc)
        dt = 2.0 * delta / (root + np.sqrt(np.maximum(qc - delta, 0.0)))
        tau, sigma = 2.0 - 2.0 * root, 2.0 * root - 1.0
        x_lo = 1.0 / (tau + dt) - 1.0 / (sigma - dt)
        x_hi = 1.0 / (tau - dt) - 1.0 / (sigma + dt)
        y = dt / (tau * tau - dt * dt) + dt / (sigma * sigma - dt * dt)
        far = np.where(x_lo > 0.0, -x_lo - np.log1p(-np.exp(-x_lo)),
                       np.where(x_hi < 0.0, x_hi - np.log1p(-np.exp(x_hi)), np.inf))
        near = np.where(y < 0.5 * np.pi, -np.log1p(np.maximum(np.exp(x_lo), np.exp(-x_hi))
                                                   * np.cos(np.minimum(y, 0.5 * np.pi))),
                        np.inf)
        valid = (delta < qc) & (dt < tau) & (dt < sigma)
        return np.where(valid, np.minimum(far, near), np.inf)


def _q_cells(profile: BumpProfile) -> np.ndarray:
    """Edges of the cells in q = r^2 over the profile's shell.

    Uniform in q, and near a singular end uniform in y = 1/d over y in [8,
    256], d = 1 - q for the paper bump and d = 2 - 2 sqrt q, 2 sqrt q - 1
    at the plateau's outer and inner ends: there each cell is under 1/16 y
    of its distance d.
    """
    y = np.arange(8.0, 256.0 + 1.0 / 16.0, 1.0 / 8.0)
    if profile.is_plateau:
        inner, outer = (0.5 + 0.5 / y) ** 2, (1.0 - 0.5 / y) ** 2
        middle = np.linspace(inner[0], outer[0], 1025)[1:-1]
        return np.concatenate((inner[::-1], middle, outer))
    return np.concatenate((np.linspace(0.0, 1.0 - 1.0 / y[0], 1025)[:-1], 1.0 - 1.0 / y))


def _shell_bounds(profile: BumpProfile, r: int, orders) -> Dict[int, float]:
    """Upper bounds on the integral of |d_t^n eta| over the unit ball of R^r.

    On a cell qa <= q <= qb of _q_cells, at every point (t, c) with t^2 +
    c^2 = q, eta(sqrt(z^2 + c^2)) is analytic in z for |z - t| <= rho as
    long as w = z^2 + c^2 stays in the disc of _log_circle_max around the
    cell's centre qc: |w - qc| <= (qb - qa)/2 + 2 sqrt(qb) rho + rho^2.
    Cauchy's estimate then bounds |d_t^n eta| <= n! B / rho^n there, B that
    disc's bound; each cell takes the best of 16 radii rho.  The sum runs
    over the cells times their volumes in the ball.  Toward a singular end
    the cell bounds fall, as exp(-c y) outweighs every power of y, to under
    e^-140 at y = 256; so beyond the last cell the last cell's bound times
    the remaining volume covers the rest.
    """
    edges = _q_cells(profile)
    qa, qb = edges[:-1], edges[1:]
    dist = np.minimum(1.0 - qb, qa - 0.25) if profile.is_plateau else 1.0 - qb
    rho = dist * 2.0 ** (-0.5 * np.arange(1, 17))[:, None]
    log_b = _log_circle_max(profile, 0.5 * (qa + qb),
                            0.5 * (qb - qa) + 2.0 * np.sqrt(qb) * rho + rho * rho)
    ball = math.pi ** (0.5 * r) / math.gamma(0.5 * r + 1.0)
    vol = ball * (qb ** (0.5 * r) - qa ** (0.5 * r))
    rest_in = ball * (qa[0] ** (0.5 * r) - (0.25 if profile.is_plateau else 0.0) ** (0.5 * r))
    rest_out = ball * (1.0 - qb[-1] ** (0.5 * r))
    out = {}
    for n in orders:
        b = math.factorial(n) * np.exp(np.min(log_b - n * np.log(rho), axis=0))
        out[n] = float(b @ vol + b[0] * rest_in + b[-1] * rest_out)
    return out


def _tail_majorants(profile: BumpProfile, r: int) -> Dict[int, float]:
    """Constants C_k with |F(X)| <= C_k / |X|^k, as ||P^(k)||_1 / (2 pi)^k.

    F(X) = int P(t) cos(2 pi X t) dt with P smooth and flat at +-1, so k
    partial integrations give |F(X)| <= ||P^(k)||_1 / (2 pi |X|)^k.  P^(k)
    is even or odd, so ||P^(k)||_1 is twice the integral over [0, 1], which
    is split into cells of width h = 1/_CELLS[r], midpoints m, a = h/2.
    On each cell P^(k)(m + s) is its Taylor polynomial sum_i c_i s^i of
    degree d = _CELL_DEGREE, c_i = P^(k+i)(m)/i! from _projection_jets,
    plus the remainder int_0^s P^(k+d+1)(m + v) (s - v)^d/d! dv, whose
    integral over the cell is at most a^{d+1}/(d+1)! times that of
    |P^(k+d+1)|.  So ||P^(k)||_1 is at most 2 times the sum over cells of
    int_{-a}^{a} |T(s)| ds, plus the next three terms.  With w_i =
    2a^{i+1}/(i+1), the integral of |s|^i over the cell, that integral is
    - |sum_{i even} w_i c_i| exactly where sum_{i>=1} a^i |c_i| <= |c_0|,
      as T then keeps one sign on the cell;
    - elsewhere at most int |c_0 + c_1 s| ds (2a|c_0| when a|c_1| <= |c_0|,
      else (c_0^2 + a^2 c_1^2)/|c_1|) plus sum_{i>=2} w_i |c_i|.
    The other terms are
    - sum_i w_i times the quadrature error bounds of the c_i (rank 2 only);
    - a^{d+1}/(d+1)! ||P^(k+d+1)||_1, where ||P^(n)||_1 <= int_{B^r} |d_t^n
      eta| by the triangle inequality under P^(n)(t) = int d_t^n eta dv,
      and _shell_bounds bounds that integral;
    - rounding, _JET_ROUNDING times the first two: the running error of
      the jets and sums is within J^2 u, J = _JET_ORDER, of the same
      recurrences run on absolute values, and on these cells those exceed
      the values by a factor under 2e5 (measured for every rank, profile
      and row), so the error is below 3e-9 of the sum; the remainder
      term's own rounding is far smaller.
    The plateau's jet is exactly that of a constant on its flat disc, so
    there its derivatives are 0.
    """
    h = 1.0 / _CELLS[r]
    a = 0.5 * h
    m = (np.arange(_CELLS[r]) + 0.5) * h
    p, err = _projection_jets(profile, r, m)
    d = _CELL_DEGREE
    weights = [2.0 * a ** (i + 1) / (i + 1) for i in range(d + 1)]
    shell = _shell_bounds(profile, r, [k + d + 1 for k in _TAIL_ORDERS])
    out = {}
    for k in _TAIL_ORDERS:
        scale = [math.factorial(k + i) / math.factorial(i) for i in range(d + 1)]
        c = [f * p[k + i] for i, f in enumerate(scale)]
        size = [np.abs(ci) for ci in c]
        # no sign change on the cell: the integral of |T| is |int T|
        steady = sum(a ** i * size[i] for i in range(1, d + 1)) <= size[0]
        exact = np.abs(sum(weights[i] * c[i] for i in range(0, d + 1, 2)))
        lin = 2.0 * a * size[0]
        steep = a * size[1] > size[0]
        lin[steep] = (size[0][steep] ** 2 + (a * size[1][steep]) ** 2) / size[1][steep]
        loose = lin + sum(w * si for w, si in zip(weights[2:], size[2:]))
        cells = float(np.where(steady, exact, loose).sum())
        quad = sum(w * f * float(err[k + i].sum())
                   for i, (w, f) in enumerate(zip(weights, scale)))
        norm = ((1.0 + _JET_ROUNDING) * 2.0 * (cells + quad)
                + a ** (d + 1) / math.factorial(d + 1) * shell[k + d + 1])
        out[k] = norm / (2.0 * np.pi) ** k
    return out


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
            tables = cosine_tables(padded[lo:lo + _ROWS] / _T_NODES, _T_NODES)
            out[lo:lo + _ROWS] = cosine_sum(self.weights, tables)
        return out[:flat.size].reshape(x.shape)

    def tail_bound(self, x: float) -> float:
        """Proven bound on |F| at radius x > 0: the least C_k / x^k (_tail_majorants)."""
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
    rounding = _ROUNDING_UNITS * U * float(scale @ np.abs(p[:-1]))
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
    return _bump_transform_cached(bump_profile(profile).profile_id, r)


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
    """Coefficients a_pi at degree cutoff M on the rows of kernel_coefficients."""

    group_id: str
    profile_id: str
    M: float
    m0: int
    labels: np.ndarray
    dims: np.ndarray
    a: np.ndarray

    def as_json_dict(self) -> dict:
        entries = [{"label": label, "a": a, "dim": dim} for label, a, dim
                   in zip(self.labels.tolist(), self.a.tolist(), self.dims.tolist())]
        return {"group": self.group_id, "profile": self.profile_id,
                "M": self.M, "M0": self.m0, "entries": entries}


def kernel_degree(G: GroupDescriptor, M: float) -> int:
    """The scaling integer M0 = floor(M / (|2 rho+| + a))."""
    return int(math.floor(M / G.admissibility_threshold))


def kernel_coefficients(G: GroupDescriptor, M: float,
                        profile="paper_bump") -> KernelCoefficients:
    """Coefficients a_pi of the central smoothing polynomial of degree < M.

    a_pi = sum_mu sum_lam c_lam eta(|mu / (a m0) - lam / a|) / |W|, over
    the weights mu of pi with multiplicity and the Weyl density's
    coefficients c_lam (weyl_density_coeffs), on the trivial row and then
    the rows of groups.spectral_data(G, M).  On a torus the density is 1
    and pi has the one weight 2 pi m: a_pi = eta(|2 pi m / (a m0)|).  On
    su2/so3 spin j has the weights n/2, n = -2j, -2j + 2, .., 2j, and a
    sample depends on its weight alone, so g(n) = sum_lam c_lam eta(|(n/2)
    / (a m0) - lam / a|) is tabulated once over the doubled weights n =
    -top..top, top the largest 2j, and a_pi = g[top - 2j : top + 2j + 1 :
    2].sum() / |W|.  Each g(n) is the dot product of the same samples, and
    each window sums them in the ascending order of pi's weight list, so
    a_pi carries the bits of the same sum formed irrep by irrep.
    """
    if M < G.admissibility_threshold:
        raise ValueError(
            f"M={M} below admissibility threshold {G.admissibility_threshold} "
            f"for {G.group_id}")
    prof = bump_profile(profile)
    m0 = kernel_degree(G, M)
    sd = spectral_data(G, M)
    labels = np.concatenate((np.zeros((1, G.r), dtype=int), sd["label"]))
    dims = np.concatenate(([1], sd["dim"]))
    if not G.positive_roots:
        a = prof.radial(np.linalg.norm(2.0 * math.pi * labels / (G.a * m0), axis=-1))
    else:
        dens = weyl_density_coeffs(G)
        two_j = doubled_spins(G, labels)
        top = int(two_j[-1])
        args = (np.arange(-top, top + 1)[:, None, None] / 2.0 / (G.a * m0)
                - np.asarray(list(dens), dtype=float) / G.a)
        g = np.dot(prof.radial(np.linalg.norm(args, axis=-1)),
                   np.asarray(list(dens.values()), dtype=float))
        a = np.asarray([g[top - t:top + t + 1:2].sum() for t in two_j.tolist()]) / G.weyl_order
    return KernelCoefficients(group_id=G.group_id, profile_id=prof.profile_id,
                              M=float(M), m0=m0, labels=labels, dims=dims, a=a)


# ---------------------------------------------------------------------------
# decay budget


def budget_interval(n: int) -> float:
    """Right endpoint of the admissible interval for the budget parameter c."""
    return 2.0 * (math.sqrt(n * n + n) - n)
