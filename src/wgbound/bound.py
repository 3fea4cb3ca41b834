"""Explicit Wasserstein upper bounds from Fourier data.

Assembles the certified inequality

    W_g(nu1, nu2) <= psi(M) + phi(M) * sqrt(sum d/kappa * |block diff|_HS^2)

together with moduli of continuity, M-grid optimization and spectral-gap
corollaries against Haar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ._util import (DominanceError, SolverError, config_hash, golden_min,
                    pairwise_sum)
from . import fourier, groups, smoothing
from .groups import GroupDescriptor
from .smoothing import budget_interval, bump_profile, bump_transform, kernel_degree

CSV_HEADER = ("group", "g", "M", "psi", "phi", "fourier_sum", "total",
              "tolerance", "seed")

_SUBADD_TOL = 1e-12


# ---------------------------------------------------------------------------
# moduli of continuity


class ModulusOfContinuity:
    """Nondecreasing subadditive cost profile g with g(0+) = 0.

    Two kinds: exact powers t^p with 0 < p <= 1, and piecewise-linear
    tables through the origin, constant beyond the last knot.
    """

    def __init__(self, kind: str, p: Optional[float] = None,
                 knots=None, values=None):
        self.kind = kind
        if kind == "power":
            if p is None or not (0.0 < p <= 1.0):
                raise ValueError(f"power modulus needs p in (0, 1], got {p}")
            self.p = float(p)
            self.knots = self.values = None
        elif kind == "table":
            knots = np.asarray(knots, dtype=float)
            values = np.asarray(values, dtype=float)
            if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
                raise ValueError("table modulus needs matching 1-d knots/values")
            if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
                raise ValueError("table modulus needs finite knots and values")
            if knots[0] <= 0 or np.any(np.diff(knots) <= 0):
                raise ValueError("knots must be strictly increasing and positive")
            if np.any(values < 0) or np.any(np.diff(values) < 0):
                raise ValueError("values must be nonnegative and nondecreasing")
            self.p = None
            self.knots = knots
            self.values = values
            self._validate_subadditive()
        else:
            raise ValueError(f"unknown modulus kind {kind!r}")

    @classmethod
    def power(cls, p: float) -> "ModulusOfContinuity":
        return cls("power", p=p)

    @classmethod
    def table(cls, knots, values) -> "ModulusOfContinuity":
        return cls("table", knots=knots, values=values)

    def _validate_subadditive(self):
        """Raise unless g(s + t) <= g(s) + g(t) + _SUBADD_TOL for all s, t >= 0.

        g(s) + g(t) - g(s + t) is linear on each cell that the lines s = k,
        t = k and s + t = k over the knots k (and 0) cut out of [0, K]^2,
        K the last knot, and g is constant beyond K, where the excess is
        g(t) >= 0.  So its least value sits at a vertex: up to swapping s
        and t, s a knot and t a knot or k - s for a knot k > s.
        """
        k = self.knots
        for s in k:
            t = np.concatenate((k, np.maximum(k - s, 0.0)))
            excess = self(s + t) - self(s) - self(t)
            i = int(np.argmax(excess))
            if excess[i] > _SUBADD_TOL:
                raise ValueError(
                    f"table modulus is not subadditive: g({s + t[i]:.6g}) > "
                    f"g({s:.6g}) + g({t[i]:.6g}) by {excess[i]:.3g}")

    def __call__(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        if self.kind == "power":
            out = t ** self.p
        else:
            out = np.interp(t, np.concatenate(([0.0], self.knots)),
                            np.concatenate(([0.0], self.values)))
        return out if out.ndim else float(out)

    def initial_slope(self) -> Optional[float]:
        """Slope of g at 0+; None when infinite (power case with p < 1)."""
        if self.kind == "power":
            return 1.0 if self.p == 1.0 else None
        return float(self.values[0] / self.knots[0])

    def descriptor(self) -> str:
        if self.kind == "power":
            return f"power:{self.p:g}"
        digest = config_hash({"knots": self.knots.tolist(),
                              "values": self.values.tolist()})[:8]
        return f"table:{digest}"

    def __repr__(self):
        return f"ModulusOfContinuity({self.descriptor()})"


# ---------------------------------------------------------------------------
# psi: smoothing cost of the degree-M kernel

# radial quadrature layout per group: (rank, cutoff R, prefactor A,
# argument scale of F, algebraic extra factor power of x)
_PSI_LAYOUT = {
    "su2": (1, 100.0, 4.0, 0.5, 0),
    "so3": (1, 100.0, 4.0, 0.5, 0),
    "torus(1)": (1, 80.0, 4.0 * math.pi, math.pi, 0),
    "torus(2)": (2, 80.0, 4.0 * math.pi ** 3, math.pi, 1),
    "torus(3)": (3, 80.0, 8.0 * math.pi ** 4, math.pi, 2),
}


# the bracket width that 32 bisections of the torus scan step leave
_ZERO_WIDTH = 3.7e-12


def _f_sign_changes(tf, a_f: float, R: float) -> np.ndarray:
    """Determined zeros of x -> F(a_f x) on (0, R), by dense scan plus Illinois refinement.

    The |F| factor of the integrand has kinks exactly there, so quadrature
    panels must break at these points to converge.  Only scan points where
    |F| exceeds tf.error, F's own error bound, have a determined sign, and a
    zero counts only between two such points of opposite sign; the zeros of
    the rounding noise beyond are left out.  A bracket stops once it is
    _ZERO_WIDTH wide or |F| falls to tf.error.
    """
    # zero spacing is > 0.2/a_f in x; 1e-8 placement suffices because the
    # integrand vanishes at each kink (panel-edge error ~ |F'| delta^2)
    step = 0.05 / max(a_f, 1.0)
    xs = np.linspace(0.0, R, int(R / step) + 2)
    fv = tf.evaluate(a_f * xs)
    sure = np.abs(fv) > tf.error
    xs, fv = xs[sure], fv[sure]
    idx = np.nonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0)[0]
    lo, hi = xs[idx], xs[idx + 1]
    flo, fhi = fv[idx], fv[idx + 1]
    zeros = np.empty(idx.size)
    moved = np.zeros(idx.size)          # +1 / -1: end moved in the last round
    live = np.arange(idx.size)
    for _ in range(64):
        wide = hi[live] - lo[live] > _ZERO_WIDTH
        done = live[~wide]
        zeros[done] = 0.5 * (lo[done] + hi[done])
        live = live[wide]
        if live.size == 0:
            return zeros
        a, b, fa, fb = lo[live], hi[live], flo[live], fhi[live]
        x = (a * fb - b * fa) / (fb - fa)
        fx = tf.evaluate(a_f * x)
        left = np.sign(fx) == np.sign(fa)
        # Illinois: halve the kept end's value when the same end moves twice
        fhi[live] = np.where(left, np.where(moved[live] > 0, 0.5 * fb, fb), fx)
        flo[live] = np.where(left, fx, np.where(moved[live] < 0, 0.5 * fa, fa))
        lo[live] = np.where(left, x, a)
        hi[live] = np.where(left, b, x)
        moved[live] = np.where(left, 1.0, -1.0)
        hit = np.abs(fx) <= tf.error
        zeros[live[hit]] = x[hit]
        live = live[~hit]
    raise SolverError("zero refinement of the bump transform did not converge")


def _panels(breaks: np.ndarray, width: float):
    """Edges (lo, hi) of equal panels no wider than width on each segment of breaks."""
    los, his = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        e = np.linspace(a, b, max(1, int(math.ceil((b - a) / width))) + 1)
        los.append(e[:-1])
        his.append(e[1:])
    return np.concatenate(los), np.concatenate(his)


@lru_cache(maxsize=32)
def _psi_nodes(group_id: str, profile_id: str):
    """Cached radial nodes and g-independent weight vectors, coarse and fine.

    The integrand splits as g(2 pi x / M0) * base(x) with base >= 0 fixed
    per (group, profile); only the g factor changes across M, so psi
    evaluations reuse these tables.  Coarse panels are at most 0.5 wide and
    break at the determined zeros of F (_f_sign_changes), none beyond the
    last one; the fine table halves every coarse panel.  "charge" holds per
    coarse panel its right end and tf.error times the sum, over the panel's
    fine nodes, of the weight times base without its |F| factor; g is
    nondecreasing, so g at the right end times that bounds the panel's
    share of tf.error * sum w g base.
    """
    r, R, A, a_f, xpow = _PSI_LAYOUT[group_id]
    tf = bump_transform(profile_id, r)
    breaks = np.concatenate(([0.0], _f_sign_changes(tf, a_f, R), [R]))
    lo, hi = _panels(breaks, 0.5)
    mid = 0.5 * (lo + hi)
    xc, wc = smoothing._gauss_nodes(lo, hi, 10)
    xf, wf = smoothing._gauss_nodes(np.column_stack((lo, mid)).ravel(),
                                    np.column_stack((mid, hi)).ravel(), 10)
    x = np.concatenate((xc, xf))
    factor = A * x ** xpow
    if group_id in ("su2", "so3"):
        factor = factor * np.sin(np.pi * x) ** 2
    base = np.abs(tf.evaluate(a_f * x)) * factor
    charge = tf.error * pairwise_sum((wf * factor[xc.size:]).reshape(lo.size, -1).T)
    return {"coarse": (xc, wc * base[:xc.size]), "fine": (xf, wf * base[xc.size:]),
            "charge": (hi, charge), "meta": (r, R, A, a_f, tf)}


def psi_detailed(G: GroupDescriptor, g, t: float,
                 profile="paper_bump") -> dict:
    """psi(t) with its quadrature error estimate and tail accounting.

    main is the fine table's sum.  quad_error, a report's psi_quadrature, is
    |fine - coarse| plus the charge summed against g.  The fine table
    halves every panel, so the difference sees every one.  The charge
    bounds what F's error (aliases, P check and rounding; see
    smoothing.BumpTransform) does to main.  That includes the stretch beyond
    the last determined zero of F, where the sign of F, and with it the
    kinks of |F|, are not resolved.  The tail beyond R is added from
    certified majorants.
    """
    return _psi_details(G, g, [t], bump_profile(profile).profile_id)[0]


def _weighted_sums(x: np.ndarray, w: np.ndarray, g, m0s) -> list:
    """pairwise_sum(w * g(2 pi x / m0)) for every m0 in m0s.

    Eight m0 at a time: each row of the (nodes, 8) block is one 64-byte
    cache line, which keeps pairwise_sum's strided passes fast.
    """
    degrees = np.asarray(m0s, dtype=float)
    return [float(v) for lo in range(0, degrees.size, 8)
            for v in pairwise_sum(w[:, None] * g((2.0 * math.pi * x)[:, None]
                                                 / degrees[lo:lo + 8]))]


def _psi_details(G: GroupDescriptor, g, ts, profile_id: str) -> list:
    """psi_detailed at every cutoff in ts.

    Each table is summed once for all of them: pairwise_sum reduces every
    column on its own, so each entry equals a one-cutoff call bit for bit.
    """
    for t in ts:
        if t < G.admissibility_threshold:
            raise ValueError(
                f"t={t} below admissibility threshold {G.admissibility_threshold}")
    m0s = [kernel_degree(G, t) for t in ts]
    tables = _psi_nodes(G.group_id, profile_id)
    r, R, A, a_f, tf = tables["meta"]
    mains, coarse, charges = (_weighted_sums(*tables[tag], g, m0s)
                              for tag in ("fine", "coarse", "charge"))
    # tail beyond radius R: |F(a_f x)| <= C_k/(a_f x)^k and g(s) <= g(1)(s+1)
    g1 = float(np.asarray(g(1.0), dtype=float))
    out = []
    for m0, main, c, charge in zip(m0s, mains, coarse, charges):
        tail = math.inf
        for k in smoothing._TAIL_ORDERS:
            if k - r - 1 <= 0:
                continue
            ck = tf.majorants[k] / a_f ** k
            val = A * g1 * ck * ((2.0 * math.pi / m0) * R ** (r + 1 - k) / (k - r - 1)
                                 + R ** (r - k) / (k - r))
            tail = min(tail, val)
        if not math.isfinite(tail):
            raise RuntimeError("no valid tail majorant order")
        out.append({
            "value": main + tail,
            "main": main,
            "tail": tail,
            "quad_error": abs(main - c) + charge,
            "tail_warning": bool(main > 0 and tail > 0.1 * main),
            "m0": m0,
        })
    return out


def psi(G: GroupDescriptor, g, t: float, profile="paper_bump") -> float:
    """Smoothing cost of the degree-t kernel: the additive term of the bound.

    Over-estimates the underlying integral: the truncated radial tail is
    added back via certified majorants, never dropped.
    """
    return psi_detailed(G, g, t, profile)["value"]


# ---------------------------------------------------------------------------
# phi: Fourier-decay weight


# budget parameters c this close to either end of (0, budget_interval(n))
# are left out of the search; the c -> 0 end enters as a boundary limit
_C_EPS = 1e-6


@lru_cache(maxsize=128)
def _power_phi_const(n: int, p: float) -> float:
    """K(n, p) with phi(t) = K * (n t)^{1-p}; exact sqrt(n) at p = 1."""
    if p == 1.0:
        return math.sqrt(n)
    c_max = budget_interval(n)

    def val(c: float) -> float:
        return math.sqrt(n / (1.0 - c - c * c / (4.0 * n))) * c ** (p - 1.0)

    _, best = golden_min(val, _C_EPS, c_max - _C_EPS)
    return best


def _phi_objective(n: int, g, t: float, c: float) -> float:
    """sqrt(n/(1-c-c^2/4n)) * g(u)/u at u = c/(nt): what phi minimises over c."""
    u = c / (n * t)
    gu = float(np.asarray(g(u), dtype=float))
    return math.sqrt(n / (1.0 - c - c * c / (4.0 * n))) * gu / u


def phi(n: int, g, t: float) -> float:
    """Weight multiplying the Fourier sum in the main bound.

    Infimum over the budget parameter c of _phi_objective, including the
    c -> 0 boundary limit when g has finite slope at zero.  For power
    moduli the optimization is scale-invariant and reduces to a cached
    constant.  Its square is fourier_decay_budget.
    """
    if not t > 0:
        raise ValueError(f"need t > 0, got {t}")
    if isinstance(g, ModulusOfContinuity) and g.kind == "power":
        return _power_phi_const(n, g.p) * (n * t) ** (1.0 - g.p)
    _, best = golden_min(lambda c: _phi_objective(n, g, t, c), _C_EPS,
                         budget_interval(n) - _C_EPS)
    slope = getattr(g, "initial_slope", None)
    if callable(slope):
        s0 = slope()
        if s0 is not None and math.isfinite(s0):
            best = min(best, math.sqrt(n) * s0)
    return best


def fourier_decay_budget(n: int, g, M: float, c: Optional[float] = None) -> float:
    """Budget bounding sum of d_pi kappa_pi |f_hat(pi)|_HS^2 over |weight| <= M.

    Valid for any f whose L2 translation modulus is bounded by g.  The
    budget at parameter c is the square of the objective phi minimises, so
    without c it is phi(n, g, M)^2: the infimum over the admissible
    interval, including the c -> 0 boundary limit when g has a finite
    slope at zero.
    """
    if not (M > 0 and n >= 1):
        raise ValueError("need M > 0 and n >= 1")
    if c is None:
        return phi(n, g, M) ** 2
    c_max = budget_interval(n)
    if not (0.0 < c < c_max):
        raise ValueError(f"c={c} outside (0, {c_max})")
    return _phi_objective(n, g, M, c) ** 2


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class BoundReport:
    """One certified evaluation of the main inequality at a fixed cutoff."""

    group_id: str
    g_descriptor: str
    M: float
    m0: int
    psi: float
    phi: float
    fourier_sum: float
    total: float
    irreps_used: int
    profile_id: str
    tolerances: Dict[str, float]
    variant: str = "exact"
    tail_warning: bool = False

    @property
    def tolerance(self) -> float:
        return self.tolerances["total"]

    def as_json_dict(self) -> dict:
        return {
            "group": self.group_id, "g": self.g_descriptor, "M": self.M,
            "M0": self.m0, "psi": self.psi, "phi": self.phi,
            "fourier_sum": self.fourier_sum, "total": self.total,
            "irreps_used": self.irreps_used, "profile": self.profile_id,
            "tolerances": dict(self.tolerances), "variant": self.variant,
            "tail_warning": self.tail_warning,
        }

    def csv_row(self, seed=None) -> list:
        return [self.group_id, self.g_descriptor, self.M, self.psi, self.phi,
                self.fourier_sum, self.total, self.tolerance,
                "" if seed is None else seed]


# terms per block of CutoffSweep.prefix (see CutoffSweep.tolerances)
_PREFIX_BLOCK = 4096

_GRID_CAPS = {"torus(1)": 1e3, "torus(2)": 400.0, "torus(3)": 200.0,
              "su2": 400.0, "so3": 400.0}
_GAP_GRID_CAPS = {"torus(1)": 1e4, "torus(2)": 2e3, "torus(3)": 500.0,
                  "su2": 1e4, "so3": 1e4}


def default_m_grid(G: GroupDescriptor, cap: Optional[float] = None) -> np.ndarray:
    """Geometric cutoff grid, 16 points per decade, from admissibility up.

    The upper end is capped per group so exact Fourier enumeration stays
    tractable; pass ``cap`` to override.
    """
    lo = G.admissibility_threshold
    hi = float(cap) if cap is not None else _GRID_CAPS[G.group_id]
    if not lo <= hi < math.inf:
        raise ValueError(f"grid cap {hi} must be finite and at least the "
                         f"admissibility threshold {lo}")
    n_pts = max(2, int(math.ceil(16.0 * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, n_pts)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Prefix sums [0, t0, t0 + t1, ...] along the last axis of terms.

    A stack (..., n) of rows gives (..., n + 1), each row summed as alone:
    left to right within blocks of _PREFIX_BLOCK terms, each block then
    adding the running sum of the blocks before it.
    """
    *lead, n = terms.shape
    width = max(1, min(n, _PREFIX_BLOCK))
    blocks = np.zeros((*lead, -(-n // width), width))
    flat = blocks.reshape(*lead, -1)
    flat[..., :n] = terms
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(blocks[..., :-1, -1:], axis=-2)
    return np.concatenate((np.zeros((*lead, 1)), flat[..., :n]), axis=-1)


class CutoffSweep:
    """psi and phi on a sorted, admissible cutoff grid, evaluated once.

    The one place where bound totals are formed.  The total at grid[i] is
    psis[i] + phis[i] * sqrt(cum[cuts[i]]), where cum holds prefix sums of
    the Fourier sum over the spectrum below the top of the grid and cuts[i]
    counts that spectrum below grid[i].  An exact sweep holds labels, the
    label rows of groups.spectral_data, and ratios, d/kappa per row, which
    weight squared HS distances, and roundoff, the prefix sums of d/kappa
    times fourier.hs_roundoff at the cuts, which bound the rounding of each
    cut's Fourier sum.  A relaxed sweep (the gap corollary) uses d^2/kappa
    scaled by q^2, on a longer grid; it keeps only its d^2/kappa prefix sums
    at the cuts, gap_prefix, built once here and scaled by q^2 in gap_totals
    and report, and its labels, ratios and roundoff are None.  No prefix
    over the whole spectrum is kept.  At one fixed cutoff M it is
    CutoffSweep(G, g, profile, [M], relaxed=True).report(0, q=q).
    """

    def __init__(self, G: GroupDescriptor, g, profile="paper_bump",
                 grid=None, relaxed: bool = False):
        if grid is None:
            grid = default_m_grid(
                G, cap=_GAP_GRID_CAPS[G.group_id] if relaxed else None)
        grid = np.sort(np.asarray(grid, dtype=float))
        grid = grid[grid >= G.admissibility_threshold]
        if grid.size == 0:
            raise ValueError("no admissible M in grid")
        self.G, self.g, self.grid, self.relaxed = G, g, grid, relaxed
        self.profile_id = bump_profile(profile).profile_id
        top = float(grid[-1])
        sd = groups.spectral_data(G, top)
        self.cuts = np.searchsorted(sd["weight_norm"], grid, "left")
        ratios = sd["dim"] ** (2 if relaxed else 1) / sd["casimir"]
        self.labels, self.ratios = (None, None) if relaxed else (sd["label"], ratios)
        self.roundoff = None if relaxed else self.prefix(
            fourier.hs_roundoff(G, self.labels))[self.cuts]
        self.gap_prefix = _prefix_sums(ratios)[self.cuts] if relaxed else None
        self._psi = _psi_details(G, g, grid.tolist(), self.profile_id)
        self.psis = np.asarray([pd["value"] for pd in self._psi])
        self.phis = np.asarray([phi(G.n, g, float(M)) for M in grid])

    def hs_profile(self, nu1, nu2) -> Optional[np.ndarray]:
        """Squared HS distances over the labels; None for identical measures."""
        if nu2 is not None and nu1.identical_to(nu2):
            return None
        return fourier.hs_profile_rows(self.G, *fourier.merged_atoms(nu1, nu2),
                                       self.labels)[0]

    def prefix(self, values) -> np.ndarray:
        """_prefix_sums of an exact sweep's ratios times values."""
        return _prefix_sums(self.ratios * values)

    def totals(self, cum: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Totals at every grid point from prefix sums cum (..., n + 1), and
        the first index of the least along the last axis."""
        return self._totals_at(cum[..., self.cuts])

    def gap_totals(self, q) -> Tuple[np.ndarray, np.ndarray]:
        """totals of a relaxed sweep under the gap q, or a stack of gaps."""
        q = np.asarray(q, dtype=float)[..., None]
        return self._totals_at(q * q * self.gap_prefix)

    def _totals_at(self, fs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        totals = self.psis + self.phis * np.sqrt(np.maximum(fs, 0.0))
        return totals, np.argmin(totals, axis=-1)

    def tolerances(self, i: int, total: float,
                   fourier_roundoff: Optional[float] = None) -> Dict[str, float]:
        """Tolerance entries of a total psi + phi * sqrt(sum) at grid[i].

        psi_quadrature is psi_detailed's quadrature error estimate at the
        cutoff.  fourier_roundoff, phi * sqrt(delta) for a Fourier sum read
        from fourier.hs_profile, covers that sum's rounding: it errs by at
        most delta, and sqrt(a + delta) <= sqrt(a) + sqrt(delta).

        float_slack, 1e-11 * max(1, total), covers the rounding of the rest
        of the assembly, all of it on nonnegative terms.  psi's main part is
        a pairwise sum of fewer than 2^14 node terms w * g, each within 4u,
        so it errs by under 18u relative; the tail and main + tail add 4u.
        phi is about ten operations, 10u.  sqrt, product and sum add 3u.

        A relaxed Fourier sum is q^2 times a prefix of n terms d^2/kappa,
        each within u.  _prefix_sums sums within blocks of B = _PREFIX_BLOCK and
        adds the running sum of the earlier block totals, so a term passes
        through at most B - 1 additions in its block, ceil(n/B) - 1 in the
        running sum and one where the two meet.  A sum of nonnegative terms
        in which each takes part in at most m additions errs by at most
        gamma_m relative (Higham 2002, ch. 4), so the prefix errs by at most
        gamma_(B - 1 + ceil(n/B)), and q^2 adds 2u.  The largest sweep,
        torus(3)'s gap grid, has n = 2,110,866 rows in 516 blocks: gamma_4611
        < 5.2e-13, where a plain cumulative sum would allow gamma_(n - 1) =
        2.3e-10.  The square root halves that, and phi * sqrt(fs) <= total,
        so all of the assembly errs by under 3e-13 * max(1, total), a
        thirtieth of float_slack; its floor 1e-11 keeps an absolute
        allowance for totals below 1.
        """
        tol = {"psi_quadrature": self._psi[i]["quad_error"],
               "float_slack": 1e-11 * max(1.0, total)}
        if fourier_roundoff is not None:
            tol["fourier_roundoff"] = fourier_roundoff
        tol["total"] = sum(tol.values())
        return tol

    def report(self, i: int, hs_sq=None, q: Optional[float] = None) -> BoundReport:
        """The certified report at grid[i].

        Exact: d/kappa * hs_sq summed pairwise over the irreps below
        grid[i], with the fourier_roundoff entry from roundoff, or 0 when
        hs_sq is None (identical measures).  Relaxed: q^2 times the
        d^2/kappa prefix sum.
        """
        k = int(self.cuts[i])
        roundoff = None
        if self.relaxed:
            fs = q * q * float(self.gap_prefix[i])
        elif hs_sq is None:
            fs = 0.0
        else:
            fs = float(pairwise_sum(self.ratios[:k] * np.maximum(hs_sq[:k], 0.0)))
            roundoff = float(self.roundoff[i])
        fs = max(fs, 0.0)
        pd, ph = self._psi[i], float(self.phis[i])
        total = pd["value"] + ph * math.sqrt(fs)
        return BoundReport(
            group_id=self.G.group_id, g_descriptor=self.g.descriptor(),
            M=float(self.grid[i]), m0=pd["m0"], psi=pd["value"], phi=ph,
            fourier_sum=fs, total=total, irreps_used=k, profile_id=self.profile_id,
            tolerances=self.tolerances(
                i, total, None if roundoff is None else ph * math.sqrt(roundoff)),
            variant="gap_relaxed" if self.relaxed else "exact",
            tail_warning=pd["tail_warning"])

    def best(self, hs_sq=None, q: Optional[float] = None) -> Tuple[float, BoundReport]:
        """Least total over the grid, ties to the smaller cutoff, and its report."""
        if self.relaxed:
            i = self.gap_totals(q)[1]
        else:
            i = self.totals(self.prefix(
                0.0 if hs_sq is None else np.maximum(hs_sq, 0.0)))[1]
        return float(self.grid[i]), self.report(int(i), hs_sq, q)


def check_dominance(reports, oracle_cost: float, slack: float) -> None:
    """Raise DominanceError where total + tolerance + slack < oracle_cost;
    slack is how far the oracle may sit above the distance it stands for
    (transport.GAP_TOL for the exact LP, or a proxy's distance from Haar)."""
    for rep in reports:
        if rep.total + rep.tolerance + slack < oracle_cost:
            raise DominanceError(
                f"bound total {rep.total!r} at M={rep.M:g} is below the "
                f"oracle cost {oracle_cost!r} less the slack {slack:g}")


def wg_bound(G: GroupDescriptor, g, nu1, nu2, M: float,
             profile="paper_bump") -> BoundReport:
    """Certified upper bound on the generalized Wasserstein distance.

    ``nu2=None`` compares against Haar.
    """
    if M < G.admissibility_threshold:
        raise ValueError(
            f"M={M} below admissibility threshold {G.admissibility_threshold}")
    sweep = CutoffSweep(G, g, profile, [M])
    return sweep.report(0, sweep.hs_profile(nu1, nu2))


def optimize_M(G: GroupDescriptor, g, nu1, nu2, profile="paper_bump",
               M_grid=None) -> Tuple[float, BoundReport]:
    """Grid argmin of the bound total; ties go to the smaller cutoff."""
    sweep = CutoffSweep(G, g, profile, M_grid)
    return sweep.best(sweep.hs_profile(nu1, nu2))


# ---------------------------------------------------------------------------
# spectral-gap corollaries against Haar


def optimized_gap_bound(G: GroupDescriptor, g, q: float, profile="paper_bump",
                        M_grid=None) -> Tuple[float, BoundReport]:
    """Best gap-relaxed Haar bound over a cutoff grid, for a given gap q.

    Scalar spectral sums only, so the grid may extend far beyond what exact
    block enumeration could afford.
    """
    return CutoffSweep(G, g, profile, M_grid, relaxed=True).best(q=q)
