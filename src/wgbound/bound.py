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

from ._util import SolverError, config_hash, golden_min, pairwise_sum
from . import fourier, groups, smoothing
from .groups import GroupDescriptor
from .smoothing import as_profile_id, budget_interval, bump_transform, kernel_degree

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


def _psi_layout(G: GroupDescriptor):
    try:
        return _PSI_LAYOUT[G.group_id]
    except KeyError:
        raise ValueError(f"no smoothing-cost layout for group {G.group_id!r}")


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
    G = groups.descriptor(group_id)
    r, R, A, a_f, xpow = _psi_layout(G)
    tf = bump_transform(profile_id, r)
    breaks = np.concatenate(([0.0], _f_sign_changes(tf, a_f, R), [R]))
    lo, hi = _panels(breaks, 0.5)
    mid = 0.5 * (lo + hi)
    xc, wc = smoothing._gauss_nodes(lo, hi, 10)
    xf, wf = smoothing._gauss_nodes(np.column_stack((lo, mid)).ravel(),
                                    np.column_stack((mid, hi)).ravel(), 10)
    x = np.concatenate((xc, xf))
    factor = A * x ** xpow
    if G.group_id in ("su2", "so3"):
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
    return _psi_details(G, g, [t], as_profile_id(profile))[0]


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
    constant.  Its square is smoothing.fourier_decay_budget.
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


def _tolerances(quad_error: float, total: float,
                fourier_roundoff: Optional[float] = None) -> Dict[str, float]:
    """Tolerance entries of a total psi + phi * sqrt(sum).

    psi_quadrature is psi_detailed's quadrature error estimate at the
    cutoff.  fourier_roundoff, phi * sqrt(delta) for a Fourier sum read from
    fourier.hs_profile, covers that sum's rounding: it errs by at most
    delta, and sqrt(a + delta) <= sqrt(a) + sqrt(delta).

    float_slack, 1e-11 * max(1, total), covers the rounding of the rest of
    the assembly, all of it on nonnegative terms.  psi's main part is a
    pairwise sum of fewer than 2^14 node terms w * g, each within 4u, so it
    errs by under 18u relative; the tail and main + tail add 4u.  phi is
    about ten operations, 10u.  A relaxed report's Fourier sum is a prefix
    sum of nonnegative terms, under 20u, which the square root halves.
    sqrt, product and sum add 3u.  So the computed total is within 60u <
    7e-15 of total, and float_slack exceeds that by a factor of over 1,000;
    the floor 1e-11 keeps an absolute allowance for totals below 1.
    """
    tol = {"psi_quadrature": quad_error, "float_slack": 1e-11 * max(1.0, total)}
    if fourier_roundoff is not None:
        tol["fourier_roundoff"] = fourier_roundoff
    tol["total"] = sum(tol.values())
    return tol


def _assemble(G: GroupDescriptor, g, M: float, pd: dict, ph: float,
              profile_id: str, fourier_sum: float, irreps_used: int,
              variant: str, roundoff: Optional[float] = None) -> BoundReport:
    """Report from psi_detailed output pd, phi value ph and the Fourier sum.

    roundoff is the bound delta on the Fourier sum's rounding error, or
    None when the sum is not read from hs_profile.
    """
    fs = max(float(fourier_sum), 0.0)
    total = pd["value"] + ph * math.sqrt(fs)
    return BoundReport(
        group_id=G.group_id, g_descriptor=g.descriptor(), M=float(M),
        m0=pd["m0"], psi=pd["value"], phi=ph, fourier_sum=fs, total=total,
        irreps_used=irreps_used, profile_id=profile_id,
        tolerances=_tolerances(pd["quad_error"], total,
                               None if roundoff is None else ph * math.sqrt(roundoff)),
        variant=variant, tail_warning=pd["tail_warning"])


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
    if hi < lo:
        raise ValueError(f"grid cap {hi} below admissibility threshold {lo}")
    n_pts = max(2, int(math.ceil(16.0 * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, n_pts)


class CutoffSweep:
    """psi and phi on a sorted, admissible cutoff grid, evaluated once.

    The bound total at grid[i] is psis[i] + phis[i] * sqrt(cum[cuts[i]]),
    where cum holds prefix sums of the Fourier sum over the spectrum below
    the top of the grid and cuts[i] counts that spectrum below grid[i].
    Both kinds read the spectrum from groups.spectral_data.  An exact
    sweep weights squared HS distances by d/kappa and also holds the
    irreps, for hs_profile, and roundoff, the prefix sums of d/kappa times
    fourier.hs_roundoff, which bound the rounding of each cut's Fourier
    sum.  A relaxed sweep (the gap corollary) uses
    d^2/kappa scaled by q^2, on a longer grid;
    at one fixed cutoff M it is CutoffSweep(G, g, profile, [M],
    relaxed=True).report(0, q=q).
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
        self.profile_id = as_profile_id(profile)
        top = float(grid[-1])
        sd = groups.spectral_data(G, top)
        self.irreps = None if relaxed else groups.enumerate_irreps(G, top)
        self.ratios = sd["dim"] ** (2 if relaxed else 1) / sd["casimir"]
        self.roundoff = None if relaxed else self.prefix(
            fourier.hs_roundoff(G, self.irreps))
        self.cuts = np.searchsorted(sd["weight_norm"], grid, "left")
        self._psi = _psi_details(G, g, grid.tolist(), self.profile_id)
        self.psis = np.asarray([pd["value"] for pd in self._psi])
        self.phis = np.asarray([phi(G.n, g, float(M)) for M in grid])

    def hs_profile(self, nu1, nu2) -> Optional[np.ndarray]:
        """Squared HS distances over the irreps; None for identical measures."""
        if nu2 is not None and nu1.identical_to(nu2):
            return None
        return fourier.hs_profile(self.G, nu1, nu2, self.irreps)

    def prefix(self, values=1.0) -> np.ndarray:
        """Prefix sums [0, r0 v0, r0 v0 + r1 v1, ...] of ratios times values."""
        return np.concatenate(([0.0], np.cumsum(self.ratios * values)))

    def totals(self, cum: np.ndarray) -> Tuple[np.ndarray, int]:
        """Totals at every grid point, and the first index of the least."""
        totals = self.psis + self.phis * np.sqrt(np.maximum(cum[self.cuts], 0.0))
        return totals, int(np.argmin(totals))

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
            fs = q * q * float(self.prefix()[k])
        elif hs_sq is None:
            fs = 0.0
        else:
            fs = float(pairwise_sum(self.ratios[:k] * np.maximum(hs_sq[:k], 0.0)))
            roundoff = float(self.roundoff[k])
        return _assemble(self.G, self.g, float(self.grid[i]), self._psi[i],
                         float(self.phis[i]), self.profile_id, fs, k,
                         "gap_relaxed" if self.relaxed else "exact", roundoff)

    def best(self, hs_sq=None, q: Optional[float] = None) -> Tuple[float, BoundReport]:
        """Least total over the grid, ties to the smaller cutoff, and its report."""
        if self.relaxed:
            cum = q * q * self.prefix()
        else:
            cum = self.prefix(0.0 if hs_sq is None else np.maximum(hs_sq, 0.0))
        i = self.totals(cum)[1]
        return float(self.grid[i]), self.report(i, hs_sq, q)


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
