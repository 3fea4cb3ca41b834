"""Moduli of continuity, psi/phi, the main bound, and gap-based variants."""
import math
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq

from wgbound import bound, fourier, groups, smoothing, transport
from wgbound._util import gamma

from conftest import random_measure

G_T1 = groups.descriptor("torus(1)")
G_SU2 = groups.descriptor("su2")
LINEAR = bound.ModulusOfContinuity.power(1.0)


def zero_modulus():
    return bound.ModulusOfContinuity.table([1.0], [0.0])


class TestModulus:
    def test_power_validation(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                bound.ModulusOfContinuity.power(bad)
        g = bound.ModulusOfContinuity.power(0.5)
        assert g(4.0) == pytest.approx(2.0)
        assert g(0.0) == 0.0
        assert g.descriptor() == "power:0.5"

    def test_table_evaluation(self):
        g = bound.ModulusOfContinuity.table([0.5, 1.0, 2.0], [0.3, 0.5, 0.8])
        assert g(0.0) == 0.0
        assert g(0.25) == pytest.approx(0.15)
        assert g(1.5) == pytest.approx(0.65)
        assert g(10.0) == pytest.approx(0.8)  # constant beyond last knot
        assert g.descriptor().startswith("table:")

    def test_table_validation(self):
        T = bound.ModulusOfContinuity.table
        with pytest.raises(ValueError, match="increasing"):
            T([1.0, 1.0], [0.1, 0.2])
        with pytest.raises(ValueError, match="nonnegative|nondecreasing"):
            T([1.0, 2.0], [0.3, 0.2])
        with pytest.raises(ValueError, match="subadditive"):
            T([1.0, 2.0], [0.1, 1.0])
        # g(2e-3) = 0.03 > 2 g(1e-3): a violation near the origin, which
        # random pairs over [0, 2] almost never sample
        with pytest.raises(ValueError, match="subadditive.*by 0.01"):
            T([1e-3, 2e-3, 1.0], [0.01, 0.03, 1.0])

    @pytest.mark.parametrize("knots,values", [
        ([0.5, 1.0], [0.3, math.nan]), ([math.nan, 1.0], [0.3, 0.5]),
        ([0.5, math.inf], [0.3, 0.5]), ([0.5, 1.0], [0.3, math.inf])])
    def test_table_rejects_non_finite(self, knots, values):
        # every order check is false for nan, so finiteness is checked first
        with pytest.raises(ValueError, match="finite"):
            bound.ModulusOfContinuity.table(knots, values)

    def test_initial_slope(self):
        assert LINEAR.initial_slope() == 1.0
        assert bound.ModulusOfContinuity.power(0.5).initial_slope() is None
        g = bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.4])
        assert g.initial_slope() == pytest.approx(0.5)

    def test_equality_is_by_content(self):
        a = bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.4])
        b = bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.4])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.41])
        assert LINEAR == bound.ModulusOfContinuity.power(1)
        assert hash(LINEAR) == hash(bound.ModulusOfContinuity.power(1))
        assert LINEAR != bound.ModulusOfContinuity.power(0.5)
        assert a != LINEAR and LINEAR != "power:1"

    def test_table_is_read_only(self):
        knots = np.array([0.5, 1.0])
        g = bound.ModulusOfContinuity.table(knots, [0.25, 0.4])
        with pytest.raises(ValueError, match="read-only"):
            g.knots[0] = 0.4
        with pytest.raises(ValueError, match="read-only"):
            g.values[1] = 0.5
        # the caller's array is not the modulus's, and stays writable
        knots[0] = 0.4
        assert g.knots[0] == 0.5

    @given(st.floats(0.01, 1.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_power_subadditive_monotone(self, p, t, u):
        g = bound.ModulusOfContinuity.power(p)
        assert g(t + u) <= g(t) + g(u) + 1e-12
        assert g(max(t, u)) + 1e-15 >= g(min(t, u))


class TestPsi:
    def test_below_threshold_raises(self, any_group):
        with pytest.raises(ValueError, match="admissibility"):
            bound.psi(any_group, LINEAR, any_group.admissibility_threshold - 0.1)

    def test_zero_modulus_gives_zero(self, any_group):
        t = 3.0 * any_group.admissibility_threshold
        assert bound.psi(any_group, zero_modulus(), t) == 0.0

    def test_positive_and_scaling_band(self):
        for p in (0.5, 1.0):
            g = bound.ModulusOfContinuity.power(p)
            vals = [bound.psi(G_SU2, g, M) * M ** p for M in (10, 20, 40, 80)]
            assert all(v > 0 for v in vals)
            assert max(vals) / min(vals) < 3.0

    def test_step_monotone_in_kernel_degree(self, any_group):
        thr = any_group.admissibility_threshold
        vals = [bound.psi(any_group, LINEAR, k * thr + 1e-9) for k in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_independent_quadrature_torus1(self):
        # reference route: adaptive quadrature with panels split at the
        # sign changes of the transform, plus the same certified tail
        g = bound.ModulusOfContinuity.power(1.0)
        t = 7.0
        m0 = int(t / math.pi)
        tf = smoothing.bump_transform("paper_bump", 1)
        zeros = bound._f_sign_changes(tf, math.pi, 80.0)

        def integrand(x):
            return g(2 * math.pi * x / m0) * math.pi \
                * abs(tf.evaluate(np.array([math.pi * x]))[0])

        ref, _ = integrate.quad(integrand, 0.0, 80.0, limit=800,
                                points=list(zeros[:80]))
        ref *= 4.0  # both half-lines, times the outer factor 2
        detail = bound.psi_detailed(G_T1, g, t)
        assert detail["main"] == pytest.approx(ref, rel=1e-6)
        assert detail["value"] >= detail["main"]

    def test_detail_fields(self):
        d = bound.psi_detailed(G_SU2, LINEAR, 9.0)
        assert d["value"] == pytest.approx(d["main"] + d["tail"])
        assert d["tail"] >= 0 and d["quad_error"] >= 0
        assert d["m0"] == 6
        assert not d["tail_warning"]


class TestPsiMemo:
    @pytest.mark.parametrize("relaxed", [(False, True), (True, False)],
                             ids=["default-first", "gap-first"])
    def test_sweeps_read_cold_psi(self, any_group, relaxed):
        # each memoised entry equals a psi_detailed call on an empty memo,
        # bit for bit, whichever sweep asked for its degree first
        bound._psi_memo.cache_clear()
        sweeps = [bound.CutoffSweep(any_group, LINEAR, relaxed=r) for r in relaxed]
        for sweep in sweeps:
            for M, pd in zip(sweep.grid.tolist(), sweep._psi):
                bound._psi_memo.cache_clear()
                assert pd == bound.psi_detailed(any_group, LINEAR, M), M

    def test_returned_dicts_are_fresh(self):
        first = bound.psi_detailed(G_SU2, LINEAR, 9.0)
        kept = dict(first)
        first["value"] = first["main"] = -1.0
        sweep = bound.CutoffSweep(G_SU2, LINEAR, "paper_bump", [9.0, 9.5])
        sweep._psi[1]["quad_error"] = -1.0
        assert sweep._psi[0] == kept
        assert bound.psi_detailed(G_SU2, LINEAR, 9.5) == kept

    def test_each_modulus_reads_its_own_psi(self):
        grid = bound.default_m_grid(G_SU2)
        half = bound.ModulusOfContinuity.power(0.5)
        bound._psi_memo.cache_clear()
        ones = bound.CutoffSweep(G_SU2, LINEAR, "paper_bump", grid)
        halves = bound.CutoffSweep(G_SU2, half, "paper_bump", grid)
        bound._psi_memo.cache_clear()
        cold = bound.CutoffSweep(G_SU2, half, "paper_bump", grid)
        assert np.array_equal(halves.psis, cold.psis)
        assert np.all(halves.psis != ones.psis)

    @pytest.mark.parametrize("make", [
        lambda: LINEAR,
        lambda: bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.4])],
        ids=["power", "equal-tables"])
    def test_second_sweep_sums_no_column(self, monkeypatch, make):
        columns, weighted = [], bound._weighted_sums

        def spy(x, w, g, m0s):
            columns.append(len(m0s))
            return weighted(x, w, g, m0s)

        monkeypatch.setattr(bound, "_weighted_sums", spy)
        bound._psi_memo.cache_clear()
        first = bound.CutoffSweep(G_SU2, make())
        degrees = {bound.kernel_degree(G_SU2, M) for M in first.grid}
        assert sum(columns) == 3 * len(degrees) < 3 * first.grid.size
        columns.clear()
        second = bound.CutoffSweep(G_SU2, make())
        assert sum(columns) == 0
        assert np.array_equal(first.psis, second.psis)


# psi on the rank-one groups by routes of its own: F(X) = 2 int_0^1 eta(y)
# cos(2 pi X y) dy by 64 Gauss-Legendre panels of 20 nodes in y (within
# 1e-14 of the transform), F's sign changes found from a scan in X of step
# 0.05 and brentq, with a pair of close zeros caught where F' changes sign
# between scan points of one sign, then 20-point Gauss-Legendre on pieces
# of at most 0.5 between them, and mpmath's tanh-sinh rule on the first
# piece, where g(2 pi x / M0) = x^p is singular at 0


@lru_cache(maxsize=None)
def _rank_one_nodes(profile_id):
    gx, gw = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, 1.0, 65)
    half = np.diff(edges)[:, None] / 2
    y = (edges[:-1, None] + half + half * gx).ravel()
    return y, 2.0 * (half * gw).ravel() * smoothing.bump_profile(profile_id).radial(y)


def _reference_transform(profile_id, X, slope=False):
    """F(X), or F'(X) with slope, for rank one."""
    y, c = _rank_one_nodes(profile_id)
    X = np.atleast_1d(np.asarray(X, dtype=float))
    out = []
    for lo in range(0, X.size, 256):
        phase = 2 * np.pi * np.outer(X[lo:lo + 256], y)
        out.append(-np.sin(phase) @ (2 * np.pi * y * c) if slope else np.cos(phase) @ c)
    return np.concatenate(out)


def _root(f, a, b):
    try:
        return brentq(f, a, b, xtol=1e-13)
    except ValueError:      # the sign of F is rounding noise here
        return 0.5 * (a + b)


@lru_cache(maxsize=None)
def _psi_reference_nodes(profile_id, R, A, a_f, trig):
    """First sign change of F(a_f x), and the nodes, weights times the
    integrand without g, on [first, R + 20]."""
    def val(x):
        return _reference_transform(profile_id, a_f * x)[0]

    xs = (np.arange(0.0, (R + 20.0) * a_f, 0.05) + 0.025) / a_f
    fv = _reference_transform(profile_id, a_f * xs)
    dv = _reference_transform(profile_id, a_f * xs, slope=True)
    big = np.abs(fv) > 1e-13
    big = big[:-1] | big[1:]
    flip = np.sign(fv[:-1]) * np.sign(fv[1:]) < 0
    breaks = [_root(val, xs[i], xs[i + 1]) for i in np.nonzero(flip & big)[0]]
    turn = ~flip & (np.sign(dv[:-1]) * np.sign(dv[1:]) < 0) & big
    for i in np.nonzero(turn)[0]:
        z = _root(lambda x: _reference_transform(profile_id, a_f * x, slope=True)[0],
                  xs[i], xs[i + 1])
        if abs(val(z)) > 1e-13 and np.sign(val(z)) != np.sign(fv[i]):
            breaks += [_root(val, xs[i], z), _root(val, z, xs[i + 1])]
    breaks = np.unique(np.concatenate((breaks, [R, R + 20.0])))
    gx, gw = np.polynomial.legendre.leggauss(20)
    x, w = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        e = np.linspace(a, b, int(math.ceil((b - a) / 0.5)) + 1)
        h = np.diff(e)[:, None] / 2
        x.append((e[:-1, None] + h + h * gx).ravel())
        w.append((h * gw).ravel())
    x, w = np.concatenate(x), np.concatenate(w)
    base = A * np.abs(_reference_transform(profile_id, a_f * x))
    return breaks[0], x, w * base * (np.sin(np.pi * x) ** 2 if trig else 1.0)


def _psi_reference(G, profile_id, p, M):
    """(int_0^R, int_R^{R+20}) of psi's integrand with g = t^p."""
    _, R, A, a_f, _ = bound._PSI_LAYOUT[G.group_id]
    trig = G.group_id in ("su2", "so3")
    first, x, wb = _psi_reference_nodes(profile_id, R, A, a_f, trig)
    m0 = smoothing.kernel_degree(G, M)

    def head(t):
        t = float(t)
        v = A * abs(_reference_transform(profile_id, a_f * t)[0]) * (2 * math.pi * t / m0) ** p
        return v * math.sin(math.pi * t) ** 2 if trig else v

    vals = wb * (2 * np.pi * x / m0) ** p
    return float(mp.quad(head, [0, first])) + vals[x < R].sum(), vals[x >= R].sum()


@pytest.mark.parametrize("group_id, profile, p, M", [
    ("torus(1)", "paper_bump", 0.5, 10.0), ("torus(1)", "plateau", 1.0, 40.0),
    ("su2", "paper_bump", 1.0, 40.0), ("su2", "plateau", 0.5, 5.0),
    ("so3", "paper_bump", 0.5, 12.0)])
def test_psi_within_quadrature_of_reference(group_id, profile, p, M):
    G = groups.descriptor(group_id)
    main, beyond = _psi_reference(G, profile, p, M)
    d = bound.psi_detailed(G, bound.ModulusOfContinuity.power(p), M, profile)
    assert abs(d["main"] - main) <= d["quad_error"]
    assert d["value"] >= main + beyond - d["quad_error"]


class _RecordingTransform:
    """A bump transform that records every batch it evaluates."""

    def __init__(self, tf):
        self.tf, self.f0, self.error, self.calls = tf, tf.f0, tf.error, []

    def evaluate(self, x):
        v = self.tf.evaluate(x)
        self.calls.append((np.array(x), v))
        return v


def _psi_factor(group_id, x):
    """base(x) without its |F| factor: A x^xpow, times sin^2(pi x) on su2/so3."""
    _, _, A, _, xpow = bound._PSI_LAYOUT[group_id]
    out = A * x ** xpow
    return out * np.sin(np.pi * x) ** 2 if group_id in ("su2", "so3") else out


class TestPsiNodes:
    @pytest.mark.parametrize("group_id", ["su2", "torus(1)", "torus(2)", "torus(3)"])
    def test_zero_refinement(self, group_id):
        r, R, _, a_f, _ = bound._PSI_LAYOUT[group_id]
        rec = _RecordingTransform(smoothing.bump_transform("paper_bump", r))
        zeros = a_f * bound._f_sign_changes(rec, a_f, R)
        # one zero inside each determined sign change of the dense scan:
        # between consecutive scan points where |F| exceeds F's error bound
        scan_x, scan_f = rec.calls[0]
        sure = np.abs(scan_f) > rec.error
        sx, sf = scan_x[sure], scan_f[sure]
        idx = np.nonzero(np.sign(sf[:-1]) * np.sign(sf[1:]) < 0)[0]
        assert zeros.size == idx.size > 0
        assert np.all(sx[idx] <= zeros) and np.all(zeros <= sx[idx + 1])
        # on the tori the scan changes sign more often than that: the noise
        # beyond the last determined zero, which gives no zero
        noise = np.sign(scan_f[:-1]) * np.sign(scan_f[1:]) < 0
        if group_id.startswith("torus"):
            assert np.count_nonzero(noise) > zeros.size
            assert np.all(np.abs(scan_f[scan_x > sx[idx[-1] + 1]]) <= 1e3 * rec.error)
        # each zero is either a point where |F| fell to F's error bound, or
        # the middle of a sign-changing bracket no wider than 3.7e-12
        seen_x, order = np.unique(np.concatenate([x for x, _ in rec.calls]),
                                  return_index=True)
        seen_f = np.concatenate([f for _, f in rec.calls])[order]
        i = np.searchsorted(seen_x, zeros)
        hit = (seen_x[np.minimum(i, seen_x.size - 1)] == zeros) \
            & (np.abs(seen_f[np.minimum(i, seen_x.size - 1)]) <= rec.error)
        lo, hi = i[~hit] - 1, i[~hit]
        assert np.all(np.sign(seen_f[lo]) * np.sign(seen_f[hi]) < 0)
        assert np.all(seen_x[hi] - seen_x[lo] <= a_f * 3.7e-12 + 1e-13)

    @pytest.mark.parametrize("group_id", ["su2", "torus(2)"])
    def test_shared_nodes_match_per_table_evaluation(self, group_id):
        r, R, A, a_f, xpow = bound._PSI_LAYOUT[group_id]
        tf = smoothing.bump_transform("paper_bump", r)
        tables = bound._psi_nodes(group_id, "paper_bump")
        zeros = bound._f_sign_changes(tf, a_f, R)
        breaks = np.concatenate(([0.0], zeros, [R]))
        lo, hi = bound._panels(breaks, 0.5)
        # no break beyond the last determined zero: equal panels up to R
        tail = lo >= zeros[-1]
        assert lo[tail][0] == zeros[-1] and hi[tail][-1] == R
        assert np.ptp(hi[tail] - lo[tail]) <= 1e-12 and np.all(hi[tail] - lo[tail] <= 0.5)
        mid = 0.5 * (lo + hi)
        halves = (np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel())
        for tag, (plo, phi) in (("coarse", (lo, hi)), ("fine", halves)):
            x, wx = smoothing._gauss_nodes(plo, phi, 10)
            ref = wx * np.abs(tf.evaluate(a_f * x)) * _psi_factor(group_id, x)
            got_x, got_w = tables[tag]
            assert np.array_equal(got_x, x)
            # the table multiplies in another order, so compare on the scale
            # of the whole vector
            assert np.max(np.abs(got_w - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("group_id", ["so3", "torus(1)", "torus(3)"])
    def test_fine_table_halves_every_panel(self, group_id):
        r, R, _, a_f, _ = bound._PSI_LAYOUT[group_id]
        tf = smoothing.bump_transform("paper_bump", r)
        tables = bound._psi_nodes(group_id, "paper_bump")
        breaks = np.concatenate(([0.0], bound._f_sign_changes(tf, a_f, R), [R]))
        lo, hi = bound._panels(breaks, 0.5)
        mid = 0.5 * (lo + hi)
        xc, xf = tables["coarse"][0], tables["fine"][0]
        # 10 coarse nodes per panel, 10 fine nodes in each of its halves
        edges = np.column_stack((lo, mid)).ravel()
        assert np.array_equal(np.bincount(np.searchsorted(lo, xc) - 1), np.full(lo.size, 10))
        assert np.array_equal(np.bincount(np.searchsorted(edges, xf) - 1),
                              np.full(edges.size, 10))
        assert np.all(hi - lo <= 0.5 + 1e-15)

    @pytest.mark.parametrize("group_id", ["torus(1)", "torus(2)", "torus(3)"])
    def test_undetermined_region_charge_on_tori(self, group_id):
        r, R, _, a_f, _ = bound._PSI_LAYOUT[group_id]
        tf = smoothing.bump_transform("paper_bump", r)
        tables = bound._psi_nodes(group_id, "paper_bump")
        zeros = bound._f_sign_changes(tf, a_f, R)
        last = zeros[-1]
        lo, hi = bound._panels(np.concatenate(([0.0], zeros, [R])), 0.5)
        mid = 0.5 * (lo + hi)
        xf, wf = smoothing._gauss_nodes(np.column_stack((lo, mid)).ravel(),
                                        np.column_stack((mid, hi)).ravel(), 10)
        assert np.array_equal(xf, tables["fine"][0])
        charge = tf.error * wf * _psi_factor(group_id, xf)
        ends, panel_charge = tables["charge"]
        assert np.array_equal(ends, hi)
        assert np.max(np.abs(panel_charge - charge.reshape(-1, 20).sum(axis=1))) \
            <= 1e-14 * np.max(panel_charge)
        G = groups.descriptor(group_id)
        for M in (G.admissibility_threshold, 40.0):
            d = bound.psi_detailed(G, LINEAR, M)
            gf = LINEAR(2 * math.pi * xf / d["m0"])
            coarse = float(np.sum(tables["coarse"][1]
                                  * LINEAR(2 * math.pi * tables["coarse"][0] / d["m0"])))
            beyond = float(np.sum((charge * gf)[xf > last]))
            # the region beyond the last determined zero is charged, and the
            # charge is part of the quadrature error
            assert last < 0.6 * R and beyond > 0.0
            assert d["quad_error"] - abs(d["main"] - coarse) \
                >= beyond * (1 - 1e-9) > 0.0


class TestPhi:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_linear_modulus_is_sqrt_n(self, n):
        for t in (0.3, 1.0, 3.7, 10.0, 120.0):
            assert bound.phi(n, LINEAR, t) == pytest.approx(math.sqrt(n), abs=1e-10)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_power_scale_law(self, p):
        g = bound.ModulusOfContinuity.power(p)
        ref = bound.phi(3, g, 1.0)
        for t in (0.5, 2.0, 17.0, 300.0):
            assert bound.phi(3, g, t) * t ** (p - 1.0) \
                == pytest.approx(ref, abs=1e-10 * ref)

    def test_table_modulus_finite(self):
        g = bound.ModulusOfContinuity.table([0.5, 1.0], [0.25, 0.4])
        v = bound.phi(3, g, 5.0)
        assert 0.0 < v < math.inf


class TestWgBound:
    def test_identical_measures_short_circuit(self, any_group):
        nu = random_measure(any_group, 5, 77)
        M = 4.0 * any_group.admissibility_threshold
        rep = bound.wg_bound(any_group, LINEAR, nu, nu, M)
        assert rep.fourier_sum == 0.0
        assert rep.total == rep.psi
        assert rep.variant == "exact"

    def test_report_invariants(self, any_group):
        nu1 = random_measure(any_group, 6, 78)
        nu2 = random_measure(any_group, 4, 79)
        M = 5.0 * any_group.admissibility_threshold
        rep = bound.wg_bound(any_group, LINEAR, nu1, nu2, M)
        assert rep.total >= rep.psi >= 0
        assert rep.fourier_sum >= 0
        assert rep.total == pytest.approx(
            rep.psi + rep.phi * math.sqrt(rep.fourier_sum))
        assert rep.tolerance == rep.tolerances["total"] > 0
        assert rep.irreps_used == len(groups.enumerate_irreps(any_group, M))
        d = rep.as_json_dict()
        assert d["total"] == rep.total and d["M0"] == rep.m0
        row = rep.csv_row(seed=3)
        assert len(row) == len(bound.CSV_HEADER)

    def test_fourier_roundoff_entry(self, any_group):
        # phi * sqrt(delta) on reports whose Fourier sum is read from
        # hs_profile; none on identical measures or gap-relaxed reports
        nu1 = random_measure(any_group, 6, 78)
        nu2 = random_measure(any_group, 4, 79)
        grid = bound.default_m_grid(any_group, cap=8.0 * any_group.admissibility_threshold)
        sweep = bound.CutoffSweep(any_group, LINEAR, "paper_bump", grid)
        fs = sweep.fourier_sums(nu1, nu2)
        bounds = fourier.hs_roundoff(any_group, sweep.labels)
        for i in range(grid.size):
            rep = sweep.report(i, fs[i])
            k = rep.irreps_used
            delta = float(np.sum(sweep.ratios[:k] * bounds[:k]))
            assert rep.tolerances["fourier_roundoff"] == pytest.approx(
                rep.phi * math.sqrt(delta), rel=1e-12)
            t = rep.tolerances
            assert t["total"] == t["psi_quadrature"] + t["float_slack"] \
                + t["fourier_roundoff"]
        assert "fourier_roundoff" not in sweep.report(0, None).tolerances
        relaxed = bound.CutoffSweep(any_group, LINEAR, "paper_bump", grid,
                                    relaxed=True)
        assert "fourier_roundoff" not in relaxed.report(
            0, relaxed.gap_sums(0.5)[0]).tolerances

    @pytest.mark.parametrize("relaxed", [False, True], ids=["exact", "relaxed"])
    def test_reports_carry_the_swept_totals(self, any_group, relaxed):
        # each report's total is the one totals formed and best minimised,
        # bit for bit; an HS profile in place of one sum raises
        grid = bound.default_m_grid(any_group, cap=8.0 * any_group.admissibility_threshold)
        sweep = bound.CutoffSweep(any_group, LINEAR, "paper_bump", grid, relaxed=relaxed)
        fs = sweep.gap_sums(0.7) if relaxed else sweep.fourier_sums(
            random_measure(any_group, 6, 82), random_measure(any_group, 5, 83))
        totals, best = sweep.totals(fs)
        for i in range(sweep.grid.size):
            rep = sweep.report(i, fs[i])
            assert (rep.fourier_sum, rep.total) == (fs[i], totals[i]), i
        m, rep = sweep.best(fs)
        assert (m, rep.total) == (sweep.grid[best], totals.min())
        with pytest.raises(TypeError):
            sweep.report(0, fs)

    def test_admissibility_raises(self):
        nu = random_measure(G_SU2, 3, 1)
        with pytest.raises(ValueError, match="admissibility"):
            bound.wg_bound(G_SU2, LINEAR, nu, None, 1.2)

    def test_sweep_report_matches_wg_bound(self, any_group):
        nu1 = random_measure(any_group, 6, 80)
        nu2 = random_measure(any_group, 5, 81)
        top = 6.0 * any_group.admissibility_threshold
        grid = bound.default_m_grid(any_group, cap=top)
        sweep = bound.CutoffSweep(any_group, LINEAR, "paper_bump", grid)
        fs = sweep.fourier_sums(nu1, nu2)
        for i, M in enumerate(grid):
            alone = bound.wg_bound(any_group, LINEAR, nu1, nu2, float(M))
            # a sweep topped at M sees the same irreps as wg_bound at M
            own = bound.CutoffSweep(any_group, LINEAR, "paper_bump",
                                    grid[:i + 1])
            assert own.report(i, own.fourier_sums(nu1, nu2)[i]) == alone
            # the full sweep reuses one profile over more irreps; no
            # irrep's value depends on how many the profile holds
            assert sweep.report(i, fs[i]) == alone

    def test_dominates_circle_oracle_trials(self):
        g = LINEAR
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            nu1 = random_measure(G_T1, int(rng.integers(2, 17)), 2000 + trial)
            nu2 = random_measure(G_T1, int(rng.integers(2, 17)), 3000 + trial)
            w1 = transport.circle_w1(nu1, nu2)
            for M in (4.0, 12.0, 45.0):
                rep = bound.wg_bound(G_T1, g, nu1, nu2, M)
                assert rep.total + rep.tolerance >= w1

    def test_constant_times_shape_recovery(self):
        # linear-in-M^{-p} + sqrt-sum shape with a finite constant
        p = 0.5
        g = bound.ModulusOfContinuity.power(p)
        nu1 = random_measure(G_SU2, 8, 90)
        nu2 = random_measure(G_SU2, 8, 91)
        Ms = [4.0, 8.0, 16.0, 32.0]
        reps = [bound.wg_bound(G_SU2, g, nu1, nu2, M) for M in Ms]
        c_g = max(max(r.psi * r.M ** p for r in reps),
                  max(r.phi * r.M ** (p - 1.0) for r in reps))
        assert math.isfinite(c_g)
        for r in reps:
            shape = c_g * (r.M ** -p + r.M ** (1 - p) * math.sqrt(r.fourier_sum))
            assert r.total <= shape + 1e-12


class TestOptimizeM:
    def test_singleton_grid(self):
        nu = random_measure(G_SU2, 4, 11)
        m, rep = bound.optimize_M(G_SU2, LINEAR, nu, None, M_grid=[7.0])
        assert m == 7.0 and rep.M == 7.0

    def test_argmin_definition(self):
        nu1 = random_measure(G_SU2, 6, 12)
        nu2 = random_measure(G_SU2, 3, 13)
        grid = bound.default_m_grid(G_SU2, cap=40.0)
        m, rep = bound.optimize_M(G_SU2, LINEAR, nu1, nu2, M_grid=grid)
        totals = [bound.wg_bound(G_SU2, LINEAR, nu1, nu2, float(M)).total
                  for M in grid]
        assert rep.total == pytest.approx(min(totals), abs=1e-12)
        assert m == pytest.approx(grid[int(np.argmin(totals))])

    def test_empty_grid_raises(self):
        nu = random_measure(G_SU2, 3, 14)
        with pytest.raises(ValueError):
            bound.optimize_M(G_SU2, LINEAR, nu, None, M_grid=[0.5, 1.0])

    def test_default_grid_properties(self, any_group):
        grid = bound.default_m_grid(any_group)
        assert grid[0] >= any_group.admissibility_threshold
        assert np.all(np.diff(grid) > 0)
        capped = bound.default_m_grid(any_group, cap=20.0)
        assert capped[-1] <= 20.0
        # a non-finite cap used to raise OverflowError (inf) or a ValueError
        # about integer conversion (nan)
        for cap in (math.inf, math.nan):
            with pytest.raises(ValueError, match="grid cap"):
                bound.default_m_grid(any_group, cap=cap)

    def test_best_cutoff_grows_with_sample_size(self):
        grid = bound.default_m_grid(G_SU2, cap=64.0)
        med = []
        for N in (64, 256, 1024):
            ms = []
            for s in range(6):
                atoms = groups.haar_sample(G_SU2, 5000 + 97 * s + N, N)
                nu = fourier.DiscreteMeasure.uniform(G_SU2, atoms)
                m, _ = bound.optimize_M(G_SU2, LINEAR, nu, None, M_grid=grid)
                ms.append(m)
            med.append(float(np.median(ms)))
        assert med[0] < med[-1]


def relaxed_at(G, g, M, q):
    """The gap-relaxed bound at one fixed cutoff: a one-point relaxed sweep."""
    sweep = bound.CutoffSweep(G, g, "paper_bump", [M], relaxed=True)
    return sweep.report(0, sweep.gap_sums(q)[0])


class TestGapBounds:
    def test_relaxed_dominates_exact(self, any_group):
        nu = random_measure(any_group, 6, 21, weighted=False)
        M = 5.0 * any_group.admissibility_threshold
        q = fourier.spectral_gap_estimate(any_group, nu, M)
        assert 0.0 <= q <= 1.0 + 1e-12
        exact = bound.wg_bound(any_group, LINEAR, nu, None, M)
        relaxed = relaxed_at(any_group, LINEAR, M, q)
        assert relaxed.total >= exact.total - 1e-12
        assert relaxed.variant == "gap_relaxed"
        assert relaxed.irreps_used == exact.irreps_used

    def test_fixed_cutoff_relaxed_sum(self, any_group):
        M = 5.0 * any_group.admissibility_threshold
        q = 0.5
        rep = relaxed_at(any_group, LINEAR, M, q)
        sd = groups.spectral_data(any_group, M)
        assert rep.irreps_used == sd["weight_norm"].size
        assert rep.fourier_sum == pytest.approx(
            q * q * math.fsum(sd["dim"] ** 2 / sd["casimir"]), rel=1e-13)
        assert rep.psi == bound.psi(any_group, LINEAR, M)
        assert rep.phi == bound.phi(any_group.n, LINEAR, M)
        assert rep.total == rep.psi + rep.phi * math.sqrt(rep.fourier_sum)

    def test_gap_prefix_built_once(self, monkeypatch):
        # best and report scale the prefix built with the sweep, kept at
        # its cuts; neither rebuilds it, and the sums are those of a fresh
        # prefix, bit for bit
        sweep = bound.CutoffSweep(groups.descriptor("so3"), LINEAR, relaxed=True)
        sd = groups.spectral_data(sweep.G, float(sweep.grid[-1]))
        fresh = bound._prefix_sums(sd["dim"] ** 2 / sd["casimir"])
        assert np.array_equal(sweep.gap_prefix, fresh[sweep.cuts])
        calls = []
        monkeypatch.setattr(bound.CutoffSweep, "sums",
                            lambda self, *args: calls.append(args))
        monkeypatch.setattr(bound, "_prefix_sums", lambda *args: calls.append(args))
        for q in (0.9, 0.5, 0.1):
            m, rep = sweep.best(sweep.gap_sums(q))
            k = int(sweep.cuts[list(sweep.grid).index(m)])
            assert rep.fourier_sum == q * q * float(fresh[k])
            assert sweep.report(0, sweep.gap_sums(q)[0]).fourier_sum == \
                q * q * float(fresh[sweep.cuts[0]])
        assert calls == []

    def test_relaxed_sweep_keeps_no_spectrum(self):
        # a relaxed sweep keeps its d^2/kappa prefix sums at the cuts only,
        # not the label rows and ratios of torus(2)'s gap grid (7.3 MB)
        G = groups.descriptor("torus(2)")
        bound.CutoffSweep(G, LINEAR, relaxed=True)  # warms the psi tables
        tracemalloc.start()
        try:
            sweep = bound.CutoffSweep(G, LINEAR, relaxed=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sweep.gap_prefix.size == sweep.grid.size
        assert held < 1e6

    def test_stacked_rows_match_single_rows(self):
        # sums, gap_sums and totals of a stack equal row-by-row calls
        # bit for bit, with the 12,744 labels of torus(2) in four blocks
        G = groups.descriptor("torus(2)")
        sweep = bound.CutoffSweep(G, LINEAR)
        assert sweep.labels.shape[0] > 3 * bound._PREFIX_BLOCK
        rows = np.random.default_rng(6).random((2, 3, sweep.labels.shape[0]))
        fs = sweep.sums(rows)
        totals, best = sweep.totals(fs)
        for idx in np.ndindex(rows.shape[:-1]):
            one = sweep.sums(rows[idx])
            assert np.array_equal(fs[idx], one)
            t, i = sweep.totals(one)
            assert np.array_equal(totals[idx], t) and best[idx] == i
        gap_sweep = bound.CutoffSweep(G, LINEAR, relaxed=True)
        qs = 0.8 ** np.arange(1, 17)
        totals, best = gap_sweep.totals(gap_sweep.gap_sums(qs))
        for q, t, i in zip(qs, totals, best):
            one_t, one_i = gap_sweep.totals(gap_sweep.gap_sums(float(q)))
            assert np.array_equal(t, one_t) and i == one_i

    def test_prefix_within_its_derived_bound(self):
        # at every cut of the torus(3) gap sweep (2,110,866 rows), the
        # blocked prefix sum stays within gamma_(B - 1 + ceil(n/B)) of an
        # exactly rounded reference (CutoffSweep.tolerances); a plain
        # cumulative sum drifts by about 1e-11 there
        sweep = bound.CutoffSweep(groups.descriptor("torus(3)"), LINEAR,
                                  relaxed=True)
        sd = groups.spectral_data(sweep.G, float(sweep.grid[-1]))
        ratios = sd["dim"] ** 2 / sd["casimir"]
        n, block = ratios.size, bound._PREFIX_BLOCK
        assert n == 2110866
        bound_rel = gamma(block - 1 + -(-n // block))
        got = bound._prefix_sums(ratios)[sweep.cuts]
        assert np.array_equal(got, sweep.gap_prefix)
        terms, segments, lo = ratios.tolist(), [], 0
        for c, value in zip(sweep.cuts.tolist(), got):
            segments.append(math.fsum(terms[lo:c]))
            lo = c
            ref = math.fsum(segments)
            assert abs(value - ref) <= bound_rel * ref, c

    def test_optimized_gap_bound_monotone_in_q(self):
        totals = [bound.optimized_gap_bound(G_SU2, LINEAR, q)[1].total
                  for q in (0.9, 0.5, 0.1)]
        assert totals[0] > totals[1] > totals[2]

    def test_optimized_gap_bound_beats_fixed_m(self):
        q = 0.3
        m_star, rep = bound.optimized_gap_bound(G_SU2, LINEAR, q)
        assert rep.M == m_star
        for M in (2.0, 10.0, 50.0):
            fixed = relaxed_at(G_SU2, LINEAR, M, q)
            assert rep.total <= fixed.total + 1e-9
