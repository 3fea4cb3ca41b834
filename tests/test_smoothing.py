"""Bump profiles, radial transforms, kernel coefficients, decay budgets."""
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import wgbound
from wgbound import bound, groups, oracles, smoothing
from wgbound._util import SolverError, pairwise_sum


@pytest.fixture(params=smoothing.PROFILE_IDS)
def profile(request):
    return smoothing.bump_profile(request.param)


def test_bump_profile_shape(profile):
    xs = np.linspace(0.0, 1.6, 400)
    vals = profile.radial(xs)
    assert vals[0] == 1.0
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[xs >= 1.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)  # radial profiles nonincreasing
    if profile.profile_id == "plateau":
        assert np.all(vals[xs <= 0.5] == 1.0)


def test_bump_profile_unknown_id():
    with pytest.raises(ValueError):
        smoothing.bump_profile("fejer")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_transform_value_at_zero(r, profile):
    tf = smoothing.bump_transform(profile, r)
    assert tf.f0 > 0.0
    ball = math.pi ** (r / 2.0) / math.gamma(r / 2.0 + 1.0)
    half_ball = ball * 0.5 ** r
    assert half_ball <= tf.f0 <= ball + 1e-12
    if profile.profile_id == "plateau" and r == 1:
        assert 1.0 <= tf.f0 <= 2.0


def test_fourier_inversion_roundtrip():
    # integrating F against e^{-2 pi i x y} must reproduce the bump
    profile = smoothing.bump_profile("paper_bump")
    tf = smoothing.bump_transform(profile, 1)

    def integrand(x, y):
        return tf.evaluate(np.array([x]))[0] * math.cos(2 * math.pi * x * y)

    for y in (0.0, 0.3, 0.7):
        val, _ = integrate.quad(integrand, 0.0, 60.0, args=(y,), limit=400)
        val *= 2.0
        assert val == pytest.approx(profile.radial(np.array([y]))[0], abs=1e-6)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_tail_majorants_valid(r, profile):
    # every order's majorant dominates |F| beyond F's own error, over the
    # whole tabulated range
    tf = smoothing.bump_transform(profile, r)
    xs = np.linspace(0.5, smoothing._X_MAX, 4001)
    excess = np.abs(tf.evaluate(xs)) - tf.error
    for k, c in tf.majorants.items():
        assert np.all(excess <= c / xs ** k), k
    assert np.all(excess <= [tf.tail_bound(x) for x in xs])


# interior points (t, c) of each profile's smooth shell
JET_POINTS = {
    "paper_bump": [(0.2, 0.0), (0.5, 0.3), (0.7, 0.2), (0.1, 0.6), (0.85, 0.1),
                   (0.4, 0.75)],
    "plateau": [(0.6, 0.0), (0.5, 0.4), (0.7, 0.3), (0.2, 0.7), (0.9, 0.1),
                (0.55, 0.55)],
}


def _mp_profile(profile_id, c):
    def h(t):
        q = t * t + c * c
        if profile_id == "plateau":
            if q <= 0.25:
                return mp.mpf(1)
            tau = 2 * (1 - mp.sqrt(q))
            return 1 / (1 + mp.exp(1 / tau - 1 / (1 - tau)))
        return mp.exp(-q / (1 - q))
    return h


def test_jet_derivatives_match_mpmath(profile):
    pts = JET_POINTS[profile.profile_id]
    t = np.array([p[0] for p in pts])
    c = np.array([p[1] for p in pts])
    jet = profile._t_jet(t, c)
    with mp.workdps(40):
        for k in (2, 4, 6):
            for i, (ti, ci) in enumerate(pts):
                ref = float(mp.diff(_mp_profile(profile.profile_id, mp.mpf(ci)),
                                    mp.mpf(ti), k))
                assert math.factorial(k) * jet[k][i] == pytest.approx(ref, rel=1e-9)


def _reference_norms(profile, r):
    """||P_r^(k)||_1 for each tail order k, by routes independent of
    smoothing._tail_majorants.

    ||P^(k)||_1 is twice the variation of P^(k-1) over [0, 1], and the sum
    of |P^(k-1)(t_{i+1}) - P^(k-1)(t_i)| over any partition is at most that
    variation, with equality when the partition holds every sign change of
    P^(k).  So each reference is a lower bound, and a tight one.  P^(k-1)
    vanishes at t = 1.
    - Ranks 1 and 3: P_1 = eta and P_3' = -2 pi t eta, differentiated by
      mpmath at 0 and at the sign changes of P^(k), which the jets locate
      on a scan of 20,000 midpoints (a misplaced point only lowers the sum).
    - Rank 2: P_2^(j)(t) = 2 int_0^L d_t^j eta du, L = sqrt(1 - t^2), by
      a dense double sum: 256 midpoints in u (the integrand is even in u
      and flat at u = L) at each of 1,024 points t = i/1024, from the jets
      that test_jet_derivatives_match_mpmath checks.
    """
    pid = profile.profile_id
    if r == 2:
        t = np.arange(1024) / 1024
        p = np.empty((smoothing._JET_ORDER + 1, t.size))
        for lo in range(0, t.size, 64):
            tb = t[lo:lo + 64, None]
            half = np.sqrt(1.0 - tb * tb)
            u = half * (np.arange(256) + 0.5) / 256
            g = profile._t_jet(np.broadcast_to(tb, u.shape), u)
            p[:, lo:lo + 64] = 2.0 * g.sum(axis=-1) * half[:, 0] / 256
        return {k: 2.0 * math.factorial(k - 1)
                * float(np.abs(np.diff(np.append(p[k - 1], 0.0))).sum())
                for k in smoothing._TAIL_ORDERS}
    t = (np.arange(20000) + 0.5) / 20000
    jet = profile._t_jet(t, np.zeros_like(t))
    eta = _mp_profile(pid, 0)
    out = {}
    with mp.workdps(30):
        for k in smoothing._TAIL_ORDERS:
            if r == 1:
                f, order, slope = eta, k - 1, jet[k]
            else:
                f, order, slope = (lambda x: x * eta(x)), k - 2, t * jet[k - 1] + jet[k - 2]
            turns = np.nonzero(np.sign(slope[:-1]) * np.sign(slope[1:]) < 0)[0]
            points = [0.0] + [0.5 * (t[i] + t[i + 1]) for i in turns]
            values = [mp.diff(f, mp.mpf(x), order) for x in points] + [0]
            variation = mp.fsum(abs(b - a) for a, b in zip(values[:-1], values[1:]))
            out[k] = float(2 * variation * (1 if r == 1 else 2 * mp.pi))
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_tail_majorants_above_reference(r, profile):
    got = smoothing.bump_transform(profile, r).majorants
    for k, ref in _reference_norms(profile, r).items():
        assert ref <= got[k] * (2 * math.pi) ** k <= 1.05 * ref, k


# C_k of smoothing._tail_majorants: proven bounds on ||P^(k)||_1 / (2 pi)^k
# that test_tail_majorants_above_reference checks; pinned so that any
# change to them shows
MAJORANTS = {
    ("paper_bump", 1): {2: 0.21990335877691808, 4: 1.876894578510179, 6: 234.88171158010795},
    ("paper_bump", 2): {2: 0.21938795785049733, 4: 0.7669149043334546, 6: 57.77322962767934},
    ("paper_bump", 3): {2: 0.22853038450043156, 4: 0.38512521816979745, 6: 15.734127804183158},
    ("plateau", 1): {2: 0.40528512126689853, 4: 6.4995179470361295, 6: 716.4438426111798},
    ("plateau", 2): {2: 0.3933145525218953, 4: 2.3294045351762653, 6: 170.0794782144773},
    ("plateau", 3): {2: 0.3740289260636395, 4: 0.9659025306207661, 6: 42.69127464347178},
}


@pytest.mark.parametrize("profile_id, r", sorted(MAJORANTS))
def test_tail_majorants_pinned(profile_id, r):
    got = smoothing.bump_transform(profile_id, r).majorants
    assert got.keys() == MAJORANTS[profile_id, r].keys()
    for k, ref in MAJORANTS[profile_id, r].items():
        assert got[k] == pytest.approx(ref, rel=1e-11)


def test_cli_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(wgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wgbound.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_bound_import_leaves_scipy_out():
    # groups, fourier, smoothing and bound need numpy only
    src = os.path.dirname(os.path.dirname(wgbound.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wgbound.bound; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_transform_against_dense_reference():
    # independent trapezoid evaluation of the radial integral, r=2
    profile = smoothing.bump_profile("paper_bump")
    tf = smoothing.bump_transform(profile, 2)
    ys = np.linspace(0.0, 1.0, 20001)
    for x in (0.7, 3.3, 17.0):
        from scipy.special import j0
        vals = profile.radial(ys) * j0(2 * math.pi * x * ys) * 2 * math.pi * ys
        ref = np.trapezoid(vals, ys)
        assert tf.evaluate(np.array([x]))[0] == pytest.approx(ref, abs=5e-9)


# about ten arguments per rank spanning [0, 80 pi], the range the tori use
ORACLE_ARGS = (0.0, 0.5, 2.2, 5.1, 11.0, 23.0, 47.0, 96.0, 170.0, 80.0 * math.pi)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_transform_against_mpmath(r):
    # the radial integral in mpmath: 2 int eta(y) cos(2 pi X y) dy in rank 1,
    # 2 pi int eta(y) J0(2 pi X y) y dy in rank 2 and
    # 4 pi int eta(y) sin(2 pi X y) / (2 pi X y) y^2 dy in rank 3, by
    # Gauss-Legendre panels (24 nodes, at least 0.3 X panels) whose own
    # error is below 1e-16; F's stated bound covers the difference
    tf = smoothing.bump_transform("paper_bump", r)
    got = tf.evaluate(np.array(ORACLE_ARGS))
    kernel = {1: lambda z, y: 2 * mp.cos(z),
              2: lambda z, y: 2 * mp.pi * mp.besselj(0, z) * y,
              3: lambda z, y: 4 * mp.pi * mp.sinc(z) * y * y}[r]
    gx, gw = np.polynomial.legendre.leggauss(24)
    with mp.workdps(20):
        for X, value in zip(ORACLE_ARGS, got):
            n = max(16, math.ceil(0.3 * X))
            ys = [(j + (1 + mp.mpf(xi)) / 2) / n for j in range(n) for xi in gx]
            ws = [mp.mpf(wi) / (2 * n) for wi in gw] * n
            ref = mp.fsum(w * mp.exp(-y * y / (1 - y * y)) * kernel(2 * mp.pi * X * y, y)
                          for y, w in zip(ys, ws))
            assert abs(value - float(ref)) <= tf.error, (X, value, ref)


@pytest.mark.parametrize("name, value, r", [
    ("_X_MAX", 2000.0, 1),       # arguments too close to the period: aliases
    ("_P_ORDERS", (2, 3), 2),    # the projection's quadrature not converged
])
def test_transform_table_checks_raise(monkeypatch, name, value, r):
    monkeypatch.setattr(smoothing, name, value)
    with pytest.raises(SolverError, match="not at rounding level"):
        smoothing._bump_transform_cached.__wrapped__("paper_bump", r)


def test_transform_value_independent_of_batch():
    tf = smoothing.bump_transform("paper_bump", 3)
    xs = np.linspace(0.0, 80.0 * math.pi, 101)
    batch = tf.evaluate(xs)
    assert np.array_equal(batch, [tf.evaluate(np.array([x]))[0] for x in xs])
    assert np.array_equal(batch[7:40], tf.evaluate(xs[7:40]))
    with pytest.raises(ValueError, match="tabulated"):
        tf.evaluate(np.array([1.0, 300.0]))


def test_weyl_density_coeffs():
    for gid in ("torus(1)", "torus(2)", "torus(3)"):
        assert smoothing.weyl_density_coeffs(groups.descriptor(gid)) \
            == {(0.0,) * groups.torus_dim(gid): 1}
    for gid in ("su2", "so3"):
        G = groups.descriptor(gid)
        dens = smoothing.weyl_density_coeffs(G)
        assert dens[(0.0,)] == G.weyl_order == 2
        offs = sorted(k[0] for k in dens if k != (0.0,))
        assert len(offs) == 2 and offs[0] == -offs[1]
        assert all(dens[(o,)] == -1 for o in offs)
        assert all(abs(c) <= G.weyl_order for c in dens.values())


def test_weyl_density_integrates_to_weyl_order(rank_one_group):
    # trapezoid over the torus angle of |e^{2 pi i a t} - 1|^2
    dens = smoothing.weyl_density_coeffs(rank_one_group)
    ts = np.arange(4096) / 4096
    total = np.zeros_like(ts, dtype=complex)
    for lam, c in dens.items():
        total += c * np.exp(2j * np.pi * lam[0] * ts)
    val = total.mean()
    assert val.real == pytest.approx(rank_one_group.weyl_order, abs=1e-10)
    assert abs(val.imag) < 1e-12


def test_kernel_degree(any_group):
    M = 4.0 * any_group.admissibility_threshold + 0.3
    assert smoothing.kernel_degree(any_group, M) == 4


@pytest.mark.parametrize("M", [5.0, 10.0, 20.0])
def test_kernel_coefficient_invariants(any_group, profile, M):
    if M < any_group.admissibility_threshold:
        pytest.skip("inadmissible")
    kc = smoothing.kernel_coefficients(any_group, M, profile)
    triv = groups.trivial_irrep(any_group)
    assert kc.coeffs[triv] == pytest.approx(1.0, abs=1e-12)
    for p, a in kc.coeffs.items():
        assert abs(a) <= p.dim + 1e-10
        assert p.weight_norm < M
    if profile.profile_id == "plateau":
        lim = any_group.a * kc.m0 / 2.0
        for p, a in kc.coeffs.items():
            if p.weight_norm <= lim:
                assert a == pytest.approx(p.dim, abs=1e-10)


def test_kernel_coefficients_below_threshold_raises():
    G = groups.descriptor("su2")
    with pytest.raises(ValueError, match="admissibility"):
        smoothing.kernel_coefficients(G, 1.4)


def test_kernel_json_schema():
    G = groups.descriptor("so3")
    kc = smoothing.kernel_coefficients(G, 6.0)
    d = kc.as_json_dict()
    assert d["group"] == "so3" and d["M0"] == kc.m0
    assert {e["label"][0] for e in d["entries"]} \
        == {p.label[0] for p in kc.coeffs}


def test_psi_decreases_in_m_for_plateau():
    G = groups.descriptor("su2")
    g = bound.ModulusOfContinuity.power(1.0)
    vals = [bound.psi(G, g, M, "plateau") for M in (5.0, 10.0, 20.0)]
    assert vals[0] > vals[1] > vals[2]


def test_smoothing_approximation_property(rank_one_group):
    # convolving with the kernel moves a Lipschitz class function by at
    # most psi(M)/2 in sup norm
    G = rank_one_group
    g = bound.ModulusOfContinuity.power(1.0)
    M = 12.0
    kc = smoothing.kernel_coefficients(G, M)
    pts, w = oracles.weyl_quadrature(G, 2 ** 14)
    e = groups.identity(G)
    dist = groups.pairwise_distance(G, e, pts[:: len(pts) // 512])[0]
    sample = pts[:: len(pts) // 512]
    f_all = np.minimum(
        2.0 * np.arccos(np.clip(np.abs(pts[:, 0]) if G.group_id == "so3"
                                else pts[:, 0], -1.0, 1.0)), 1.0)
    reps = groups.enumerate_irreps(G, M, include_trivial=True)
    coefs = oracles.class_coefficients(G, f_all, reps, quad=(pts, w))
    f_on_sample = np.minimum(dist, 1.0)
    smooth = np.zeros(len(sample), dtype=complex)
    for c, p in zip(coefs, reps):
        chi = oracles.characters(G, p, sample)
        smooth += c * (kc.coeffs[p] / p.dim) * chi
    sup_dev = float(np.max(np.abs(smooth.real - f_on_sample)))
    psi_val = bound.psi(G, g, M)
    assert sup_dev <= psi_val / 2.0 + 1e-6


def test_budget_interval_and_feasible_candidate():
    for n in (1, 2, 3):
        right = smoothing.budget_interval(n)
        assert 0.0 < right < 1.0
        assert (math.sqrt(17.0) - 3.0) / 2.0 < right


@pytest.mark.parametrize("n", [1, 2, 3])
def test_budget_boundary_limit_for_linear_modulus(n):
    g = bound.ModulusOfContinuity.power(1.0)
    for M in (2.0, 5.0, 10.0):
        assert bound.fourier_decay_budget(n, g, M) == pytest.approx(n, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_budget_closed_form_cap(n, p):
    g = bound.ModulusOfContinuity.power(p)
    c_star = (math.sqrt(17.0) - 3.0) / 2.0
    for M in (2.0, 5.0, 10.0):
        at_c = bound.fourier_decay_budget(n, g, M, c=c_star)
        assert at_c <= 9.0 * n ** (3 - 2 * p) * M ** (2 - 2 * p) + 1e-9
        inf = bound.fourier_decay_budget(n, g, M)
        assert inf <= at_c + 1e-12


def test_budget_rejects_out_of_range_c():
    g = bound.ModulusOfContinuity.power(0.5)
    with pytest.raises(ValueError, match="c"):
        bound.fourier_decay_budget(3, g, 5.0, c=smoothing.budget_interval(3))
    with pytest.raises(ValueError, match="c"):
        bound.fourier_decay_budget(3, g, 5.0, c=0.0)


def test_budget_dominates_band_energy_small():
    # module-scale version of the decay-budget dominance check
    G = groups.descriptor("su2")
    p_exp = 0.5
    g = bound.ModulusOfContinuity.power(p_exp)
    pts, w = oracles.weyl_quadrature(G, 2 ** 13)
    theta = 2.0 * np.arccos(np.clip(pts[:, 0], -1.0, 1.0))
    f = np.minimum(theta, 1.0) ** p_exp
    M = 5.0
    reps = groups.enumerate_irreps(G, M)
    coefs = oracles.class_coefficients(G, f, reps, quad=(pts, w))
    lhs = float(sum(p.casimir * abs(c) ** 2 for c, p in zip(coefs, reps)))
    assert lhs <= bound.fourier_decay_budget(3, g, M)
