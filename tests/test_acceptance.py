"""End-to-end acceptance gate: one test per shipped guarantee.

Each test checks a stated numerical guarantee at its stated tolerance and
is reported as a single ACCEPTANCE PASS/FAIL line in the terminal summary.
"""
import math
import time

import numpy as np
import pytest

from wgbound import bound, fourier, groups, oracles, smoothing, transport, walks

from conftest import harmonic_block, random_measure

LINEAR = bound.ModulusOfContinuity.power(1.0)
G_T1 = groups.descriptor("torus(1)")
G_SU2 = groups.descriptor("su2")
G_SO3 = groups.descriptor("so3")

# per-group cutoff used for the 10-value admissible grids in test 01; the
# top end keeps exact block enumeration cheap on the rank-one groups
_TRIAL_M_MAX = {"torus(1)": 150.0, "torus(2)": 40.0, "su2": 24.0,
                "so3": 24.0}


def _log_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def test_01_certified_dominance_trials():
    t0 = time.time()
    group_ids = ("torus(1)", "torus(2)", "su2", "so3")
    violations = []
    trial = 0
    for gid in group_ids:
        G = groups.descriptor(gid)
        grid = np.geomspace(G.admissibility_threshold * 1.02,
                            _TRIAL_M_MAX[gid], 10)
        for _ in range(25):
            rng = np.random.default_rng(9_000_000 + trial)
            n1, n2 = (int(v) for v in rng.integers(2, 65, size=2))
            nu1 = random_measure(G, n1, 77_000 + 13 * trial)
            nu2 = random_measure(G, n2, 78_000 + 13 * trial)
            p = 0.5 if trial % 2 == 0 else 1.0
            g = bound.ModulusOfContinuity.power(p)
            cost = transport.exact_wasserstein(G, g, nu1, nu2).cost
            sweep = bound.CutoffSweep(G, g, "paper_bump", grid)
            fs = sweep.fourier_sums(nu1, nu2)
            for i, M in enumerate(grid):
                rep = sweep.report(i, fs[i])
                if rep.total + rep.tolerance + transport.GAP_TOL < cost:
                    violations.append((gid, trial, float(M), rep.total, cost))
            trial += 1
    assert trial == 100
    assert not violations, violations[:5]
    assert time.time() - t0 <= 600.0


def test_02_lps_gap_golden_value():
    t0 = time.time()
    nu = walks.lps_generators(5).measure()
    gap = fourier.spectral_gap_estimate(G_SO3, nu, 25.5)
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    irreps = groups.enumerate_irreps(G_SO3, 25.5)
    assert [p.label for p in irreps] == [(ell,) for ell in range(1, 26)]
    spectra = [np.linalg.svd(fourier.measure_transform(G_SO3, nu, p),
                             compute_uv=False) for p in irreps]
    # Lubotzky-Phillips-Sarnak: every nontrivial block of the norm-p set has
    # operator norm at most 2 sqrt(p) / (p + 1), i.e. sqrt(5)/3 for p = 5;
    # the bound is approached as ell grows but attained at no finite ell
    assert max(s[0] for s in spectra) <= math.sqrt(5.0) / 3.0 + 1e-12
    # independent spherical-harmonic oracle; whole singular spectra, so a
    # wrong matrix entry shows even where the top singular vectors vanish
    oracle = [np.linalg.svd(harmonic_block(nu.atoms, nu.weights, ell),
                            compute_uv=False) for ell in range(1, 26)]
    for ell, (s, o) in enumerate(zip(spectra, oracle), start=1):
        assert np.max(np.abs(s - o)) <= 1e-9, ell
    tops = [float(o[0]) for o in oracle]
    assert int(np.argmax(tops)) + 1 == 21
    assert gap == pytest.approx(max(tops), abs=1e-9)


def test_03_kernel_coefficient_invariants():
    for gid in ("torus(1)", "torus(2)", "torus(3)", "su2", "so3"):
        G = groups.descriptor(gid)
        for profile_id in smoothing.PROFILE_IDS:
            for M in (5.0, 10.0, 20.0):
                kc = smoothing.kernel_coefficients(G, M, profile_id)
                norms = np.concatenate(([0.0], groups.spectral_data(G, M)["weight_norm"]))
                assert kc.labels[0].tolist() == [0] * G.r and kc.dims[0] == 1
                assert abs(kc.a[0] - 1.0) <= 1e-12, (gid, profile_id, M)
                assert np.all(np.abs(kc.a) <= kc.dims + 1e-10), (gid, profile_id, M)
                if profile_id == "plateau":
                    flat = norms <= G.a * kc.m0 / 2.0
                    assert np.all(np.abs(kc.a - kc.dims)[flat] <= 1e-10), (gid, M)


def test_04_representation_theory_oracles():
    # finite-difference Laplacian eigenvalue residuals
    for G in (G_SU2, G_SO3, G_T1):
        cutoff = 6.0 + 1e-9 if G.group_id != "torus(1)" else 2 * math.pi * 6 + 1e-9
        reps = [p for p in groups.enumerate_irreps(G, cutoff + 0.4)
                if (p.weight_norm <= cutoff if G.group_id != "torus(1)"
                    else abs(p.label[0]) <= 6)]
        assert reps
        for p in reps:
            assert oracles.casimir_residual(G, p, h=1e-3) <= 1e-5, p.label
    # character orthonormality under the class quadrature
    for gid in ("torus(1)", "torus(2)", "torus(3)", "su2", "so3"):
        G = groups.descriptor(gid)
        pts, w = oracles.weyl_quadrature(G, 2 ** 14)
        reps = ([groups.trivial_irrep(G)] + groups.enumerate_irreps(G, 5.0))[:4]
        chars = [oracles.characters(G, p, pts) for p in reps]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                val = np.sum(w * ci * np.conj(cj))
                assert abs(val - (1.0 if i == j else 0.0)) <= 1e-8, gid
    # Parseval on band-limited class functions
    for G in (G_SU2, G_SO3, G_T1):
        reps = groups.enumerate_irreps(G, 4.0 if G.group_id != "torus(1)"
                                       else 30.0)
        rng = np.random.default_rng(404)
        b = rng.normal(size=len(reps))
        pts, w = oracles.weyl_quadrature(G, 2 ** 14)
        f = np.zeros(len(pts), dtype=complex)
        for coef, p in zip(b, reps):
            f += coef * oracles.characters(G, p, pts)
        l2 = float(np.real(np.sum(w * np.abs(f) ** 2)))
        assert abs(l2 - float(np.sum(b ** 2))) <= 1e-8, G.group_id


def test_05_derived_rep_lemma_suite():
    rng = np.random.default_rng(505)
    pool = [(G_SU2, p) for p in groups.enumerate_irreps(G_SU2, 6.0 + 1e-9)]
    pool += [(G_SO3, p) for p in groups.enumerate_irreps(G_SO3, 6.0 + 1e-9)]
    assert max(p.weight_norm for _, p in pool) == 6.0
    basis = np.eye(3)
    for _ in range(1000):
        G, p = pool[int(rng.integers(len(pool)))]
        X = rng.normal(size=3)
        u = float(rng.uniform(-1.0, 1.0))
        lam = p.weight_norm
        eye = np.eye(p.dim)
        # operator norm of the derived representation
        D = oracles.derived_rep(G, p, X)
        assert np.linalg.norm(D, 2) <= lam * np.linalg.norm(X) + 1e-8
        # first-order Taylor remainder of the one-parameter subgroup
        U = fourier.irrep_matrices(G, p, groups.exp_map(G, u * X)[None, :])[0]
        rem = np.linalg.norm(U - eye - u * D, 2)
        assert rem <= 0.5 * u * u * np.linalg.norm(D, 2) ** 2 + 1e-8
        # discrete Laplace increment identity with cubic/quartic error cap
        acc = np.zeros((p.dim, p.dim), dtype=complex)
        for Uk in fourier.irrep_matrices(G, p, groups.exp_map(G, u * basis)):
            A = Uk - eye
            acc += A.conj().T @ A
        E = acc - u * u * p.casimir * eye
        cap = 3 * abs(u) ** 3 * lam ** 3 + 3 * (u ** 4 / 4.0) * lam ** 4
        assert np.linalg.norm(E, 2) <= cap + 1e-8


def test_06_fourier_decay_budget():
    # spectral-sum dominance for the clipped-distance power function
    pts, w = oracles.weyl_quadrature(G_SU2, 2 ** 14)
    e = np.array([[1.0, 0.0, 0.0, 0.0]])
    dist = groups.pairwise_distance(G_SU2, pts, e)[:, 0]
    for p_exp in (0.5, 1.0):
        g = bound.ModulusOfContinuity.power(p_exp)
        f = np.minimum(dist, 1.0) ** p_exp
        for M in (2.0, 5.0, 10.0):
            reps = groups.enumerate_irreps(G_SU2, M)
            coefs = oracles.class_coefficients(G_SU2, f, reps, quad=(pts, w))
            lhs = float(np.sum([p.casimir * abs(c) ** 2
                                for p, c in zip(reps, coefs)]))
            budget = bound.fourier_decay_budget(3, g, M)
            assert lhs <= budget + 1e-9, (p_exp, M, lhs, budget)
    # closed-form cap at the explicit budget parameter
    c_star = (math.sqrt(17.0) - 3.0) / 2.0
    for n in (1, 2, 3):
        for p_exp in (0.5, 1.0):
            g = bound.ModulusOfContinuity.power(p_exp)
            for M in (2.0, 5.0, 10.0):
                at_c = bound.fourier_decay_budget(n, g, M, c=c_star)
                cap = 9.0 * n ** (3.0 - 2.0 * p_exp) * M ** (2.0 - 2.0 * p_exp)
                assert at_c <= cap + 1e-9, (n, p_exp, M)
                assert bound.fourier_decay_budget(n, g, M) <= at_c + 1e-12


def test_07_rate_slopes():
    # (a) empirical-measure bound decay in the sample size
    rows = walks.empirical_experiment(
        G_SO3, "haar", [2 ** k for k in range(5, 12)], 20, LINEAR,
        seed=20260814, m_cap=128.0, with_oracle=False)
    slope_a = _log_slope([r.N for r in rows], [r.bound_mean for r in rows])
    assert -0.45 <= slope_a <= -0.22, slope_a
    budget = 1.0 + 3.0 / math.sqrt(20.0)
    assert all(r.max_variance_ratio <= budget for r in rows)
    # (b) quantization error of random codebooks
    sizes = [2 ** k for k in range(5, 12)]
    values = []
    for N in sizes:
        A = groups.haar_sample(G_SO3, 555_000 + N, N)
        values.append(oracles.voronoi_quantization(
            G_SO3, LINEAR, A, 2 ** 15, seed=9_000 + N).value)
    slope_b = _log_slope(sizes, values)
    assert -0.45 <= slope_b <= -0.22, slope_b
    # (c) gap-relaxed bound scaling in the spectral gap, small-q regime
    qs = np.geomspace(1e-3, 0.05, 6)
    for G in (G_SU2, G_SO3):
        for p_exp in (0.5, 1.0):
            g = bound.ModulusOfContinuity.power(p_exp)
            totals = [bound.optimized_gap_bound(G, g, float(q))[1].total
                      for q in qs]
            slope_c = _log_slope(qs, totals)
            target = 2.0 * p_exp / 3.0
            assert abs(slope_c - target) <= 0.25 * target, \
                (G.group_id, p_exp, slope_c)


def test_08_walk_decay():
    # expanding rotation set: geometric decay of the optimized totals
    states = walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(),
                               40, 25.5, g=LINEAR,
                               q_hint=math.sqrt(5.0) / 3.0)
    rt = [s.relaxed_total for s in states]
    assert all(v is not None for v in rt)
    for k in range(4, 40):  # steps 5..40 against their predecessors
        assert rt[k] / rt[k - 1] <= 0.9, (k + 1, rt[k] / rt[k - 1])
    # golden-ratio rotation on the circle: polynomial regime instead
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.0], [golden]])
    torus_states = walks.walk_evolve(G_T1, nu, 64, 200.0)
    ts = [s.exact_total for s in torus_states]
    slope = _log_slope(range(8, 65), ts[7:])
    assert -0.6 <= slope <= -0.1, slope
    assert ts[-1] / ts[-2] > 0.95  # per-step ratio near 1, not geometric


def test_09_transport_oracle_integrity():
    for trial in range(100):
        rng = np.random.default_rng(3_000 + trial)
        nu1 = random_measure(G_T1, int(rng.integers(2, 33)), 40_000 + trial)
        nu2 = random_measure(G_T1, int(rng.integers(2, 33)), 50_000 + trial)
        plan = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)
        f, h = plan.dual_potentials
        dual = float(f @ nu1.weights + h @ nu2.weights)
        assert abs(plan.cost - dual) <= 1e-9
        assert abs(transport.circle_w1(nu1, nu2) - plan.cost) <= 1e-10
    for G in (G_SU2, G_SO3):
        nu1 = random_measure(G, 64, 60_001)
        nu2 = random_measure(G, 64, 60_002)
        exact = transport.exact_wasserstein(G, LINEAR, nu1, nu2).cost
        approx = transport.sinkhorn(G, LINEAR, nu1, nu2, eps=1e-3).cost
        assert abs(approx - exact) <= 0.01 * exact, G.group_id


def test_10_phi_closed_form():
    ts = (0.3, 1.0, 3.7, 10.0, 120.0)
    for n in (1, 2, 3):
        for t in ts:
            assert abs(bound.phi(n, LINEAR, t) - math.sqrt(n)) <= 1e-10
    for p_exp in (0.3, 0.5, 0.8):
        g = bound.ModulusOfContinuity.power(p_exp)
        for n in (1, 2, 3):
            base = bound.phi(n, g, 1.0)
            for t in ts:
                assert abs(bound.phi(n, g, t) * t ** (p_exp - 1.0) - base) \
                    <= 1e-10
