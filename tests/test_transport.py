"""Exact transport (assignment and LP routes), entropic approximation, circle
formula, estimators."""
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from wgbound import bound, fourier, groups, oracles, transport
from wgbound._util import SolverError

from conftest import random_measure

G_T1 = groups.descriptor("torus(1)")
G_SU2 = groups.descriptor("su2")
LINEAR = bound.ModulusOfContinuity.power(1.0)


def delta(G, atom):
    return fourier.DiscreteMeasure.uniform(G, np.atleast_2d(atom))


class TestExactWasserstein:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (3, 5), (64, 128), (7, 2)])
    def test_marginal_constraints_match_loops(self, n1, n2):
        ii, jj = [], []
        for i in range(n1):
            ii.extend([i] * n2)
            jj.extend(range(i * n2, (i + 1) * n2))
        for j in range(n2):
            ii.extend([n1 + j] * n1)
            jj.extend(range(j, n1 * n2, n2))
        ref = np.zeros((n1 + n2, n1 * n2))
        ref[ii, jj] = 1.0
        # a repeated (row, column) pair would sum to 2 in the sparse matrix
        assert np.array_equal(transport._marginal_constraints(n1, n2).toarray(), ref)

    def test_self_distance_zero(self, any_group):
        nu = random_measure(any_group, 5, 1)
        plan = transport.exact_wasserstein(any_group, LINEAR, nu, nu)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)
        assert plan.status == "optimal"
        np.testing.assert_allclose(plan.coupling, np.diag(nu.weights), atol=1e-12)

    def test_point_masses(self, any_group):
        x, y = groups.haar_sample(any_group, 2, 2)
        d = groups.pairwise_distance(any_group, x, y)[0, 0]
        for g in (LINEAR, bound.ModulusOfContinuity.power(0.5)):
            plan = transport.exact_wasserstein(any_group, g, delta(any_group, x),
                                               delta(any_group, y))
            assert plan.cost == pytest.approx(float(g(d)), abs=1e-12)

    def test_two_atom_brute_force(self):
        nu1 = fourier.DiscreteMeasure.uniform(G_T1, [[0.0], [0.5]])
        nu2 = fourier.DiscreteMeasure.uniform(G_T1, [[0.25], [0.75]])
        plan = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)
        assert plan.cost == pytest.approx(0.25, abs=1e-12)
        # brute force over the one-parameter coupling polytope
        C = LINEAR(groups.pairwise_distance(G_T1, nu1.atoms, nu2.atoms))
        best = min(
            float((C * np.array([[t, 0.5 - t], [0.5 - t, t]])).sum())
            for t in np.linspace(0.0, 0.5, 2001))
        assert plan.cost == pytest.approx(best, abs=1e-6)

    def test_marginals_and_duality_certificate(self, any_group):
        nu1 = random_measure(any_group, 7, 3)
        nu2 = random_measure(any_group, 5, 4)
        plan = transport.exact_wasserstein(any_group, LINEAR, nu1, nu2)
        np.testing.assert_allclose(plan.coupling.sum(axis=1), nu1.weights,
                                   atol=transport.MARGINAL_TOL)
        np.testing.assert_allclose(plan.coupling.sum(axis=0), nu2.weights,
                                   atol=transport.MARGINAL_TOL)
        f, h = plan.dual_potentials
        dual = float(f @ nu1.weights + h @ nu2.weights)
        assert abs(plan.cost - dual) <= transport.GAP_TOL
        C = LINEAR(groups.pairwise_distance(any_group, nu1.atoms, nu2.atoms))
        assert np.all(f[:, None] + h[None, :] <= C + 1e-9)

    @pytest.mark.parametrize("gid", ["su2", "torus(2)"])
    def test_dual_potentials_feasible(self, gid):
        G = groups.descriptor(gid)
        # weighted pairs go to HiGHS, uniform pairs of divisible sizes to
        # the assignment route
        for n1, n2, weighted in ((24, 17, True), (24, 12, False), (16, 16, False)):
            for seed in range(3):
                nu1 = random_measure(G, n1, 2 * seed, weighted)
                nu2 = random_measure(G, n2, 2 * seed + 1, weighted)
                plan = transport.exact_wasserstein(G, LINEAR, nu1, nu2)
                f, h = plan.dual_potentials
                C = LINEAR(groups.pairwise_distance(G, nu1.atoms, nu2.atoms))
                assert np.max(f[:, None] + h[None, :] - C) \
                    <= transport.GAP_TOL * max(1.0, C.max())
                dual = float(f @ nu1.weights + h @ nu2.weights)
                assert abs(plan.cost - dual) <= transport.GAP_TOL

    def test_infeasible_dual_rejected(self, monkeypatch):
        # one row dual raised by 5e-9 moves b.y by only 5e-10, inside the
        # duality-gap tolerance, but breaks f_0 + h_j <= C_0j where row 0
        # ships mass; costs on the circle are at most 1/2
        rng = np.random.default_rng(4)
        nu1 = fourier.DiscreteMeasure.uniform(G_T1, rng.random((10, 1)))
        nu2 = fourier.DiscreteMeasure.uniform(G_T1, rng.random((7, 1)))
        real = transport.linprog

        def raised(*args, **kwargs):
            res = real(*args, **kwargs)
            y = np.array(res.eqlin.marginals, dtype=float)
            y[0] += 5e-9
            res.eqlin.marginals = y
            return res

        monkeypatch.setattr(transport, "linprog", raised)
        with pytest.raises(SolverError, match="infeasible"):
            transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)

    def test_suboptimal_assignment_rejected(self, monkeypatch):
        # a swap of the columns assigned to the first and last rows, which
        # are copies of different atoms, leaves a plan that is not optimal,
        # so its Bellman-Ford duals cannot certify it
        nu1 = random_measure(G_SU2, 16, 70, weighted=False)
        nu2 = random_measure(G_SU2, 32, 71, weighted=False)
        real = transport.linear_sum_assignment

        def swapped(C):
            r, c = real(C)
            c = c.copy()
            c[[0, -1]] = c[[-1, 0]]
            return r, c

        monkeypatch.setattr(transport, "linear_sum_assignment", swapped)
        with pytest.raises(SolverError, match="gap|infeasible"):
            transport.exact_wasserstein(G_SU2, LINEAR, nu1, nu2)

    @pytest.mark.parametrize("n1,n2,weighted,route", [
        (4, 8, False, "assignment"), (6, 3, False, "assignment"),
        (10, 7, False, "lp"), (4, 8, True, "lp")])
    def test_route_choice(self, monkeypatch, n1, n2, weighted, route):
        nu1 = random_measure(G_SU2, n1, 72, weighted)
        nu2 = random_measure(G_SU2, n2, 73, weighted)

        def unused(*args, **kwargs):
            raise AssertionError("wrong route")

        other = "linprog" if route == "assignment" else "linear_sum_assignment"
        monkeypatch.setattr(transport, other, unused)
        assert transport.exact_wasserstein(G_SU2, LINEAR, nu1, nu2).cost > 0

    def test_metric_axioms(self, any_group):
        a = random_measure(any_group, 4, 10)
        b = random_measure(any_group, 4, 11)
        c = random_measure(any_group, 4, 12)
        W = lambda x, y: transport.exact_wasserstein(any_group, LINEAR, x, y).cost
        assert W(a, b) == pytest.approx(W(b, a), abs=1e-9)
        assert W(a, b) <= W(a, c) + W(c, b) + 1e-9

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_power_distance_below_w1_power(self, any_group, p):
        nu1 = random_measure(any_group, 5, 20)
        nu2 = random_measure(any_group, 6, 21)
        wp = transport.exact_wasserstein(
            any_group, bound.ModulusOfContinuity.power(p), nu1, nu2).cost
        w1 = transport.exact_wasserstein(any_group, LINEAR, nu1, nu2).cost
        assert wp <= w1 ** p + 1e-9

    def test_zero_weight_atoms_dropped(self):
        nu1 = fourier.DiscreteMeasure("torus(1)", [[0.1], [0.6]], [1.0, 0.0])
        nu2 = delta(G_T1, [0.2])
        plan = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)
        assert plan.cost == pytest.approx(0.1, abs=1e-12)
        assert plan.coupling[1].sum() == 0.0

    def test_size_limit(self):
        big = random_measure(G_T1, 1001, 5)
        other = random_measure(G_T1, 1000, 6)
        with pytest.raises(ValueError, match="size"):
            transport.exact_wasserstein(G_T1, LINEAR, big, other)

    def test_plan_json(self):
        nu1 = random_measure(G_T1, 3, 30)
        nu2 = random_measure(G_T1, 3, 31)
        plan = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)
        d = plan.as_json_dict()
        assert d["status"] == "optimal"
        total = sum(t[2] for t in d["coupling"])
        assert total == pytest.approx(1.0, abs=1e-10)


class TestAssignmentRoute:
    """Uniform pairs of divisible sizes, solved as an assignment problem."""

    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 2), (3, 6), (4, 4), (5, 5),
                                       (6, 6), (6, 2)])
    def test_brute_force_permutations(self, any_group, n1, n2):
        nu1 = random_measure(any_group, n1, 80 + n1, weighted=False)
        nu2 = random_measure(any_group, n2, 90 + n2, weighted=False)
        C = LINEAR(groups.pairwise_distance(any_group, nu1.atoms, nu2.atoms))
        L = max(n1, n2)
        big = np.repeat(np.repeat(C, L // n1, axis=0), L // n2, axis=1)
        best = min(big[np.arange(L), list(p)].mean()
                   for p in itertools.permutations(range(L)))
        plan = transport.exact_wasserstein(any_group, LINEAR, nu1, nu2)
        assert plan.cost == pytest.approx(best, abs=1e-12)
        assert float((C * plan.coupling).sum()) == pytest.approx(best, abs=1e-12)

    def test_circle_formula(self):
        for trial in range(20):
            rng = np.random.default_rng(800 + trial)
            n1 = int(rng.integers(1, 17))
            n2 = n1 * int(rng.integers(1, 5))
            if trial % 2:
                n1, n2 = n2, n1
            nu1 = random_measure(G_T1, n1, 810 + trial, weighted=False)
            nu2 = random_measure(G_T1, n2, 830 + trial, weighted=False)
            plan = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2)
            assert transport.circle_w1(nu1, nu2) == pytest.approx(plan.cost,
                                                                  abs=1e-10)

    def test_duplicates_and_ties(self, any_group):
        # empirical picks from a uniform source repeat atoms, so rows of C
        # repeat and many assignments tie
        source = random_measure(any_group, 12, 95, weighted=False)
        for seed in range(4):
            picks = np.random.default_rng(seed).choice(12, size=6)
            nu_bar = fourier.DiscreteMeasure.uniform(any_group,
                                                     source.atoms[picks])
            plan = transport.exact_wasserstein(any_group, LINEAR, nu_bar, source)
            C = LINEAR(groups.pairwise_distance(any_group, nu_bar.atoms, source.atoms))
            assert plan.cost == pytest.approx(_linprog_cost(C), abs=1e-12)
        # a lattice against its half-step shift: every atom has two nearest
        # atoms at the same distance
        n = 8
        lattice = fourier.DiscreteMeasure.uniform(G_T1, np.arange(n)[:, None] / n)
        shifted = fourier.DiscreteMeasure.uniform(
            G_T1, (np.arange(2 * n)[:, None] + 0.5) / (2 * n))
        plan = transport.exact_wasserstein(G_T1, LINEAR, lattice, shifted)
        assert plan.cost == pytest.approx(transport.circle_w1(lattice, shifted),
                                          abs=1e-12)

    @pytest.mark.parametrize("n1", [16, 64])
    def test_against_linprog(self, n1):
        nu1 = random_measure(G_SU2, n1, 96, weighted=False)
        nu2 = random_measure(G_SU2, 128, 97, weighted=False)
        C = LINEAR(groups.pairwise_distance(G_SU2, nu1.atoms, nu2.atoms))
        plan = transport.exact_wasserstein(G_SU2, LINEAR, nu1, nu2)
        assert plan.cost == pytest.approx(_linprog_cost(C), abs=1e-12)


def _linprog_cost(C):
    """Uniform transport cost by an LP built from dense marginal rows."""
    n1, n2 = C.shape
    A = np.vstack([np.kron(np.eye(n1), np.ones(n2)),
                   np.kron(np.ones(n1), np.eye(n2))])
    b = np.concatenate([np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)])
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0.0, None), method="highs")
    assert res.success
    return float(res.fun)


class TestSinkhorn:
    def test_close_to_exact(self):
        nu1 = random_measure(G_SU2, 24, 40)
        nu2 = random_measure(G_SU2, 24, 41)
        exact = transport.exact_wasserstein(G_SU2, LINEAR, nu1, nu2).cost
        approx = transport.sinkhorn(G_SU2, LINEAR, nu1, nu2, eps=1e-3)
        assert approx.status == "approx(0.001)"
        assert abs(approx.cost - exact) / exact < 0.01
        np.testing.assert_allclose(approx.coupling.sum(axis=1), nu1.weights,
                                   atol=1e-8)
        np.testing.assert_allclose(approx.coupling.sum(axis=0), nu2.weights,
                                   atol=1e-8)

    def test_entropic_bias_ordering(self):
        nu1 = random_measure(G_T1, 12, 42)
        nu2 = random_measure(G_T1, 12, 43)
        hi = transport.sinkhorn(G_T1, LINEAR, nu1, nu2, eps=1e-2).cost
        lo = transport.sinkhorn(G_T1, LINEAR, nu1, nu2, eps=1e-3).cost
        assert hi >= lo - 1e-6

    def test_self_cost_vanishes_with_eps(self):
        nu = random_measure(G_T1, 8, 44)
        cost = transport.sinkhorn(G_T1, LINEAR, nu, nu, eps=1e-4).cost
        assert cost <= 1e-3

    def test_nonconvergence_raises(self):
        nu1 = random_measure(G_T1, 16, 45)
        nu2 = random_measure(G_T1, 16, 46)
        with pytest.raises(SolverError, match="converge"):
            transport.sinkhorn(G_T1, LINEAR, nu1, nu2, eps=1e-4, max_iter=3)

    def test_eps_validation(self):
        nu = random_measure(G_T1, 3, 47)
        with pytest.raises(ValueError):
            transport.sinkhorn(G_T1, LINEAR, nu, nu, eps=0.0)


class TestCircleW1:
    def test_antipodal_points(self):
        assert transport.circle_w1(delta(G_T1, [0.0]), delta(G_T1, [0.5])) \
            == pytest.approx(0.5, abs=1e-15)

    def test_matches_lp_on_random_pairs(self):
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            nu1 = random_measure(G_T1, int(rng.integers(2, 20)), 600 + trial)
            nu2 = random_measure(G_T1, int(rng.integers(2, 20)), 700 + trial)
            lp = transport.exact_wasserstein(G_T1, LINEAR, nu1, nu2).cost
            assert transport.circle_w1(nu1, nu2) == pytest.approx(lp, abs=1e-10)

    def test_wraparound_beats_naive_shift(self):
        # mass at 0.05 vs 0.95: around the seam, not across
        assert transport.circle_w1(delta(G_T1, [0.05]), delta(G_T1, [0.95])) \
            == pytest.approx(0.1, abs=1e-15)

    def test_lattice_against_fine_lattice(self):
        n, m = 16, 4096
        coarse = fourier.DiscreteMeasure.uniform(G_T1, np.arange(n)[:, None] / n)
        fine = fourier.DiscreteMeasure.uniform(G_T1, np.arange(m)[:, None] / m)
        w = transport.circle_w1(coarse, fine)
        assert w <= 1.0 / (2 * n) + 1.0 / (2 * m)
        assert w == pytest.approx(1.0 / (4 * n), abs=1.0 / (4 * m))

    def test_rejects_other_groups(self):
        nu = random_measure(G_SU2, 3, 48)
        with pytest.raises(ValueError):
            transport.circle_w1(nu, nu)


class TestHaarOracle:
    def test_zero_modulus(self):
        g0 = bound.ModulusOfContinuity.table([1.0], [0.0])
        nu = random_measure(G_SU2, 3, 50)
        est = oracles.haar_oracle_distance(G_SU2, g0, nu, 8, 4, seed=1)
        assert est.estimate == pytest.approx(0.0, abs=1e-12)

    def test_band_shrinks_with_reps(self):
        nu = random_measure(G_SU2, 4, 51, weighted=False)
        widths = {}
        for reps in (16, 64):
            med = []
            for s in (0, 1, 2):
                est = oracles.haar_oracle_distance(G_SU2, LINEAR, nu, 8,
                                                   reps, seed=s)
                med.append(est.band[1] - est.band[0])
            widths[reps] = float(np.median(med))
        assert widths[64] >= widths[16]  # more reps widen min/max envelopes
        for reps in (16, 64):
            assert widths[reps] > 0

    def test_self_scale_sanity(self):
        n_samples = 32
        atoms = groups.haar_sample(G_SU2, 77, n_samples)
        nu = fourier.DiscreteMeasure.uniform(G_SU2, atoms)
        est = oracles.haar_oracle_distance(G_SU2, LINEAR, nu, n_samples,
                                           8, seed=3)
        scale = float(n_samples ** (-1.0 / 3.0))
        assert 0.5 * scale < est.estimate < 8.0 * scale

    def test_sample_size_validation(self):
        nu = random_measure(G_SU2, 9, 52)
        with pytest.raises(ValueError, match="n_samples"):
            oracles.haar_oracle_distance(G_SU2, LINEAR, nu, 4, 2, seed=0)


class TestVoronoiQuantization:
    def test_decreases_with_denser_sets(self):
        small = groups.haar_sample(G_SU2, 60, 128)
        dense = groups.haar_sample(G_SU2, 60, 1024)
        v_small = oracles.voronoi_quantization(G_SU2, LINEAR, small,
                                               2 ** 13, seed=9).value
        v_dense = oracles.voronoi_quantization(G_SU2, LINEAR, dense,
                                               2 ** 13, seed=9).value
        assert v_dense < v_small

    def test_weighted_measure_consistency(self):
        G = groups.descriptor("so3")
        A = groups.haar_sample(G, 61, 12)
        est = oracles.voronoi_quantization(G, LINEAR, A, 2 ** 13, seed=10,
                                           return_cell_masses=True)
        assert est.cell_masses is not None
        assert est.cell_masses.sum() == pytest.approx(1.0, abs=1e-12)
        nu = fourier.DiscreteMeasure(G.group_id, A, est.cell_masses)
        oracle = oracles.haar_oracle_distance(G, LINEAR, nu, 64, 4, seed=11)
        assert oracle.estimate >= est.value - 3.0 * est.stderr

    def test_stderr_reported(self):
        A = groups.haar_sample(G_SU2, 62, 6)
        est = oracles.voronoi_quantization(G_SU2, LINEAR, A, 2 ** 12, seed=12)
        assert est.value > 0 and 0 < est.stderr < est.value
        assert est.n_samples == 2 ** 12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            oracles.voronoi_quantization(G_SU2, LINEAR, np.zeros((0, 4)),
                                         64, seed=0)

    def test_row_blocks_match_full_matrix(self, monkeypatch):
        # 64-row blocks against one distance matrix per chunk of 2^14
        # samples, over two chunks
        G = groups.descriptor("so3")
        A = groups.haar_sample(G, 63, 40)
        n = 20000
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 100 * A.shape[0])
        est = oracles.voronoi_quantization(G, LINEAR, A, n, seed=13,
                                           return_cell_masses=True)
        seeds = np.random.SeedSequence(13).generate_state(2)
        pts = [groups.haar_sample(G, int(s), k) for s, k in zip(seeds, (1 << 14, n - (1 << 14)))]
        dists = [groups.pairwise_distance(G, x, A) for x in pts]
        nearest = np.concatenate([d.argmin(axis=1) for d in dists])
        vals = np.concatenate([d.min(axis=1) for d in dists])
        assert np.array_equal(est.cell_masses, np.bincount(nearest, minlength=40) / n)
        assert est.value == pytest.approx(vals.mean(), rel=1e-13)
