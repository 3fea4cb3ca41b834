"""Rotation-set walks, empirical sweeps, and equidistribution audits."""
import math
import os

import numpy as np
import pytest

from wgbound import bound, fourier, groups, transport, walks
from wgbound._util import SolverError

from conftest import harmonic_block, random_measure

G_SO3 = groups.descriptor("so3")
G_SU2 = groups.descriptor("su2")
G_T1 = groups.descriptor("torus(1)")
LINEAR = bound.ModulusOfContinuity.power(1.0)
# max op norm over ell <= 25 of the norm-5 set, attained at ell = 21, from a
# 40-digit evaluation of the block; the spherical-harmonic oracle
# (conftest.harmonic_block) reproduces it
GAP_P5 = 0.7234064013664599
DATA_P5 = os.path.join(os.path.dirname(walks.__file__), "data",
                       "lps_p5_so3.csv")


class TestLpsGenerators:
    def test_p5_canonical_set(self):
        lps = walks.lps_generators(5)
        assert lps.size == 6 and lps.symmetric
        s = math.sqrt(5)
        expected = {(1 / s, b / s, c / s, d / s)
                    for b, c, d in [(2, 0, 0), (-2, 0, 0), (0, 2, 0),
                                    (0, -2, 0), (0, 0, 2), (0, 0, -2)]}
        got = {tuple(np.round(q, 12)) for q in lps.rotations}
        assert got == {tuple(np.round(q, 12)) for q in expected}

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_size_is_p_plus_one(self, p):
        lps = walks.lps_generators(p)
        assert lps.rotations.shape == (p + 1, 4)
        norms = np.linalg.norm(lps.rotations, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", [4, 7, 21, 10009])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            walks.lps_generators(p)

    def test_primality_matches_sieve(self):
        top = 10 ** 4
        sieve = np.ones(top + 1, dtype=bool)
        sieve[:2] = False
        for d in range(2, math.isqrt(top) + 1):
            if sieve[d]:
                sieve[d * d::d] = False
        assert [walks._is_prime(n) for n in range(top + 1)] == sieve.tolist()

    def test_closed_under_inverse(self):
        lps = walks.lps_generators(13)
        inv = groups.inverse(G_SO3, lps.rotations)
        dists = groups.pairwise_distance(G_SO3, inv, lps.rotations)
        assert np.max(dists.min(axis=1)) < 1e-12

    def test_measure(self):
        nu = walks.lps_generators(5).measure()
        assert nu.group_id == "so3" and nu.size == 6
        np.testing.assert_allclose(nu.weights, 1 / 6, atol=1e-15)

    def test_blocks_hermitian(self):
        # symmetric generating sets have self-adjoint transform blocks, and
        # the irrep matrices keep that to roundoff at every level up to 25
        nu = walks.lps_generators(5).measure()
        for p in groups.enumerate_irreps(G_SO3, 25.5):
            m = fourier.measure_transform(G_SO3, nu, p).matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-13

    def test_p5_gap_regression(self):
        nu = walks.lps_generators(5).measure()
        q = max(fourier.measure_transform(G_SO3, nu, p).op_norm
                for p in groups.enumerate_irreps(G_SO3, 25.5))
        assert q == pytest.approx(GAP_P5, abs=1e-9)
        assert q <= math.sqrt(5) / 3 + 1e-9
        block = harmonic_block(nu.atoms, nu.weights, 21)
        assert np.linalg.norm(block, 2) == pytest.approx(GAP_P5, abs=1e-9)


class TestWalkEvolve:
    def test_identity_walk_is_stationary(self):
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.0]])
        states = walks.walk_evolve(G_T1, nu, 10, 40.0)
        assert all(s.q_hat == pytest.approx(1.0, abs=1e-12) for s in states)
        totals = {s.exact_total for s in states}
        assert max(totals) - min(totals) < 1e-12
        assert states[7].power_check == pytest.approx(0.0, abs=1e-12)
        assert states[6].power_check is None

    def test_lps_walk_decays(self):
        states = walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(),
                                   9, 25.5)
        qs = [s.q_hat for s in states]
        assert qs[0] == pytest.approx(GAP_P5, abs=1e-9)
        # spectral decay: q_hat(k) <= q_hat(1)^k on the enumerated range
        for k, q in enumerate(qs, start=1):
            assert q <= qs[0] ** k + 1e-9
        assert states[-1].exact_total < states[0].exact_total

    def test_relaxed_fields_require_hint(self):
        nu = walks.lps_generators(5).measure()
        plain = walks.walk_evolve(G_SO3, nu, 2, 10.5)
        assert plain[0].relaxed_total is None
        hinted = walks.walk_evolve(G_SO3, nu, 2, 10.5,
                                   q_hint=math.sqrt(5) / 3)
        assert hinted[0].relaxed_q == pytest.approx(math.sqrt(5) / 3)
        assert hinted[1].relaxed_q == pytest.approx(5 / 9)
        assert hinted[1].relaxed_total is not None
        assert hinted[1].relaxed_total < hinted[0].relaxed_total

    def test_relaxed_fields_match_optimized_gap_bound(self):
        q = math.sqrt(5) / 3
        states = walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(),
                                   40, 25.5, q_hint=q)
        for k in (1, 8, 40):
            m, rep = bound.optimized_gap_bound(G_SO3, LINEAR, q ** k)
            s = states[k - 1]
            assert (s.relaxed_q, s.relaxed_m, s.relaxed_total) == \
                (q ** k, m, rep.total)

    def test_golden_rotation_polynomial_decay(self):
        golden = (math.sqrt(5) - 1) / 2
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.0], [golden]])
        states = walks.walk_evolve(G_T1, nu, 64, 200.0)
        ts = np.asarray([s.exact_total for s in states])
        ks = np.arange(1, 65)
        slope = np.polyfit(np.log(ks[7:]), np.log(ts[7:]), 1)[0]
        assert -0.6 < slope < -0.1
        # polynomial decay: late per-step ratios approach 1, unlike the
        # geometric contraction of an expanding rotation set
        assert ts[63] / ts[62] > 0.95

    def test_json_and_csv_shapes(self):
        st = walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(),
                               8, 6.5, q_hint=0.8)
        row = walks.walk_csv_row(st[2])
        assert len(row) == len(walks.WALK_CSV_HEADER)
        d = st[7].as_json_dict()
        assert d["step"] == 8 and "power_check" in d
        assert set(d["relaxed"]) == {"q", "M", "total"}
        assert "power_check" not in st[2].as_json_dict()
        assert walks.walk_csv_row(st[2])[0] == 3

    def test_validation(self):
        nu = walks.lps_generators(5).measure()
        with pytest.raises(ValueError, match="k_max"):
            walks.walk_evolve(G_SO3, nu, 0, 6.5)
        with pytest.raises(ValueError, match="mismatch"):
            walks.walk_evolve(G_SU2, nu, 2, 6.5)
        with pytest.raises(ValueError, match="irreps"):
            walks.walk_evolve(G_SO3, nu, 2, 0.5)

    def test_m_grid_override(self):
        nu = walks.lps_generators(5).measure()
        states = walks.walk_evolve(G_SO3, nu, 3, 10.5, m_grid=[4.5])
        assert all(s.exact_m == 4.5 for s in states)
        with pytest.raises(ValueError, match="admissible"):
            walks.walk_evolve(G_SO3, nu, 3, 10.5, m_grid=[0.7])


class TestSampledWalkBlocks:
    def test_matches_exact_powers(self):
        nu = walks.lps_generators(5).measure()
        irreps = groups.enumerate_irreps(G_SO3, 2.5)
        k, n_paths = 5, 10 ** 4
        sampled = walks.sampled_walk_blocks(G_SO3, nu, k, n_paths, 314,
                                            irreps)
        for p, s_blk in zip(irreps, sampled):
            exact = np.linalg.matrix_power(
                fourier.measure_transform(G_SO3, nu, p).matrix, k)
            dev = float(np.linalg.norm(s_blk - exact))
            sigma = math.sqrt(max(p.dim - np.linalg.norm(exact) ** 2, 0.0)
                              / n_paths)
            assert dev <= 3.0 * sigma + 1e-12

    def test_single_step_single_path(self):
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.25]])
        irreps = groups.enumerate_irreps(G_T1, 7.0)
        blocks = walks.sampled_walk_blocks(G_T1, nu, 1, 1, 0, irreps)
        exact = [fourier.measure_transform(G_T1, nu, p).matrix
                 for p in irreps]
        for s_blk, e_blk in zip(blocks, exact):
            np.testing.assert_allclose(s_blk, e_blk, atol=1e-12)

    def test_validation(self):
        nu = walks.lps_generators(5).measure()
        with pytest.raises(ValueError):
            walks.sampled_walk_blocks(G_SO3, nu, 0, 10, 0, [])
        with pytest.raises(ValueError):
            walks.sampled_walk_blocks(G_SO3, nu, 1, 0, 0, [])


class TestEmpiricalExperiment:
    def test_haar_sweep(self):
        rows = walks.empirical_experiment(G_SU2, "haar", [16, 64], 8,
                                          LINEAR, seed=99, m_cap=24.0)
        assert [r.N for r in rows] == [16, 64]
        assert rows[1].bound_mean < rows[0].bound_mean
        for r in rows:
            assert r.bound_min <= r.bound_mean <= r.bound_max
            assert r.oracle_mean is None
            assert r.max_variance_ratio <= 1 + 3 / math.sqrt(8)
            assert r.best_m_mean >= G_SU2.admissibility_threshold

    def test_discrete_source_with_oracle(self):
        src = random_measure(G_T1, 6, 123)
        rows = walks.empirical_experiment(G_T1, src, [8, 32], 4, LINEAR,
                                          seed=77, m_cap=30.0,
                                          with_oracle=True)
        for r in rows:
            assert r.oracle_mean is not None
            assert r.oracle_min <= r.oracle_mean <= r.oracle_max
            assert r.bound_min + 1e-9 >= 0
            # dominance enforced internally; surviving means bound >= LP
            assert r.bound_mean >= r.oracle_mean - 1e-12

    def test_row_serialization(self):
        rows = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                          seed=5, m_cap=20.0)
        row = walks.empirical_csv_row(rows[0])
        assert len(row) == len(walks.EMPIRICAL_CSV_HEADER)
        assert row[-3:] == ["", "", ""]
        d = rows[0].as_json_dict()
        assert d["oracle"] is None and d["N"] == 8
        assert set(d["bound"]) == {"mean", "min", "max"}

    def test_seed_determinism(self):
        a = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=5, m_cap=20.0)
        b = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=5, m_cap=20.0)
        assert a[0].as_json_dict() == b[0].as_json_dict()
        c = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=6, m_cap=20.0)
        assert c[0].bound_mean != a[0].bound_mean

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            walks.empirical_experiment(G_T1, "haar", [8, 8], 2, LINEAR,
                                       seed=0)
        with pytest.raises(ValueError, match="N_list"):
            walks.empirical_experiment(G_T1, "haar", [], 2, LINEAR, seed=0)
        with pytest.raises(ValueError, match="source"):
            walks.empirical_experiment(G_T1, "uniform", [8], 2, LINEAR,
                                       seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            walks.empirical_experiment(G_SU2, random_measure(G_T1, 3, 1),
                                       [8], 2, LINEAR, seed=0)


class TestEquidistributionAudit:
    def test_circle_lattice(self):
        n = 16
        pts = np.arange(n)[:, None] / n
        audit = walks.equidistribution_audit(G_T1, pts, LINEAR, gap_m=40.0)
        true_w1 = 1.0 / (4 * n)
        assert true_w1 <= audit.report.total <= 4 * true_w1
        assert audit.n_points == n and audit.group_id == "torus(1)"
        # all characters below the lattice frequency vanish
        assert audit.gap_estimate < 1e-12

    def test_single_point_far_from_haar(self):
        audit = walks.equidistribution_audit(
            G_SO3, np.array([[1.0, 0.0, 0.0, 0.0]]), LINEAR)
        assert audit.report.total >= 0.25
        assert audit.gap_estimate == pytest.approx(1.0, abs=1e-12)

    def test_lps_p5_audit_constants(self):
        lps = walks.lps_generators(5)
        audit = walks.equidistribution_audit(G_SO3, lps.rotations, LINEAR)
        assert audit.gap_m == 25.5
        assert audit.gap_estimate == pytest.approx(GAP_P5, abs=1e-9)
        fitted = audit.report.total * 6.0 ** (1.0 / 3.0)
        assert 11.0 <= fitted <= 12.0
        assert audit.best_m == audit.report.M

    def test_file_input_matches_array(self):
        lps = walks.lps_generators(5)
        from_file = walks.equidistribution_audit(G_SO3, DATA_P5, LINEAR)
        from_array = walks.equidistribution_audit(G_SO3, lps.rotations,
                                                  LINEAR)
        assert from_file.as_json_dict() == from_array.as_json_dict()

    def test_character_profile(self):
        audit = walks.equidistribution_audit(
            G_SU2, groups.haar_sample(G_SU2, 8, 32), LINEAR, gap_m=4.5)
        irreps = groups.enumerate_irreps(G_SU2, 4.5)
        assert len(audit.character_profile) == len(irreps)
        for (lbl, wn, dim, hs_sq), p in zip(audit.character_profile, irreps):
            assert lbl == str(p.label) and dim == p.dim
            assert wn == pytest.approx(p.weight_norm)
            assert 0 <= hs_sq <= dim ** 2 + 1e-9

    def test_energies_match_extended_precision_character_sums(self):
        # hs_sq(l) = sum_kl w_k w_l chi_l(x_k^-1 x_l), where
        # chi_l = sin((2l+1) theta/2) / sin(theta/2) and cos(theta/2) is
        # |<x_k, x_l>|; the reference sums run in long double
        n = 64
        pts = groups.haar_sample(G_SO3, 11, n)
        audit = walks.equidistribution_audit(G_SO3, pts, LINEAR)
        atoms = pts.astype(np.longdouble)
        half = np.arccos(np.clip(np.abs(atoms @ atoms.T), 0, 1))
        sin_half = np.sin(half)
        off = sin_half > 0
        assert len(audit.character_profile) == 25
        for _, _, dim, hs_sq in audit.character_profile:
            chi = np.full_like(half, dim)
            chi[off] = np.sin(dim * half[off]) / sin_half[off]
            assert abs(hs_sq - float(chi.sum() / n ** 2)) < 1e-12

    def test_deterministic_json(self):
        pts = groups.haar_sample(G_SU2, 9, 16)
        a = walks.equidistribution_audit(G_SU2, pts, LINEAR, gap_m=6.5)
        b = walks.equidistribution_audit(G_SU2, pts, LINEAR, gap_m=6.5)
        assert a.as_json_dict() == b.as_json_dict()
