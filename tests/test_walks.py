"""Rotation-set walks, empirical sweeps, and equidistribution audits."""
import math
import os
import tracemalloc

import numpy as np
import pytest

from wgbound import bound, fourier, groups, transport, walks
from wgbound._util import SolverError, gamma

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
            m = fourier.measure_transform(G_SO3, nu, p)
            assert np.max(np.abs(m - m.conj().T)) < 1e-13

    def test_p5_gap_regression(self):
        nu = walks.lps_generators(5).measure()
        q = max(np.linalg.norm(fourier.measure_transform(G_SO3, nu, p), 2)
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

    def test_relaxed_totals_are_the_gap_sweeps_best(self):
        # torus(2) at 0.8^16: the relaxed cut climbs past the first prefix
        # block to the top of the gap grid
        G = groups.descriptor("torus(2)")
        nu = random_measure(G, 3, 44, weighted=False)
        states = walks.walk_evolve(G, nu, 16, 10.0, q_hint=0.8)
        gap_sweep = bound.CutoffSweep(G, LINEAR, relaxed=True)
        assert states[-1].relaxed_m == gap_sweep.grid[-1]
        for s in states:
            m, rep = gap_sweep.best(gap_sweep.gap_sums(0.8 ** s.step))
            assert (s.relaxed_q, s.relaxed_m, s.relaxed_total) == \
                (0.8 ** s.step, m, rep.total), s.step

    def test_relaxed_walk_memory_does_not_grow_with_steps(self):
        # the gap sweep keeps its prefix sums at its cuts, so a 64-step
        # block scales a (steps x grid) array, not (steps x 318,348)
        G = groups.descriptor("torus(2)")
        nu = random_measure(G, 3, 45, weighted=False)
        walks.walk_evolve(G, nu, 1, 10.0, q_hint=0.8)    # warm the caches
        peaks = []
        for k_max in (1, 64):
            tracemalloc.start()
            try:
                walks.walk_evolve(G, nu, k_max, 10.0, q_hint=0.8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_fourier_sum_is_the_sum_at_the_top_cut(self, monkeypatch):
        # at M = 26 pi the top cut counts every irrep the walk powers, so
        # fourier_sum is the last of the sums that exact_total was taken from
        sums, seen = bound.CutoffSweep.sums, []

        def spy(self, values):
            seen.append((self, sums(self, values)))
            return seen[-1][1]

        monkeypatch.setattr(bound.CutoffSweep, "sums", spy)
        golden = (math.sqrt(5) - 1) / 2
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.0], [golden]])
        states = walks.walk_evolve(G_T1, nu, 20, 26 * math.pi)
        sweep, fs = seen[1]  # the sweep's own roundoff sums come first
        assert sweep.cuts[-1] == len(sweep.labels)
        totals, best = sweep.totals(fs)
        assert [s.exact_total for s in states] == totals[np.arange(20), best].tolist()
        assert [s.fourier_sum for s in states] == fs[:, -1].tolist()

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
        row = walks.csv_row(st[2], walks.WALK_CSV_HEADER)
        assert len(row) == len(walks.WALK_CSV_HEADER)
        assert st[7].power_check is not None and st[2].power_check is None
        assert row[0] == 3
        assert row[3:] == [st[2].exact_m, st[2].exact_total, st[2].relaxed_q,
                           st[2].relaxed_m, st[2].relaxed_total]
        plain = walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(),
                                  1, 6.5)
        assert walks.csv_row(plain[0], walks.WALK_CSV_HEADER)[-3:] == ["", "", ""]

    def test_validation(self):
        nu = walks.lps_generators(5).measure()
        with pytest.raises(ValueError, match="k_max"):
            walks.walk_evolve(G_SO3, nu, 0, 6.5)
        with pytest.raises(ValueError, match="mismatch"):
            walks.walk_evolve(G_SU2, nu, 2, 6.5)
        with pytest.raises(ValueError, match="irreps"):
            walks.walk_evolve(G_SO3, nu, 2, 0.5)


def _real_basis_matrix(d):
    """The unitary U of walks._real_basis as a dense matrix."""
    a, c, scale = walks._real_basis(d)
    return (np.diag(a) + np.diag(c)[::-1]) * np.sqrt(np.diag(scale))


def _powering_reference(G, nu, k_max, M, blocks=None):
    """q_hat, Fourier sum and best cutoff per step from explicit powers."""
    irreps = groups.enumerate_irreps(G, M)
    if blocks is None:
        blocks = [fourier.measure_transform(G, nu, p) for p in irreps]
    ratios = np.asarray([p.dim / p.casimir for p in irreps])
    grid = bound.default_m_grid(G, cap=M)
    sweep = bound.CutoffSweep(G, LINEAR, "paper_bump", grid[grid <= M])
    out = []
    for k in range(1, k_max + 1):
        powers = [np.linalg.matrix_power(b, k) for b in blocks]
        q = max(float(np.linalg.norm(bk, 2)) for bk in powers)
        contrib = ratios * np.asarray([np.linalg.norm(bk) ** 2
                                       for bk in powers])
        i = sweep.totals(np.concatenate(([0.0], np.cumsum(contrib)))[sweep.cuts])[1]
        out.append((q, float(np.sum(contrib)), float(sweep.grid[i])))
    return out


class TestSpectralEngine:
    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_matches_powering_route(self, p):
        nu = walks.lps_generators(p).measure()
        states = walks.walk_evolve(G_SO3, nu, 150, 25.5)
        ref = _powering_reference(G_SO3, nu, 150, 25.5)
        for s, (q, fs, m) in zip(states, ref):
            assert abs(s.q_hat - q) <= 1e-12 * q, s.step
            assert abs(s.fourier_sum - fs) <= 1e-12 * fs, s.step
            assert s.exact_m == m, s.step
            assert 0.0 < s.spectral_error < 1e-9

    def test_tolerance_dominates_harmonic_oracle(self):
        # the oracle's blocks have the same eigenvalues as the package's;
        # the walk's values may sit from theirs by spectral_error at most
        nu = walks.lps_generators(5).measure()
        irreps = groups.enumerate_irreps(G_SO3, 25.5)
        assert [p.dim for p in irreps] == [2 * ell + 1 for ell in range(1, 26)]
        mods = [np.abs(np.linalg.eigvals(
            harmonic_block(nu.atoms, nu.weights, ell))) for ell in range(1, 26)]
        ratios = [p.dim / p.casimir for p in irreps]
        for s in walks.walk_evolve(G_SO3, nu, 150, 25.5):
            k = s.step
            q = max(float(np.max(m)) ** k for m in mods)
            fs = sum(r * float(np.sum(m ** (2 * k)))
                     for r, m in zip(ratios, mods))
            assert abs(s.q_hat - q) <= s.spectral_error, k
            assert abs(s.fourier_sum - fs) <= s.spectral_error, k

    @pytest.mark.parametrize("G", [G_SO3, G_SU2], ids=["so3", "su2"])
    def test_non_symmetric_steps_take_powering_route(self, G):
        nu = fourier.DiscreteMeasure.uniform(G, groups.haar_sample(G, 2024, 3))
        for p in groups.enumerate_irreps(G, 10.5):
            b = fourier.measure_transform(G, nu, p)
            assert walks._diagonalise(walks._walk_form(b)) is None, p.label
        states = walks.walk_evolve(G, nu, 16, 10.5)
        assert states[7].power_check <= walks._POWER_TOL
        assert states[15].power_check <= walks._POWER_TOL
        for s, (q, fs, m) in zip(states, _powering_reference(G, nu, 16, 10.5)):
            assert s.spectral_error == 0.0
            assert s.q_hat == pytest.approx(q, rel=1e-12)
            assert s.fourier_sum == pytest.approx(fs, rel=1e-12)
            assert s.exact_m == m

    def test_non_hermitian_block_is_caught(self, monkeypatch):
        # a block 1e-6 away from Hermitian either leaves the eigenvalue
        # route or carries that distance in its error bound
        nu = walks.lps_generators(5).measure()
        p3 = groups.enumerate_irreps(G_SO3, 3.5)[2]
        rng = np.random.default_rng(6)
        E = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        kick = 1e-6 * (E - E.conj().T) / np.linalg.norm(E - E.conj().T)
        b = fourier.measure_transform(G_SO3, nu, p3) + kick
        found = walks._diagonalise(walks._walk_form(b))
        assert found is None or found[2] >= 1e-6
        transform, kicked = fourier.measure_transforms, []

        def perturbed(G, nu_, labels):
            blocks = transform(G, nu_, labels)
            for i, label in enumerate(map(tuple, labels.tolist())):
                if label == p3.label:
                    blocks[i] = blocks[i] + kick
                    kicked.append(label)
            return blocks

        monkeypatch.setattr(fourier, "measure_transforms", perturbed)
        states = walks.walk_evolve(G_SO3, nu, 24, 6.5)
        assert kicked == [p3.label]
        blocks = perturbed(G_SO3, nu, groups.spectral_data(G_SO3, 6.5)["label"])
        ref = _powering_reference(G_SO3, nu, 24, 6.5, blocks)
        for s, (q, fs, _) in zip(states, ref):
            assert abs(s.q_hat - q) <= 1e-12 * q + s.spectral_error, s.step
            assert abs(s.fourier_sum - fs) <= 1e-12 * fs + s.spectral_error

    def test_recheck_catches_drifted_eigenvalues(self, monkeypatch):
        # the eigen route of one block reads eigenvalues 1e-6 off; the
        # carried reference must see it at the first recheck
        diagonalise = walks._diagonalise

        def shifted(b):
            found = diagonalise(b)
            if found is not None and b.shape[0] == 7:
                lam, V, delta = found
                return lam + 1e-6, V, delta
            return found

        monkeypatch.setattr(walks, "_diagonalise", shifted)
        with pytest.raises(SolverError, match="drifted .* at step 8"):
            walks.walk_evolve(G_SO3, walks.lps_generators(5).measure(), 8, 6.5)

    def test_recheck_catches_drift_at_a_later_check(self, monkeypatch):
        # a symmetric pair of small rotations about one axis: every block
        # has the top eigenvalue 1.  That of the 3x3 block is raised so that
        # its reconstruction drifts by 0.75 _POWER_TOL at step 8 and by
        # twice that at step 16, the second check of the first step block
        half = 0.005
        nu = fourier.DiscreteMeasure.uniform(G_SO3, [
            [math.cos(half), 0.0, 0.0, math.sin(half)],
            [math.cos(half), 0.0, 0.0, -math.sin(half)]])
        diagonalise = walks._diagonalise

        def raised(b):
            found = diagonalise(b)
            if found is not None and b.shape[0] == 3:
                lam, V, delta = found
                i = int(np.argmax(lam))
                assert abs(lam[i] - 1.0) < 1e-12
                lam = lam.copy()
                lam[i] *= 1.0 + 0.75 * walks._POWER_TOL / (8.0 * np.max(V[:, i] ** 2))
                return lam, V, delta
            return found

        monkeypatch.setattr(walks, "_diagonalise", raised)
        with pytest.raises(SolverError, match="drifted .* at step 16"):
            walks.walk_evolve(G_SO3, nu, 24, 6.5)

    def test_recheck_catches_perturbed_powered_block(self, monkeypatch):
        # the reference of one powered block is built from that block
        # moved by 1e-6, so it disagrees with the powering route
        nu = fourier.DiscreteMeasure.uniform(
            G_SU2, groups.haar_sample(G_SU2, 2024, 3))
        rng = np.random.default_rng(7)
        E = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        kick = 1e-6 * E / np.linalg.norm(E)
        carried = walks._carried_powers

        def perturbed(blocks):
            return carried([b + kick if b.shape == (3, 3) else b
                            for b in blocks])

        monkeypatch.setattr(walks, "_carried_powers", perturbed)
        with pytest.raises(SolverError, match="drifted .* at step 8"):
            walks.walk_evolve(G_SU2, nu, 8, 10.5)

    @pytest.mark.parametrize("G, M", [(G_SO3, 25.5), (G_SU2, 10.5)],
                             ids=["so3-lps5", "su2-non-symmetric"])
    def test_carried_reference_matches_matrix_power(self, monkeypatch, G, M):
        nu = (walks.lps_generators(5).measure() if G is G_SO3 else
              fourier.DiscreteMeasure.uniform(G, groups.haar_sample(G, 2024, 3)))
        direct = {p.dim: fourier.measure_transform(G, nu, p)
                  for p in groups.enumerate_irreps(G, M)}
        # the walk powers the real part of a real-type level in its real basis
        for d, b in direct.items():
            if walks._real_type(d):
                u = _real_basis_matrix(d)
                direct[d] = (u.conj().T @ b @ u).real
        carried, seen = walks._carried_powers, []

        def spy(blocks):
            for refs in carried(blocks):
                seen.append([m for r in refs for m in r.reshape(-1, *r.shape[-2:])])
                yield refs

        monkeypatch.setattr(walks, "_carried_powers", spy)
        walks.walk_evolve(G, nu, 150, M)
        assert len(seen) == 18
        for j, refs in enumerate(seen, start=1):
            assert sorted(r.shape[0] for r in refs) == sorted(direct)
            for r in refs:
                exact = np.linalg.matrix_power(direct[r.shape[0]], 8 * j)
                # within 1e-13 absolute and relative to the largest entry
                scale = min(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(r - exact)) <= 1e-13 * scale, (j, r.shape[0])

    def test_torus_blocks_are_their_own_eigenvalues(self):
        golden = (math.sqrt(5) - 1) / 2
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.1], [0.1 + golden]])
        states = walks.walk_evolve(G_T1, nu, 16, 60.0)
        ref = _powering_reference(G_T1, nu, 16, 60.0)
        for s, (q, fs, m) in zip(states, ref):
            assert abs(s.q_hat - q) <= s.spectral_error
            assert abs(s.fourier_sum - fs) <= s.spectral_error
            assert s.spectral_error < 1e-13 and s.exact_m == m


def _symmetric_measure(G, n, seed):
    """n Haar atoms and their inverses, uniform: every block is Hermitian."""
    atoms = groups.haar_sample(G, seed, n)
    return fourier.DiscreteMeasure.uniform(
        G, np.concatenate([atoms, groups.inverse(G, atoms)]))


class TestRealBasis:
    def test_basis_is_unitary_and_fixed_by_conjugation(self):
        # u = C conj(u) with C = antidiag((-1)^m) makes U^* B U real for
        # every B with conj(B) = C B C
        for ell in range(1, 41):
            d = 2 * ell + 1
            u = _real_basis_matrix(d)
            i = np.arange(d)
            C = np.zeros((d, d))
            C[i, d - 1 - i] = (-1.0) ** (i - ell)
            np.testing.assert_array_equal(u, C @ u.conj())
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-15, ell
            assert np.count_nonzero(u) == 2 * d - 1

    @pytest.mark.parametrize("G", [G_SO3, G_SU2], ids=["so3", "su2"])
    def test_delta_covers_imaginary_part_and_basis_rounding(self, G):
        # the matrix _diagonalise diagonalises, H, sits from the exact
        # real-basis block U^* b U (long double) by at most what delta
        # charges; the basis change alone stays within beta
        nu = _symmetric_measure(G, 4, 91)
        labels = groups.spectral_data(G, 40.5)["label"]
        real = 0
        for b in fourier.measure_transforms(G, nu, labels):
            d = b.shape[0]
            y = walks._walk_form(b)
            found = walks._diagonalise(y)
            assert found is not None, d
            if not walks._real_type(d):
                # half-integer spins are quaternionic: complex, as given
                assert d % 2 == 0 and y is b and np.iscomplexobj(found[1])
                continue
            real += 1
            assert not np.iscomplexobj(found[1])
            a, c, scale = walks._real_basis(d)
            sigma = np.sqrt(np.asarray(np.diag(scale), dtype=np.longdouble))
            u = (np.diag(a).astype(np.clongdouble)
                 + np.diag(c)[::-1].astype(np.clongdouble)) * sigma
            exact = u.conj().T @ b.astype(np.clongdouble) @ u
            beta = 3.0 * gamma(3) * np.linalg.norm(y)
            assert float(np.linalg.norm(y - exact)) <= beta, d
            H = 0.5 * (y.real + y.real.T)
            assert float(np.linalg.norm(exact - H)) <= found[2], d
        assert real == 40

    @pytest.mark.parametrize("part", ["hermitian", "anti-hermitian"])
    def test_conjugation_breaking_kick_is_charged(self, monkeypatch, part):
        # a 1e-6 kick i X in the real basis, X real, breaks conj(B) = C B C
        # while the real part stays symmetric: the block keeps the eigen
        # route, and delta carries the dropped imaginary part
        nu = walks.lps_generators(5).measure()
        rng = np.random.default_rng(8)
        E = rng.normal(size=(7, 7))
        X = E - E.T if part == "hermitian" else E + E.T
        u = _real_basis_matrix(7)
        kick = u @ (1e-6j * X / np.linalg.norm(X)) @ u.conj().T
        b = fourier.measure_transform(
            G_SO3, nu, groups.enumerate_irreps(G_SO3, 3.5)[2]) + kick
        found = walks._diagonalise(walks._walk_form(b))
        assert found is None or found[2] >= 1e-6
        transform = fourier.measure_transforms

        def perturbed(G, nu_, labels):
            return [blk + kick if blk.shape[0] == 7 else blk
                    for blk in transform(G, nu_, labels)]

        monkeypatch.setattr(fourier, "measure_transforms", perturbed)
        states = walks.walk_evolve(G_SO3, nu, 24, 6.5)
        blocks = perturbed(G_SO3, nu, groups.spectral_data(G_SO3, 6.5)["label"])
        ref = _powering_reference(G_SO3, nu, 24, 6.5, blocks)
        assert states[0].spectral_error >= 1e-6
        for s, (q, fs, _) in zip(states, ref):
            assert abs(s.q_hat - q) <= 1e-12 * q + s.spectral_error, s.step
            assert abs(s.fourier_sum - fs) <= 1e-12 * fs + s.spectral_error

    @pytest.mark.parametrize("G, points, M, hint", [
        (G_SO3, None, 25.5, math.sqrt(5) / 3),
        (G_T1, [[0.0], [(math.sqrt(5) - 1) / 2]], 140.0, 0.8)],
        ids=["so3-lps5", "torus(1)-golden"])
    def test_states_do_not_depend_on_the_step_blocks(self, G, points, M, hint):
        # the first 16 states of a walk across many step blocks are those
        # of a 16-step walk, bit for bit
        nu = (walks.lps_generators(5).measure() if points is None
              else fourier.DiscreteMeasure.uniform(G, points))
        long = walks.walk_evolve(G, nu, 600, M, q_hint=hint)
        assert 600 > 2 * walks._STEP_BLOCK and len(long) == 600
        assert long[:16] == walks.walk_evolve(G, nu, 16, M, q_hint=hint)

    def test_step_powers_match_scalar_powers(self):
        x = np.random.default_rng(3).random(300)
        ks = np.arange(1, 151)
        rows = walks._powers(x, ks)
        for k, row in zip(ks.tolist(), rows):
            np.testing.assert_array_equal(row, x ** k)


class TestSampledWalkBlocks:
    def test_matches_exact_powers(self):
        nu = walks.lps_generators(5).measure()
        irreps = groups.enumerate_irreps(G_SO3, 2.5)
        k, n_paths = 5, 10 ** 4
        sampled = walks.sampled_walk_blocks(G_SO3, nu, k, n_paths, 314,
                                            groups.spectral_data(G_SO3, 2.5)["label"])
        for p, s_blk in zip(irreps, sampled):
            exact = np.linalg.matrix_power(
                fourier.measure_transform(G_SO3, nu, p), k)
            dev = float(np.linalg.norm(s_blk - exact))
            sigma = math.sqrt(max(p.dim - np.linalg.norm(exact) ** 2, 0.0)
                              / n_paths)
            assert dev <= 3.0 * sigma + 1e-12

    def test_single_step_single_path(self):
        nu = fourier.DiscreteMeasure.uniform(G_T1, [[0.25]])
        irreps = groups.enumerate_irreps(G_T1, 7.0)
        blocks = walks.sampled_walk_blocks(G_T1, nu, 1, 1, 0,
                                           groups.spectral_data(G_T1, 7.0)["label"])
        exact = [fourier.measure_transform(G_T1, nu, p) for p in irreps]
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

    @pytest.mark.parametrize("G,n_src,src_seed,cap,oracle", [
        # oracle_mean/min/max per N of the route that profiled each draw
        # in its own hs_profile call
        (G_SU2, 12, 321, 24.0, [
            (1.0388499248310752, 0.6907848372280271, 1.7807061129521258),
            (0.5012815256470807, 0.40128061245200586, 0.68114859318023)]),
        (G_T1, 6, 123, 30.0, [
            (0.06855956731158529, 0.01296321763186973, 0.11890588023295989),
            (0.04644809531854134, 0.03282473180843781, 0.060383790259164086)])])
    def test_shared_support_rows_match_per_draw_profiles(
            self, monkeypatch, G, n_src, src_seed, cap, oracle):
        src = random_measure(G, n_src, src_seed)
        N_list, reps, seed = [8, 32], 4, 77
        calls = []

        def spy(*args):
            out = hs_profile_rows(*args)
            calls.append((args, out))
            return out

        hs_profile_rows = fourier.hs_profile_rows
        monkeypatch.setattr(fourier, "hs_profile_rows", spy)
        rows = walks.empirical_experiment(G, src, N_list, reps, LINEAR,
                                          seed=seed, m_cap=cap)
        assert len(calls) == 1
        (_, atoms, masses, labels), profiles = calls[0]
        assert atoms is src.atoms and profiles.shape == (len(N_list) * reps, len(labels))
        slack = fourier.hs_roundoff(G, labels)
        children = np.random.SeedSequence(seed).generate_state(
            len(N_list) * reps, dtype=np.uint64).reshape(len(N_list), reps)
        for i, N in enumerate(N_list):
            for r in range(reps):
                picks = np.random.default_rng(int(children[i, r])).choice(
                    src.size, size=N, p=src.weights)
                nu_bar = fourier.DiscreteMeasure.uniform(G, src.atoms[picks])
                old = hs_profile_rows(G, *fourier.merged_atoms(nu_bar, src), labels)[0]
                assert np.all(np.abs(profiles[i * reps + r] - old) <= slack)
        for row, expect in zip(rows, oracle):
            got = (row.oracle_mean, row.oracle_min, row.oracle_max)
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_row_serialization(self):
        rows = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                          seed=5, m_cap=20.0)
        row = walks.csv_row(rows[0], walks.EMPIRICAL_CSV_HEADER)
        assert len(row) == len(walks.EMPIRICAL_CSV_HEADER)
        assert row[-3:] == ["", "", ""]
        assert row[6] == rows[0].max_variance_ratio

    def test_seed_determinism(self):
        a = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=5, m_cap=20.0)
        b = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=5, m_cap=20.0)
        assert a[0] == b[0]
        c = walks.empirical_experiment(G_T1, "haar", [8], 2, LINEAR,
                                       seed=6, m_cap=20.0)
        assert c[0].bound_mean != a[0].bound_mean

    def test_cap_below_variance_cutoff(self):
        # the sweep stops at 5, below the variance cutoff 7.6: the one
        # profile per measure then runs over the variance irreps
        cutoff = (walks._VARIANCE_CUTOFF_FACTOR * G_SU2.admissibility_threshold
                  + 0.1)
        assert bound.default_m_grid(G_SU2, cap=5.0)[-1] < cutoff
        rows = walks.empirical_experiment(G_SU2, "haar", [8, 16], 3, LINEAR,
                                          seed=41, m_cap=5.0)
        labels = [str(p.label) for p in groups.enumerate_irreps(G_SU2, cutoff)]
        for r in rows:
            assert [lbl for lbl, _ in r.variance_ratios] == labels
            assert all(v > 0 for _, v in r.variance_ratios)
            assert r.best_m_mean <= 5.0

    def test_identical_sample_has_zero_fourier_sum(self):
        # a one-atom source: every 1-point sample is the source itself
        src = fourier.DiscreteMeasure.uniform(G_T1, [[0.3]])
        rows = walks.empirical_experiment(G_T1, src, [1], 2, LINEAR, seed=3,
                                          m_cap=30.0)
        m, rep = bound.optimize_M(G_T1, LINEAR, src, src,
                                  M_grid=bound.default_m_grid(G_T1, cap=30.0))
        assert rep.fourier_sum == 0.0
        assert rows[0].bound_min == rows[0].bound_max == rep.total
        assert rows[0].best_m_mean == m

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
        _, pts = groups.load_points(DATA_P5, expect_group="so3")
        from_file = walks.equidistribution_audit(G_SO3, pts, LINEAR)
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

    @pytest.mark.parametrize("group_id,grid", [
        ("su2", None), ("so3", None), ("torus(2)", None),
        ("so3", [2.0, 4.0, 8.0]), ("torus(2)", [4.0, 12.0])])
    def test_one_profile_matches_separate_calls(self, group_id, grid):
        # energies and bound sliced from one hs_profile equal separate
        # calls; the explicit grids stop below gap_m
        G = groups.descriptor(group_id)
        pts = groups.haar_sample(G, 31, 20)
        audit = walks.equidistribution_audit(G, pts, LINEAR, M_grid=grid)
        nu = fourier.DiscreteMeasure.uniform(G, pts)
        irreps = groups.enumerate_irreps(G, audit.gap_m)
        energies = fourier.hs_profile(G, nu, None, irreps)
        assert [lbl for lbl, *_ in audit.character_profile] == [
            str(p.label) for p in irreps]
        assert [e for *_, e in audit.character_profile] == energies.tolist()
        best_m, rep = bound.optimize_M(G, LINEAR, nu, None, M_grid=grid)
        assert audit.best_m == best_m and audit.report == rep

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
