"""Irrep matrices, measure transforms, characters, derived reps, quadrature."""
import math

import numpy as np
import pytest
from scipy.linalg import expm

from wgbound import fourier, groups
from wgbound._util import pairwise_sum

from conftest import longdouble_profile, random_measure


def _irreps(gid, M):
    G = groups.descriptor(gid)
    return G, groups.enumerate_irreps(G, M)


def test_discrete_measure_validation():
    G = groups.descriptor("torus(1)")
    with pytest.raises(ValueError, match="sum to 1"):
        fourier.DiscreteMeasure("torus(1)", [[0.1], [0.2]], [0.5, 0.6])
    with pytest.raises(ValueError, match="nonneg"):
        fourier.DiscreteMeasure("torus(1)", [[0.1], [0.2]], [1.5, -0.5])
    with pytest.raises(ValueError, match="finite"):
        fourier.DiscreteMeasure("torus(1)", [[0.1], [0.2]], [1.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        fourier.DiscreteMeasure("torus(1)", [[0.1], [math.inf]], [0.5, 0.5])
    with pytest.raises(ValueError, match="coordinates"):
        fourier.DiscreteMeasure("su2", [[0.1]], [1.0])
    nu = fourier.DiscreteMeasure.uniform(G, [[0.25], [1.75]])
    assert nu.size == 2
    np.testing.assert_allclose(nu.atoms[:, 0], [0.25, 0.75])


@pytest.mark.parametrize("gid,M", [("torus(2)", 16.0), ("su2", 4.0), ("so3", 4.5)])
def test_irrep_matrix_unitary_homomorphism(gid, M):
    G, reps = _irreps(gid, M)
    x, y = groups.haar_sample(G, 31, 2)
    for p in reps:
        Ux = fourier.irrep_matrix(G, p, x)
        Uy = fourier.irrep_matrix(G, p, y)
        eye = np.eye(p.dim)
        assert np.linalg.norm(Ux @ Ux.conj().T - eye) < 1e-10
        Uxy = fourier.irrep_matrix(G, p, groups.multiply(G, x, y))
        assert np.linalg.norm(Uxy - Ux @ Uy) < 1e-9
        Ue = fourier.irrep_matrix(G, p, groups.identity(G))
        np.testing.assert_allclose(Ue, eye, atol=1e-12)


def test_su2_defining_representation():
    G = groups.descriptor("su2")
    p = groups.enumerate_irreps(G, 1.0)[0]
    assert p.dim == 2
    q = groups.haar_sample(G, 17, 1)[0]
    U = fourier.irrep_matrix(G, p, q)
    assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(U).real == pytest.approx(2.0 * q[0], abs=1e-12)
    assert abs(np.trace(U).imag) < 1e-12
    # eigenphases +-theta/2 of the rotation angle
    theta = 2.0 * math.acos(np.clip(q[0], -1, 1))
    phases = np.sort(np.angle(np.linalg.eigvals(U)))
    np.testing.assert_allclose(phases, [-theta / 2, theta / 2], atol=1e-10)


@pytest.mark.parametrize("gid,M", [("su2", 3.0), ("so3", 3.5), ("torus(2)", 14.0),
                                   ("su2", 25.5), ("so3", 25.5)])
def test_irrep_matrix_is_exponential_of_derived_rep(gid, M):
    G, reps = _irreps(gid, M)
    rng = np.random.default_rng(8)
    X = rng.normal(size=G.n)
    X /= np.linalg.norm(X)
    for u in (0.3, 1.2):
        pt = groups.exp_map(G, u * X)
        for p in reps:
            U = fourier.irrep_matrix(G, p, pt)
            D = fourier.derived_rep(G, p, X)
            assert np.linalg.norm(U - expm(u * D)) < 1e-9


def _spin(G, two_j):
    return next(p for p in groups.enumerate_irreps(G, two_j / 2.0 + 1.0)
                if p.dim == two_j + 1)


@pytest.mark.parametrize("two_j", [36, 50, 80])
def test_high_spin_unitary_homomorphism(two_j):
    G = groups.descriptor("su2")
    p = _spin(G, two_j)
    X = groups.haar_sample(G, 3, 64)
    Y = groups.haar_sample(G, 4, 64)
    UX = fourier.irrep_matrices(G, p, X)
    UY = fourier.irrep_matrices(G, p, Y)
    UXY = fourier.irrep_matrices(G, p, groups.multiply(G, X, Y))
    gram = UX @ UX.conj().transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(p.dim))) < 1e-12
    assert np.max(np.abs(UXY - UX @ UY)) < 1e-12


@pytest.mark.parametrize("gid", ["su2", "so3"])
def test_degenerate_euler_inputs(gid):
    # points where the Euler factorization hits a pole or a branch cut:
    # rotations about e3 (x = y = 0), half turns (w = 0; w = z = 0 when
    # the axis lies in the e1-e2 plane), and so3's sign-fix tie at w = 0
    G = groups.descriptor(gid)
    rng = np.random.default_rng(12)
    cases = [(u, np.array([0.0, 0.0, 1.0]))
             for u in (0.0, 0.7, -2.5, np.pi, 2 * np.pi - 1e-9, 2 * np.pi)]
    axes = [rng.normal(size=3) * [1.0, 1.0, 0.0] for _ in range(3)]
    axes += [rng.normal(size=3) for _ in range(3)]
    axes += [np.array([0.0, 0.0, -1.0]), np.array([-1.0, 0.0, 0.0])]
    cases += [(np.pi, n / np.linalg.norm(n)) for n in axes]
    h = groups.haar_sample(G, 13, 1)[0]
    for p in groups.enumerate_irreps(G, 8.0):
        Uh = fourier.irrep_matrix(G, p, h)
        for u, n in cases:
            q = groups.canonicalize(
                G, np.concatenate([[np.cos(u / 2)], np.sin(u / 2) * n]))
            U = fourier.irrep_matrix(G, p, q)
            R = expm(u * fourier.derived_rep(G, p, n))
            assert np.max(np.abs(U - R)) < 1e-12
            Uqh = fourier.irrep_matrix(G, p, groups.multiply(G, q, h))
            assert np.max(np.abs(Uqh - U @ Uh)) < 1e-12
            if gid == "su2":
                sign = (-1) ** (p.dim - 1)
                for x in (q, h):
                    neg = fourier.irrep_matrix(G, p, -x)
                    pos = fourier.irrep_matrix(G, p, x)
                    assert np.max(np.abs(neg - sign * pos)) < 1e-12


def test_torus_weight_eigenphases():
    G = groups.descriptor("torus(2)")
    p = next(r for r in groups.enumerate_irreps(G, 16.0) if r.label == (2, -1))
    x = np.array([0.3, 0.7])
    U = fourier.irrep_matrix(G, p, x)
    assert U.shape == (1, 1)
    assert U[0, 0] == pytest.approx(np.exp(2j * np.pi * (2 * 0.3 - 0.7)), abs=1e-12)


@pytest.mark.parametrize("gid,M", [("su2", 5.0), ("so3", 5.5), ("torus(1)", 20.0)])
def test_character_closed_form_and_class_invariance(gid, M):
    G, reps = _irreps(gid, M)
    x, y = groups.haar_sample(G, 77, 2)
    for p in reps:
        chi = fourier.character(G, p, x)
        assert chi == pytest.approx(np.trace(fourier.irrep_matrix(G, p, x)),
                                    abs=1e-9)
        conj = groups.multiply(G, groups.multiply(G, y, x),
                               groups.inverse(G, y))
        assert fourier.character(G, p, conj) == pytest.approx(chi, abs=1e-10)
        assert fourier.character(G, p, groups.identity(G)) \
            == pytest.approx(p.dim, abs=1e-12)
        if gid in ("su2", "so3"):
            assert abs(np.imag(chi)) < 1e-10


def test_measure_transform_point_mass_and_trivial(any_group):
    e = groups.identity(any_group)
    nu = fourier.DiscreteMeasure.uniform(any_group, [e])
    reps = groups.enumerate_irreps(any_group, 7.0, include_trivial=True)
    for p in reps:
        blk = fourier.measure_transform(any_group, nu, p)
        np.testing.assert_allclose(blk.matrix, np.eye(p.dim), atol=1e-12)
        assert blk.op_norm == pytest.approx(1.0, abs=1e-12)
    nu2 = random_measure(any_group, 5, 3)
    triv = reps[0]
    blk = fourier.measure_transform(any_group, nu2, triv)
    assert blk.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_measure_transform_chunks_match_one_stack():
    # 300 atoms at spin 25 (d = 51) span several chunks of atoms
    G = groups.descriptor("so3")
    nu = random_measure(G, 300, 21)
    p = [q for q in groups.enumerate_irreps(G, 25.5) if q.dim == 51][0]
    assert nu.size * 16 * p.dim ** 2 > 2 * fourier._TRANSFORM_BYTES
    ref = np.tensordot(nu.weights, fourier.irrep_matrices(G, p, nu.atoms),
                       axes=(0, 0)).conj().T
    assert np.max(np.abs(fourier.measure_transform(G, nu, p).matrix - ref)) < 1e-14


def test_block_norm_invariants(any_group):
    nu = random_measure(any_group, 9, 14)
    for p in groups.enumerate_irreps(any_group, 7.0):
        blk = fourier.measure_transform(any_group, nu, p)
        assert blk.op_norm <= 1.0 + 1e-10
        assert blk.hs_norm <= math.sqrt(p.dim) * blk.op_norm + 1e-10
        sv = np.linalg.svd(blk.matrix, compute_uv=False)
        assert blk.op_norm == pytest.approx(sv[0], abs=1e-12)
        assert blk.hs_norm == pytest.approx(np.linalg.norm(blk.matrix), abs=1e-12)


def test_convolution_reverses_transform_order(any_group):
    nu1 = random_measure(any_group, 4, 5)
    nu2 = random_measure(any_group, 3, 6)
    conv = fourier.product_measure(any_group, nu1, nu2)
    for p in groups.enumerate_irreps(any_group, 6.5):
        b1 = fourier.measure_transform(any_group, nu1, p).matrix
        b2 = fourier.measure_transform(any_group, nu2, p).matrix
        bc = fourier.measure_transform(any_group, conv, p).matrix
        assert np.linalg.norm(bc - b2 @ b1) < 1e-10


def test_hs_distance_dual_routes_agree():
    G = groups.descriptor("su2")
    nu = random_measure(G, 8, 23, weighted=False)
    p = next(r for r in groups.enumerate_irreps(G, 2.0) if r.dim == 3)
    direct = fourier.measure_transform(G, nu, p)
    matrix_route = float(np.linalg.norm(direct.matrix) ** 2)
    char_route = fourier.hs_distance_sq(G, nu, None, p)
    assert char_route == pytest.approx(matrix_route, abs=1e-9)


def test_hs_distance_examples(any_group):
    nu = random_measure(any_group, 6, 40)
    p = groups.enumerate_irreps(any_group, 7.0)[0]
    assert fourier.hs_distance_sq(any_group, nu, nu, p) == pytest.approx(0.0, abs=1e-12)
    atom = groups.haar_sample(any_group, 2, 1)
    delta = fourier.DiscreteMeasure.uniform(any_group, atom)
    assert fourier.hs_distance_sq(any_group, delta, None, p) \
        == pytest.approx(p.dim, abs=1e-9)


def test_hs_profile_matches_per_irrep(any_group):
    nu1 = random_measure(any_group, 5, 51)
    nu2 = random_measure(any_group, 7, 52)
    reps = groups.enumerate_irreps(any_group, 7.0)
    prof = fourier.hs_profile(any_group, nu1, nu2, reps)
    for i, p in enumerate(reps):
        b1 = fourier.measure_transform(any_group, nu1, p).matrix
        b2 = fourier.measure_transform(any_group, nu2, p).matrix
        assert prof[i] == pytest.approx(float(np.linalg.norm(b1 - b2) ** 2),
                                        abs=1e-9)


def _signed(nu1, nu2):
    return (np.concatenate([nu1.atoms, nu2.atoms]),
            np.concatenate([nu1.weights, -nu2.weights]))


@pytest.mark.parametrize("gid,M", [
    ("su2", 400.0),                     # two_j = 1..799
    ("so3", 400.0),                     # l = 1..399
    ("torus(2)", 2 * math.pi * 60.5)])  # |m| <= 60
def test_hs_profile_within_roundoff_of_longdouble_oracle(gid, M):
    G = groups.descriptor(gid)
    rng = np.random.default_rng(96)
    a1, a2 = groups.haar_sample(G, 96, 60), groups.haar_sample(G, 97, 40)
    if gid != "torus(2)":
        # two atoms 1e-9 apart: a class cosine next to 1; and -a2[0], a
        # class cosine of -1 on su2 and a repeated rotation on so3
        a2[0] = groups.canonicalize(G, a1[0] + 1e-9 * rng.standard_normal(4))
        a2[1] = -a2[0]
    nu1 = fourier.DiscreteMeasure(gid, a1, rng.dirichlet(np.ones(60)))
    nu2 = fourier.DiscreteMeasure(gid, a2, rng.dirichlet(np.ones(40)))
    irreps = groups.enumerate_irreps(G, M)
    hs = fourier.hs_profile(G, nu1, nu2, irreps)
    ref = longdouble_profile(gid, *_signed(nu1, nu2), [p.label for p in irreps])
    excess = np.abs(hs - ref) - fourier.hs_roundoff(G, irreps)
    assert np.all(excess <= 0), (int(np.argmax(excess)), float(excess.max()))


def test_hs_profile_repeated_irreps(any_group):
    # every listed irrep gets its own value, however often it is listed
    nu = random_measure(any_group, 6, 90)
    p, q = groups.enumerate_irreps(any_group, 7.0)[:2]
    prof = fourier.hs_profile(any_group, nu, None, [p, q, p])
    assert prof[0] == prof[2]
    for val, irrep in zip(prof, (p, q, p)):
        assert val == pytest.approx(
            fourier.hs_distance_sq(any_group, nu, None, irrep, "matrix"), abs=1e-12)


def test_hs_profile_merges_repeated_atoms(any_group):
    # an empirical measure with repeated atoms has the profile of its merged form
    G = any_group
    base = groups.haar_sample(G, 91, 5)
    picks = np.random.default_rng(91).choice(5, size=12)
    counts = np.bincount(picks, minlength=5)
    assert counts.max() > 2
    nu_rep = fourier.DiscreteMeasure.uniform(G, base[picks])
    used = counts > 0
    other = random_measure(G, 4, 92)
    irreps = groups.enumerate_irreps(G, 9.0)
    prof = fourier.hs_profile(G, nu_rep, other, irreps)
    # masses summed as the merge sums them: the same computation
    fsum_w = [math.fsum([1.0 / 12] * c) for c in counts[used]]
    merged = fourier.DiscreteMeasure(G.group_id, base[used], fsum_w)
    assert prof.tolist() == fourier.hs_profile(G, merged, other, irreps).tolist()
    # masses rounded once: within the rounding bound of both values
    merged = fourier.DiscreteMeasure(G.group_id, base[used], counts[used] / 12)
    assert np.all(np.abs(prof - fourier.hs_profile(G, merged, other, irreps))
                  <= 2 * fourier.hs_roundoff(G, irreps))


def test_hs_profile_of_reordered_copy_is_zero(any_group):
    nu = random_measure(any_group, 7, 93)
    perm = np.random.default_rng(93).permutation(7)
    shuffled = fourier.DiscreteMeasure(any_group.group_id, nu.atoms[perm],
                                       nu.weights[perm])
    assert not nu.identical_to(shuffled)
    irreps = groups.enumerate_irreps(any_group, 9.0)
    assert np.all(fourier.hs_profile(any_group, nu, shuffled, irreps) == 0.0)


@pytest.mark.parametrize("gid,M,counts", [
    ("su2", 300.0, (127, 128, 129, 255, 256, 257, 511, 512, 513)),
    ("so3", 300.0, (127, 128, 129, 255, 256, 257)),
    ("torus(2)", 2 * math.pi * 16, (255, 256, 257, 511, 512, 513))])
def test_hs_profile_prefix_invariant_across_panels(gid, M, counts):
    # counts on both sides of the su2/so3 GEMM panel edges (every 128
    # moments) and of the torus irrep chunks (256); 5050 pairs fill three
    # chunks of pairs
    G = groups.descriptor(gid)
    nu1, nu2 = random_measure(G, 70, 94), random_measure(G, 30, 95)
    irreps = groups.enumerate_irreps(G, M)
    assert len(irreps) > max(counts)
    full = fourier.hs_profile(G, nu1, nu2, irreps)
    for k in counts:
        assert fourier.hs_profile(G, nu1, nu2, irreps[:k]).tolist() \
            == full[:k].tolist(), k


def test_spectral_gap_estimate_properties():
    G = groups.descriptor("su2")
    delta_e = fourier.DiscreteMeasure.uniform(G, [groups.identity(G)])
    assert fourier.spectral_gap_estimate(G, delta_e, 5.0) == pytest.approx(1.0)
    assert fourier.spectral_gap_estimate(G, delta_e, 0.2) == 0.0
    nu = random_measure(G, 5, 66)
    q1 = fourier.spectral_gap_estimate(G, nu, 4.0)
    conv = fourier.product_measure(G, nu, nu)
    q2 = fourier.spectral_gap_estimate(G, conv, 4.0)
    assert q2 <= q1 * q1 + 1e-10
    assert fourier.spectral_gap_estimate(G, nu, 6.0) >= q1 - 1e-15


def test_derived_rep_structure(rank_one_group):
    G = rank_one_group
    rng = np.random.default_rng(10)
    for p in groups.enumerate_irreps(G, 4.0):
        X = rng.normal(size=3)
        D = fourier.derived_rep(G, p, X)
        assert np.linalg.norm(D + D.conj().T) < 1e-9
        np.testing.assert_allclose(fourier.derived_rep(G, p, np.zeros(3)),
                                   np.zeros((p.dim, p.dim)), atol=1e-15)
        # torus direction: eigenvalues i*mu over the weight multiset
        D3 = fourier.derived_rep(G, p, np.array([0.0, 0.0, 1.0]))
        eig = np.sort(np.linalg.eigvals(D3).imag)
        expected = np.sort([mu[0] for mu in p.weights])
        np.testing.assert_allclose(eig, expected, atol=1e-10)
        assert np.linalg.norm(D3, 2) == pytest.approx(p.weight_norm, abs=1e-10)


def test_derived_rep_torus_exact():
    G = groups.descriptor("torus(2)")
    p = next(r for r in groups.enumerate_irreps(G, 15.0) if r.label == (1, -2))
    D = fourier.derived_rep(G, p, np.array([0.4, 0.1]))
    assert D[0, 0] == pytest.approx(2j * np.pi * (0.4 - 0.2), abs=1e-15)


def test_sugiura_operator_norm_bound(rank_one_group):
    rng = np.random.default_rng(44)
    for p in groups.enumerate_irreps(rank_one_group, 4.0):
        for _ in range(20):
            X = rng.normal(size=3)
            D = fourier.derived_rep(rank_one_group, p, X)
            assert np.linalg.norm(D, 2) \
                <= p.weight_norm * np.linalg.norm(X) + 1e-8


def test_first_order_taylor_bound(rank_one_group):
    G = rank_one_group
    rng = np.random.default_rng(45)
    for p in groups.enumerate_irreps(G, 3.0):
        for _ in range(10):
            X = rng.normal(size=3)
            X /= np.linalg.norm(X)
            u = rng.uniform(-1.0, 1.0)
            U = fourier.irrep_matrix(G, p, groups.exp_map(G, u * X))
            D = fourier.derived_rep(G, p, X)
            lhs = np.linalg.norm(U - np.eye(p.dim) - u * D, 2)
            assert lhs <= 0.5 * u * u * np.linalg.norm(D, 2) ** 2 + 1e-9


def test_laplace_identity_error_bound(rank_one_group):
    G = rank_one_group
    rng = np.random.default_rng(46)
    basis = np.eye(3)
    for p in groups.enumerate_irreps(G, 3.0):
        for _ in range(6):
            u = rng.uniform(-1.0, 1.0)
            acc = np.zeros((p.dim, p.dim), dtype=complex)
            for k in range(3):
                U = fourier.irrep_matrix(G, p, groups.exp_map(G, u * basis[k]))
                A = U - np.eye(p.dim)
                acc += A.conj().T @ A
            E = acc - u * u * p.casimir * np.eye(p.dim)
            lam = p.weight_norm
            cap = 3 * abs(u) ** 3 * lam ** 3 + 3 * (u ** 4 / 4) * lam ** 4
            assert np.linalg.norm(E, 2) <= cap + 1e-9


def test_weyl_quadrature_constants(any_group):
    pts, w = fourier.weyl_quadrature(any_group, 4096)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    for p in groups.enumerate_irreps(any_group, 5.0):
        chi = fourier.characters(any_group, p, pts)
        assert abs(pairwise_sum(w * chi)) < 1e-9  # nontrivial chars integrate to 0


def test_character_orthogonality(any_group):
    pts, w = fourier.weyl_quadrature(any_group, 4096)
    reps = groups.enumerate_irreps(any_group, 5.0, include_trivial=True)[:4]
    for i, p in enumerate(reps):
        chi_p = fourier.characters(any_group, p, pts)
        for q in reps[i:]:
            chi_q = fourier.characters(any_group, q, pts)
            val = pairwise_sum(w * chi_p * np.conj(chi_q))
            assert abs(val - (1.0 if p is q else 0.0)) < 1e-8


def test_parseval_band_limited(rank_one_group):
    G = rank_one_group
    reps = groups.enumerate_irreps(G, 4.0)
    rng = np.random.default_rng(50)
    b = rng.normal(size=len(reps))
    pts, w = fourier.weyl_quadrature(G, 2 ** 14)
    f = np.zeros(len(pts), dtype=complex)
    for coef, p in zip(b, reps):
        f += coef * fourier.characters(G, p, pts)
    l2 = float(np.real(pairwise_sum(w * np.abs(f) ** 2)))
    assert l2 == pytest.approx(float(np.sum(b ** 2)), abs=1e-8)
    coefs = fourier.class_coefficients(G, f, reps, quad=(pts, w))
    np.testing.assert_allclose(coefs.real, b, atol=1e-8)
    np.testing.assert_allclose(coefs.imag, np.zeros_like(b), atol=1e-8)


def test_translation_energy_below_squared_modulus():
    # band-limited class function: mean-square translation increment from
    # Fourier blocks must sit below the sampled sup-increment squared
    G = groups.descriptor("su2")
    reps = groups.enumerate_irreps(G, 2.5)
    b = np.array([0.6, -0.3, 0.2, 0.1])
    pts, w = fourier.weyl_quadrature(G, 2 ** 12)
    rng = np.random.default_rng(61)
    X = rng.normal(size=3)
    X /= np.linalg.norm(X)
    for u in (0.2, 0.7):
        h = groups.exp_map(G, u * X)
        lhs = 0.0
        for coef, p in zip(b, reps):
            U = fourier.irrep_matrix(G, p, h)
            f_hat = (coef / p.dim) * np.eye(p.dim)
            lhs += p.dim * np.linalg.norm(f_hat @ (U - np.eye(p.dim))) ** 2
        xs = groups.haar_sample(G, 900, 4096)
        xh = groups.multiply(G, xs, h[None, :])
        fx = np.zeros(len(xs), dtype=complex)
        fxh = np.zeros(len(xs), dtype=complex)
        for coef, p in zip(b, reps):
            fx += coef * fourier.characters(G, p, xs)
            fxh += coef * fourier.characters(G, p, xh)
        sup = float(np.max(np.abs(fxh - fx)))
        # sampled sup slightly underestimates the true one; 1% headroom
        assert lhs <= (1.01 * sup) ** 2 + 1e-10


def test_fourier_block_json(any_group):
    nu = random_measure(any_group, 4, 70)
    p = groups.enumerate_irreps(any_group, 7.0)[0]
    blk = fourier.measure_transform(any_group, nu, p)
    d = blk.as_json_dict()
    assert d["op_norm"] == pytest.approx(blk.op_norm)
    mat = np.array(d["matrix"])
    assert mat.shape == (p.dim, p.dim, 2)
