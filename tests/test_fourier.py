"""Irrep matrices, measure transforms, characters, derived reps, quadrature."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_chebyu

from wgbound import fourier, groups, oracles
from wgbound._util import pairwise_sum

from conftest import longdouble_profile, random_measure


def _irreps(gid, M):
    G = groups.descriptor(gid)
    return G, groups.enumerate_irreps(G, M)


def _labels(irreps):
    # the label rows of groups.spectral_data for a list of Irreps
    return np.asarray([p.label for p in irreps])


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
    pts = np.stack([x, y, groups.multiply(G, x, y), groups.identity(G)])
    for p in reps:
        Ux, Uy, Uxy, Ue = fourier.irrep_matrices(G, p, pts)
        eye = np.eye(p.dim)
        assert np.linalg.norm(Ux @ Ux.conj().T - eye) < 1e-10
        assert np.linalg.norm(Uxy - Ux @ Uy) < 1e-9
        np.testing.assert_allclose(Ue, eye, atol=1e-12)


def test_su2_defining_representation():
    G = groups.descriptor("su2")
    p = groups.enumerate_irreps(G, 1.0)[0]
    assert p.dim == 2
    q = groups.haar_sample(G, 17, 1)[0]
    U = fourier.irrep_matrices(G, p, q[None, :])[0]
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
    us = (0.3, 1.2)
    pts = groups.exp_map(G, np.multiply.outer(us, X))
    for p in reps:
        D = oracles.derived_rep(G, p, X)
        for u, U in zip(us, fourier.irrep_matrices(G, p, pts)):
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
    h = groups.haar_sample(G, 13, 1)
    qs = groups.canonicalize(G, np.stack(
        [np.concatenate([[np.cos(u / 2)], np.sin(u / 2) * n]) for u, n in cases]))
    both = np.concatenate([qs, h])
    for p in groups.enumerate_irreps(G, 8.0):
        Uh = fourier.irrep_matrices(G, p, h)[0]
        Uq = fourier.irrep_matrices(G, p, qs)
        Uqh = fourier.irrep_matrices(G, p, groups.multiply(G, qs, h))
        for (u, n), U, Ux in zip(cases, Uq, Uqh):
            R = expm(u * oracles.derived_rep(G, p, n))
            assert np.max(np.abs(U - R)) < 1e-12
            assert np.max(np.abs(Ux - U @ Uh)) < 1e-12
        if gid == "su2":
            sign = (-1) ** (p.dim - 1)
            neg = fourier.irrep_matrices(G, p, -both)
            pos = fourier.irrep_matrices(G, p, both)
            assert np.max(np.abs(neg - sign * pos)) < 1e-12


def test_torus_weight_eigenphases():
    G = groups.descriptor("torus(2)")
    p = next(r for r in groups.enumerate_irreps(G, 16.0) if r.label == (2, -1))
    x = np.array([0.3, 0.7])
    U = fourier.irrep_matrices(G, p, x[None, :])[0]
    assert U.shape == (1, 1)
    assert U[0, 0] == pytest.approx(np.exp(2j * np.pi * (2 * 0.3 - 0.7)), abs=1e-12)


@pytest.mark.parametrize("gid,M", [("su2", 5.0), ("so3", 5.5), ("torus(1)", 20.0)])
def test_character_closed_form_and_class_invariance(gid, M):
    G, reps = _irreps(gid, M)
    x, y = groups.haar_sample(G, 77, 2)
    conj = groups.multiply(G, groups.multiply(G, y, x), groups.inverse(G, y))
    pts = np.stack([x, conj, groups.identity(G)])
    for p in reps:
        chi, chi_conj, chi_e = oracles.characters(G, p, pts)
        assert chi == pytest.approx(
            np.trace(fourier.irrep_matrices(G, p, pts[:1])[0]), abs=1e-9)
        assert chi_conj == pytest.approx(chi, abs=1e-10)
        assert chi_e == pytest.approx(p.dim, abs=1e-12)
        if gid in ("su2", "so3"):
            assert abs(np.imag(chi)) < 1e-10


@pytest.mark.parametrize("gid", ["su2", "so3"])
def test_characters_match_scipy_chebyshev(gid):
    # the three-term recurrence takes the same steps as scipy's eval_chebyu
    G = groups.descriptor(gid)
    X = np.concatenate([groups.haar_sample(G, 12, 2000), [groups.identity(G)],
                        groups.canonicalize(G, np.array([[-1.0, 0, 0, 0],
                                                         [0.0, 0, 0, 1]]))])
    cos_half = groups.class_cosines(G, X, groups.identity(G))[:, 0]
    for p in ([groups.trivial_irrep(G)] + groups.enumerate_irreps(G, 200.0))[::7]:
        assert oracles.characters(G, p, X).tolist() \
            == eval_chebyu(p.dim - 1, cos_half).tolist(), p.label


def test_measure_transform_point_mass_and_trivial(any_group):
    e = groups.identity(any_group)
    nu = fourier.DiscreteMeasure.uniform(any_group, [e])
    reps = [groups.trivial_irrep(any_group)] + groups.enumerate_irreps(any_group, 7.0)
    for p in reps:
        blk = fourier.measure_transform(any_group, nu, p)
        assert blk.shape == (p.dim, p.dim) and blk.dtype == complex
        np.testing.assert_allclose(blk, np.eye(p.dim), atol=1e-12)
        assert np.linalg.norm(blk, 2) == pytest.approx(1.0, abs=1e-12)
    nu2 = random_measure(any_group, 5, 3)
    triv = reps[0]
    blk = fourier.measure_transform(any_group, nu2, triv)
    assert blk[0, 0] == pytest.approx(1.0, abs=1e-12)


def _stacked_blocks(G, nu, irreps):
    return [np.tensordot(nu.weights, fourier.irrep_matrices(G, p, nu.atoms),
                         axes=(0, 0)).conj().T for p in irreps]


def _assert_blocks_match_stack(G, nu, irreps):
    blocks = fourier.measure_transforms(G, nu, _labels(irreps))
    assert [b.shape for b in blocks] == [(p.dim, p.dim) for p in irreps]
    for p, blk, ref in zip(irreps, blocks, _stacked_blocks(G, nu, irreps)):
        assert np.max(np.abs(blk - ref)) < 1e-14, p.label
    return blocks


def _longdouble_blocks(nu, irreps):
    """sum_k w_k pi~(x_k)^* per su2/so3 irrep, in long double.

    pi~ is the matrix function that fourier.transform_error names: the
    computed Euler angles, V and phase arguments fl(a m), here with the
    exponentials and every sum in np.clongdouble.  The terms are summed
    over the atoms first, into one cube per spin parity on the top spin's
    weights, and then over r with each level's V.
    """
    angles = fourier._euler_angles(nu.atoms)
    w = nu.weights.astype(np.longdouble)
    cubes, out = {}, []
    for p in irreps:
        two_j = p.dim - 1
        top = max(q.dim - 1 for q in irreps if (q.dim - p.dim) % 2 == 0)
        if top not in cubes:
            m = np.arange(top + 1) - top / 2.0
            ea, eb, ec = (np.exp(1j * (t[:, None] * m).astype(np.longdouble))
                          for t in angles)
            vw = (eb[:, :, None] * ec[:, None, :]).reshape(w.size, -1)
            cubes[top] = ((w[:, None] * ea).T @ vw).reshape((top + 1,) * 3)
        o = (top - two_j) // 2
        F = cubes[top][o:o + p.dim, o:o + p.dim, o:o + p.dim]
        V = fourier._jy_eigenbasis(two_j)[1].astype(np.clongdouble)
        out.append(np.einsum("pr,prq,qr->pq", V, F, V.conj()).conj().T)
    return out


def _assert_within_transform_error(G, irreps, seed):
    # one atom and 300 atoms, against the long-double evaluation
    for n_atoms in (1, 300):
        nu = random_measure(G, n_atoms, seed)
        blocks = fourier.measure_transforms(G, nu, _labels(irreps))
        for p, blk, ref in zip(irreps, blocks, _longdouble_blocks(nu, irreps)):
            assert ref.dtype == np.clongdouble
            err = np.max(np.abs(blk - ref))
            assert err <= fourier.transform_error(n_atoms, p.dim), (n_atoms, p.label)


def test_measure_transform_chunks_match_one_stack():
    # 300 atoms at spins up to 25 (n = 51 weights): the default budget
    # takes the half cube in one tile, from two chunks of at most 197 atoms
    G = groups.descriptor("so3")
    nu = random_measure(G, 300, 21)
    irreps = [groups.trivial_irrep(G)] + groups.enumerate_irreps(G, 25.5)
    assert irreps[-1].dim == 51
    blocks = _assert_blocks_match_stack(G, nu, irreps)
    one = fourier.measure_transform(G, nu, irreps[-1])
    assert np.max(np.abs(one - blocks[-1])) < 1e-14
    _assert_within_transform_error(G, irreps, 21)


def _mixed_su2_irreps(G):
    # out of order, with a repeated spin; spins 2j = 0..50 of both parities
    return [_spin(G, two_j) if two_j else groups.trivial_irrep(G)
            for two_j in (49, 0, 1, 50, 2, 7, 49, 12, 3)]


def test_measure_transforms_mixed_spin_parities():
    # integer and half-integer spins come from two cubes, and the blocks
    # follow the order of the list
    G = groups.descriptor("su2")
    _assert_blocks_match_stack(G, random_measure(G, 300, 22), _mixed_su2_irreps(G))
    _assert_within_transform_error(G, _mixed_su2_irreps(G), 22)


@pytest.mark.parametrize("gid", ["so3", "su2"])
def test_measure_transforms_small_budget(monkeypatch, gid):
    # at 64 KiB a chunk holds 5 atoms and a tile 1 x 10 columns of the cube,
    # so every tile, its mirror and the chunk sums take many pieces
    monkeypatch.setattr(fourier, "_TRANSFORM_BYTES", 1 << 16)
    G = groups.descriptor(gid)
    irreps = ([groups.trivial_irrep(G)] + groups.enumerate_irreps(G, 25.5)
              if gid == "so3" else _mixed_su2_irreps(G))
    _assert_blocks_match_stack(G, random_measure(G, 300, 24), irreps)


def test_measure_transforms_memory_stays_within_budget():
    # so3 at M = 100.5: a whole cube of 201^3 weights would take 130 MB;
    # beside the returned blocks the temporaries stay within the budget
    G = groups.descriptor("so3")
    nu = random_measure(G, 12, 23)
    levels = groups.enumerate_irreps(G, 100.5)
    irreps = [levels[0], levels[-1]]
    assert irreps[-1].dim == 201
    for p in irreps:
        fourier._jy_eigenbasis(p.dim - 1)    # cached eigenbases are not temporaries
    out = sum(16 * p.dim ** 2 for p in irreps)
    labels = _labels(irreps)
    tracemalloc.start()
    try:
        blocks = fourier.measure_transforms(G, nu, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 201 ** 3 * 16 > 7 * fourier._TRANSFORM_BYTES
    assert peak - out <= fourier._TRANSFORM_BYTES, peak
    for blk, ref in zip(blocks, _stacked_blocks(G, nu, irreps)):
        assert np.max(np.abs(blk - ref)) < 1e-14


def test_block_norm_invariants(any_group):
    nu = random_measure(any_group, 9, 14)
    for p in groups.enumerate_irreps(any_group, 7.0):
        blk = fourier.measure_transform(any_group, nu, p)
        op, hs = np.linalg.norm(blk, 2), np.linalg.norm(blk)
        assert op <= 1.0 + 1e-10
        assert hs <= math.sqrt(p.dim) * op + 1e-10
        sv = np.linalg.svd(blk, compute_uv=False)
        assert op == pytest.approx(sv[0], abs=1e-12)
        assert hs == pytest.approx(math.sqrt(np.sum(sv * sv)), abs=1e-12)


def test_convolution_reverses_transform_order(any_group):
    nu1 = random_measure(any_group, 4, 5)
    nu2 = random_measure(any_group, 3, 6)
    conv = fourier.product_measure(any_group, nu1, nu2)
    for p in groups.enumerate_irreps(any_group, 6.5):
        b1 = fourier.measure_transform(any_group, nu1, p)
        b2 = fourier.measure_transform(any_group, nu2, p)
        bc = fourier.measure_transform(any_group, conv, p)
        assert np.linalg.norm(bc - b2 @ b1) < 1e-10


def test_hs_distance_examples(any_group):
    # the character sum, and for a point mass also the block's norm
    nu = random_measure(any_group, 6, 40)
    p = groups.enumerate_irreps(any_group, 7.0)[0]
    assert fourier.hs_profile(any_group, nu, nu, [p])[0] == pytest.approx(0.0, abs=1e-12)
    atom = groups.haar_sample(any_group, 2, 1)
    delta = fourier.DiscreteMeasure.uniform(any_group, atom)
    assert fourier.hs_profile(any_group, delta, None, [p])[0] \
        == pytest.approx(p.dim, abs=1e-9)
    assert np.linalg.norm(fourier.measure_transform(any_group, delta, p)) ** 2 \
        == pytest.approx(p.dim, abs=1e-9)


def test_hs_profile_matches_per_irrep(any_group):
    nu1 = random_measure(any_group, 5, 51)
    nu2 = random_measure(any_group, 7, 52)
    reps = groups.enumerate_irreps(any_group, 7.0)
    prof = fourier.hs_profile(any_group, nu1, nu2, reps)
    for i, p in enumerate(reps):
        b1 = fourier.measure_transform(any_group, nu1, p)
        b2 = fourier.measure_transform(any_group, nu2, p)
        assert prof[i] == pytest.approx(float(np.linalg.norm(b1 - b2) ** 2),
                                        abs=1e-9)


def _signed(nu1, nu2):
    return (np.concatenate([nu1.atoms, nu2.atoms]),
            np.concatenate([nu1.weights, -nu2.weights]))


_ORACLE_CASES = [
    # gid, M, atoms of nu1 and nu2, support, every stride-th irrep, test id
    ("su2", 400.0, 60, 40, "haar", 1, "su2-400.0"),          # two_j = 1..799
    ("so3", 400.0, 60, 40, "haar", 1, "so3-400.0"),          # l = 1..399
    ("torus(1)", 2 * math.pi * 1000.5, 60, 40, "haar", 1, None),  # |m| <= 1000
    ("torus(2)", 2 * math.pi * 60.5, 60, 40, "haar", 1, None),    # |m| <= 60
    ("torus(2)", 2 * math.pi * 30.5, 300, 200, "haar", 1, None),  # 8 atom chunks
    ("torus(3)", 2 * math.pi * 12.5, 60, 40, "haar", 1, None),    # |m| <= 12
    # su2/so3 supports where the gridding folds or reaches the grid's edge
    ("su2", 400.0, 30, 20, "cluster", 1, "su2-400.0-coincident"),
    ("so3", 400.0, 30, 20, "cluster", 1, "so3-400.0-coincident"),
    ("su2", 400.0, 30, 20, "antipodal", 1, "su2-400.0-antipodal"),
    ("so3", 400.0, 30, 20, "antipodal", 1, "so3-400.0-antipodal"),
    ("su2", 512.0, 24, 16, "haar", 1, "su2-512.0-top-1023"),
    ("su2", 512.5, 24, 16, "haar", 1, "su2-512.5-top-1024"),
    ("so3", 1024.5, 24, 16, "haar", 1, "so3-1024.5-top-1024"),
    ("su2", 400.0, 1, 40, "haar", 1, "su2-400.0-one-atom"),
    ("su2", 400.0, 256, 256, "haar", 47, "su2-400.0-512-atoms")]  # 131,328 pairs


@pytest.mark.parametrize("gid,M,n1,n2,support,stride", [c[:6] for c in _ORACLE_CASES], ids=[
    ident or f"{gid}-{M}" + ("" if n1 == 60 else f"-{n1 + n2}-atoms")
    for gid, M, n1, n2, _, _, ident in _ORACLE_CASES])
def test_hs_profile_within_roundoff_of_longdouble_oracle(gid, M, n1, n2, support, stride):
    G = groups.descriptor(gid)
    rng = np.random.default_rng(96)
    a1, a2 = groups.haar_sample(G, 96, n1), groups.haar_sample(G, 97, n2)
    if gid.startswith("torus"):
        # more than one chunk of atoms, summed pairwise
        assert n1 + n2 > fourier._TORUS_ATOMS
    else:
        if support == "cluster":
            # nu1 within 1e-13 of one rotation: its pairs have class cosine 1
            a1 = groups.canonicalize(G, a1[0] + 1e-13 * rng.standard_normal((n1, 4)))
        elif support == "antipodal":
            # rotations of each atom of nu1 by pi - 1e-9 (so3) or by 2 pi, to
            # -x (su2): class cosines of about 0 (so3) and -1 (su2), where
            # the spreading folds at pi
            turn = np.array([math.sin(0.5e-9), 0.0, 0.0, math.cos(0.5e-9)])
            a2 = (-a1[:n2] if gid == "su2"
                  else groups.canonicalize(G, groups.quaternion_product(a1[:n2], turn)))
        # two atoms 1e-9 apart: a class cosine next to 1; and -a2[0], a
        # class cosine of -1 on su2 and a repeated rotation on so3
        a2[0] = groups.canonicalize(G, a1[0] + 1e-9 * rng.standard_normal(4))
        a2[1] = -a2[0]
    nu1 = fourier.DiscreteMeasure(gid, a1, rng.dirichlet(np.ones(n1)))
    nu2 = fourier.DiscreteMeasure(gid, a2, rng.dirichlet(np.ones(n2)))
    irreps = groups.enumerate_irreps(G, M)
    # every stride-th irrep and the last one: the values do not depend on
    # the others (test_hs_profile_prefix_invariant_across_panels)
    irreps = irreps[-1 - (len(irreps) - 1) // stride * stride::stride]
    hs = fourier.hs_profile(G, nu1, nu2, irreps)
    ref = longdouble_profile(gid, *_signed(nu1, nu2), [p.label for p in irreps])
    excess = np.abs(hs - ref) - fourier.hs_roundoff(G, _labels(irreps))
    assert np.all(excess <= 0), (int(np.argmax(excess)), float(excess.max()))


def test_hs_profile_repeated_irreps(any_group):
    # every listed irrep gets its own value, however often it is listed
    nu = random_measure(any_group, 6, 90)
    p, q = groups.enumerate_irreps(any_group, 7.0)[:2]
    prof = fourier.hs_profile(any_group, nu, None, [p, q, p])
    assert prof[0] == prof[2]
    for val, irrep in zip(prof, (p, q, p)):
        block = fourier.measure_transform(any_group, nu, irrep)
        assert val == pytest.approx(float(np.linalg.norm(block) ** 2), abs=1e-12)


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
                  <= 2 * fourier.hs_roundoff(G, _labels(irreps)))


def test_empirical_masses_round_each_atom_once():
    # count fl(1/N) - w per atom: exact when never drawn, one subtraction
    # when drawn once, math.fsum when drawn more often
    G = groups.descriptor("su2")
    source = random_measure(G, 128, 83)
    picks = np.random.default_rng(83).choice(128, size=48)
    counts = np.bincount(picks, minlength=128)
    assert {0, 1, 2} <= set(counts.tolist())
    f = 1.0 / 48
    ref = np.where(counts > 0, f, 0.0) - source.weights
    for k in np.flatnonzero(counts > 1):
        ref[k] = math.fsum([f] * int(counts[k]) + [-source.weights[k]])
    assert fourier.empirical_masses(source, picks).tolist() == ref.tolist()


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
    ("torus(2)", 2 * math.pi * 16, (255, 256, 257, 511, 512, 513)),
    ("torus(2)", 2 * math.pi * 34.5, (3206, 3207, 3208, 3404, 3405)),
    ("su2", 600.0, (1023, 1024, 1025))])
def test_hs_profile_prefix_invariant_across_panels(gid, M, counts):
    # counts on both sides of the su2/so3 moment panel edges (every 128
    # moments) and of the first grid's last moment (1023), and of the first
    # torus labels in a new frequency tile (irreps[3206] is the first with a
    # component 32, irreps[3404] the first with -33)
    G = groups.descriptor(gid)
    nu1, nu2 = random_measure(G, 70, 94), random_measure(G, 30, 95)
    irreps = groups.enumerate_irreps(G, M)
    assert len(irreps) > max(counts)
    full = fourier.hs_profile(G, nu1, nu2, irreps)
    for k in counts:
        assert fourier.hs_profile(G, nu1, nu2, irreps[:k]).tolist() \
            == full[:k].tolist(), k


_ROWS_CASES = [
    ("su2", 150.0, 40),                   # two_j up to 299: three moment panels
    ("su2", 150.0, 65),                   # 2145 pairs
    ("su2", 150.0, 300),                  # 45,150 pairs: tiles of two chunks
    ("so3", 150.0, 40),
    ("torus(1)", 2 * math.pi * 100, 40),  # eight frequency tiles
    ("torus(2)", 2 * math.pi * 12, 40),   # 449 irreps
    ("torus(3)", 2 * math.pi * 6, 40)]


@pytest.mark.parametrize("gid,M,n", _ROWS_CASES, ids=[
    f"{gid}-{M}" + ("" if n == 40 else f"-{n}-atoms") for gid, M, n in _ROWS_CASES])
def test_hs_profile_rows_are_independent(gid, M, n, monkeypatch):
    G = groups.descriptor(gid)
    atoms = groups.haar_sample(G, 81, n)
    rng = np.random.default_rng(81)
    a, b = rng.dirichlet(np.ones(n), size=48), rng.dirichlet(np.ones(n), size=48)
    masses = a - b
    masses[5] = 0.0
    irreps = groups.enumerate_irreps(G, M)
    labels = groups.spectral_data(G, M)["label"]
    alone = [fourier.hs_profile_rows(G, atoms, m[None], labels)[0].tolist()
             for m in masses]
    assert alone[5] == [0.0] * len(labels)
    for R in (1, 3, 48):
        assert fourier.hs_profile_rows(G, atoms, masses[:R], labels).tolist() \
            == alone[:R], R
    # groups of 5 rows: boundaries after rows 4, 9, ...
    per_row = 8 * fourier._row_doubles(n * (n + 1) // 2, int(labels[:, 0].max()))
    monkeypatch.setattr(fourier, "_ROW_BYTES", 5 * per_row)
    assert fourier.hs_profile_rows(G, atoms, masses, labels).tolist() == alone
    # one row is the distance between the two measures it is made of, by
    # the character route and by the blocks
    nu1 = fourier.DiscreteMeasure(gid, atoms, a[0])
    nu2 = fourier.DiscreteMeasure(gid, atoms, b[0])
    for j in (0, 1, len(irreps) // 2, len(irreps) - 1):
        blocks = fourier.measure_transform(G, nu1, irreps[j]) \
            - fourier.measure_transform(G, nu2, irreps[j])
        both = float(np.linalg.norm(blocks) ** 2)
        char = float(fourier.hs_profile(G, nu1, nu2, [irreps[j]])[0])
        assert abs(char - both) <= 1e-9 * (1.0 + max(char, both))
        assert abs(alone[0][j] - both) <= 1e-9 * (1.0 + both)


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
        D = oracles.derived_rep(G, p, X)
        assert np.linalg.norm(D + D.conj().T) < 1e-9
        np.testing.assert_allclose(oracles.derived_rep(G, p, np.zeros(3)),
                                   np.zeros((p.dim, p.dim)), atol=1e-15)
        # torus direction: eigenvalues i*mu over the weight multiset
        D3 = oracles.derived_rep(G, p, np.array([0.0, 0.0, 1.0]))
        eig = np.sort(np.linalg.eigvals(D3).imag)
        expected = np.sort([mu[0] for mu in p.weights])
        np.testing.assert_allclose(eig, expected, atol=1e-10)
        assert np.linalg.norm(D3, 2) == pytest.approx(p.weight_norm, abs=1e-10)


def test_derived_rep_torus_exact():
    G = groups.descriptor("torus(2)")
    p = next(r for r in groups.enumerate_irreps(G, 15.0) if r.label == (1, -2))
    D = oracles.derived_rep(G, p, np.array([0.4, 0.1]))
    assert D[0, 0] == pytest.approx(2j * np.pi * (0.4 - 0.2), abs=1e-15)


def test_sugiura_operator_norm_bound(rank_one_group):
    rng = np.random.default_rng(44)
    for p in groups.enumerate_irreps(rank_one_group, 4.0):
        for _ in range(20):
            X = rng.normal(size=3)
            D = oracles.derived_rep(rank_one_group, p, X)
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
            U = fourier.irrep_matrices(G, p, groups.exp_map(G, u * X)[None, :])[0]
            D = oracles.derived_rep(G, p, X)
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
            for U in fourier.irrep_matrices(G, p, groups.exp_map(G, u * basis)):
                A = U - np.eye(p.dim)
                acc += A.conj().T @ A
            E = acc - u * u * p.casimir * np.eye(p.dim)
            lam = p.weight_norm
            cap = 3 * abs(u) ** 3 * lam ** 3 + 3 * (u ** 4 / 4) * lam ** 4
            assert np.linalg.norm(E, 2) <= cap + 1e-9


def test_weyl_quadrature_constants(any_group):
    pts, w = oracles.weyl_quadrature(any_group, 4096)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    for p in groups.enumerate_irreps(any_group, 5.0):
        chi = oracles.characters(any_group, p, pts)
        assert abs(pairwise_sum(w * chi)) < 1e-9  # nontrivial chars integrate to 0


def test_character_orthogonality(any_group):
    pts, w = oracles.weyl_quadrature(any_group, 4096)
    reps = ([groups.trivial_irrep(any_group)] + groups.enumerate_irreps(any_group, 5.0))[:4]
    for i, p in enumerate(reps):
        chi_p = oracles.characters(any_group, p, pts)
        for q in reps[i:]:
            chi_q = oracles.characters(any_group, q, pts)
            val = pairwise_sum(w * chi_p * np.conj(chi_q))
            assert abs(val - (1.0 if p is q else 0.0)) < 1e-8


def test_parseval_band_limited(rank_one_group):
    G = rank_one_group
    reps = groups.enumerate_irreps(G, 4.0)
    rng = np.random.default_rng(50)
    b = rng.normal(size=len(reps))
    pts, w = oracles.weyl_quadrature(G, 2 ** 14)
    f = np.zeros(len(pts), dtype=complex)
    for coef, p in zip(b, reps):
        f += coef * oracles.characters(G, p, pts)
    l2 = float(np.real(pairwise_sum(w * np.abs(f) ** 2)))
    assert l2 == pytest.approx(float(np.sum(b ** 2)), abs=1e-8)
    coefs = oracles.class_coefficients(G, f, reps, quad=(pts, w))
    np.testing.assert_allclose(coefs.real, b, atol=1e-8)
    np.testing.assert_allclose(coefs.imag, np.zeros_like(b), atol=1e-8)


def test_translation_energy_below_squared_modulus():
    # band-limited class function: mean-square translation increment from
    # Fourier blocks must sit below the sampled sup-increment squared
    G = groups.descriptor("su2")
    reps = groups.enumerate_irreps(G, 2.5)
    b = np.array([0.6, -0.3, 0.2, 0.1])
    pts, w = oracles.weyl_quadrature(G, 2 ** 12)
    rng = np.random.default_rng(61)
    X = rng.normal(size=3)
    X /= np.linalg.norm(X)
    for u in (0.2, 0.7):
        h = groups.exp_map(G, u * X)
        lhs = 0.0
        for coef, p in zip(b, reps):
            U = fourier.irrep_matrices(G, p, h[None, :])[0]
            f_hat = (coef / p.dim) * np.eye(p.dim)
            lhs += p.dim * np.linalg.norm(f_hat @ (U - np.eye(p.dim))) ** 2
        xs = groups.haar_sample(G, 900, 4096)
        xh = groups.multiply(G, xs, h[None, :])
        fx = np.zeros(len(xs), dtype=complex)
        fxh = np.zeros(len(xs), dtype=complex)
        for coef, p in zip(b, reps):
            fx += coef * oracles.characters(G, p, xs)
            fxh += coef * oracles.characters(G, p, xh)
        sup = float(np.max(np.abs(fxh - fx)))
        # sampled sup slightly underestimates the true one; 1% headroom
        assert lhs <= (1.01 * sup) ** 2 + 1e-10

