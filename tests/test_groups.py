"""Group descriptors, metric geometry, irrep enumeration, Haar sampling."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wgbound import fourier, groups, oracles

from conftest import GROUP_IDS


def test_descriptor_constants():
    t1 = groups.descriptor("torus(1)")
    assert t1.n == 1 and t1.weyl_order == 1
    assert t1.a == pytest.approx(math.pi)
    assert t1.admissibility_threshold == pytest.approx(math.pi)
    su2 = groups.descriptor("su2")
    assert su2.n == 3 and su2.weyl_order == 2
    assert su2.admissibility_threshold == pytest.approx(1.5)
    so3 = groups.descriptor("so3")
    assert so3.n == 3
    assert so3.admissibility_threshold == pytest.approx(1.5)
    with pytest.raises(ValueError):
        groups.descriptor("su3")


def test_enumerate_irreps_su2_small():
    G = groups.descriptor("su2")
    reps = groups.enumerate_irreps(G, 3.0)
    js = [p.highest_weight[0] for p in reps]
    assert js == [0.5, 1.0, 1.5, 2.0, 2.5]
    for p in reps:
        j = p.highest_weight[0]
        assert p.dim == int(2 * j + 1)
        assert p.casimir == pytest.approx(j * (j + 1))
        assert len(p.weights) == p.dim


def test_enumerate_irreps_torus1():
    G = groups.descriptor("torus(1)")
    reps = groups.enumerate_irreps(G, 7.0)
    assert sorted(p.label for p in reps) == [(-1,), (1,)]
    p = reps[0]
    assert p.dim == 1
    assert p.casimir == pytest.approx(4 * math.pi ** 2)
    assert p.weight_norm == pytest.approx(2 * math.pi)


def test_enumerate_irreps_so3_empty_below_one():
    G = groups.descriptor("so3")
    assert groups.enumerate_irreps(G, 0.5) == []


def test_enumerate_irreps_sorted_and_trivial_flag(any_group):
    reps = groups.enumerate_irreps(any_group, 8.0)
    norms = [p.weight_norm for p in reps]
    assert norms == sorted(norms)
    assert all(0 < v < 8.0 for v in norms)
    with_triv = groups.enumerate_irreps(any_group, 8.0, include_trivial=True)
    assert len(with_triv) == len(reps) + 1
    assert with_triv[0].casimir == 0 and with_triv[0].dim == 1


def test_casimir_between_weight_norm_bounds(any_group):
    # |2 rho+| is the admissibility threshold minus a
    rho_norm = (any_group.admissibility_threshold - any_group.a) / 2.0
    for p in groups.enumerate_irreps(any_group, 12.0):
        lam = p.weight_norm
        assert lam ** 2 <= p.casimir + 1e-12
        assert p.casimir <= lam ** 2 + 2 * lam * rho_norm + 1e-12


def test_spectral_data_matches_enumeration(any_group):
    sd = groups.spectral_data(any_group, 9.0)
    reps = groups.enumerate_irreps(any_group, 9.0)
    assert [tuple(row) for row in sd["label"].tolist()] == [p.label for p in reps]
    assert sd["weight_norm"].tolist() == [p.weight_norm for p in reps]
    assert sd["dim"].tolist() == [p.dim for p in reps]
    assert sd["casimir"].tolist() == [p.casimir for p in reps]


def test_torus_spectrum_in_integer_order():
    # exactly the m with 0 < |m|^2 < (M / 2 pi)^2, sorted by (|m|^2, m):
    # equal |m|^2 must not be ordered by the rounding of a float norm
    for gid, M in (("torus(2)", 60.0), ("torus(3)", 40.0)):
        G = groups.descriptor(gid)
        mb = math.floor(M / (2 * math.pi))
        r_sq = (M / (2 * math.pi)) ** 2
        expected = sorted(
            (sum(v * v for v in m), m)
            for m in itertools.product(range(-mb, mb + 1), repeat=G.r)
            if 0 < sum(v * v for v in m) < r_sq)
        reps = groups.enumerate_irreps(G, M)
        assert [p.label for p in reps] == [m for _, m in expected]
        assert [p.casimir for p in reps] == [4.0 * math.pi ** 2 * k
                                             for k, _ in expected]
        assert [p.weight_norm for p in reps] == [2.0 * math.pi * math.sqrt(k)
                                                 for k, _ in expected]


def test_derived_weights(any_group):
    # reference definitions: torus weight 2 pi m; spin weights -j..j by 1
    for p in groups.enumerate_irreps(any_group, 9.0, include_trivial=True):
        if any_group.group_id.startswith("torus"):
            lam = tuple(2.0 * math.pi * v for v in p.label)
            weights = (lam,)
        else:
            two_j = p.label[0] if any_group.group_id == "su2" else 2 * p.label[0]
            j = two_j / 2.0
            lam = (j,)
            weights = tuple((k - j,) for k in range(two_j + 1))
        assert p.highest_weight == lam
        assert p.weights == weights


def test_geodesic_closed_forms():
    su2 = groups.descriptor("su2")
    e = groups.identity(su2)
    minus_e = np.array([-1.0, 0.0, 0.0, 0.0])
    assert groups.pairwise_distance(su2, e, minus_e)[0, 0] == pytest.approx(2 * math.pi)
    t1 = groups.descriptor("torus(1)")
    assert groups.pairwise_distance(t1, [0.1], [0.9])[0, 0] == pytest.approx(0.2)
    so3 = groups.descriptor("so3")
    q = np.array([math.cos(0.3), math.sin(0.3), 0.0, 0.0])
    assert groups.pairwise_distance(so3, groups.identity(so3), q)[0, 0] \
        == pytest.approx(0.6)


def test_metric_axioms_and_biinvariance(any_group):
    pts = groups.haar_sample(any_group, 7, 3)
    x, y, z = pts
    d = groups.pairwise_distance(any_group, pts, pts)
    assert d[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert d[0, 1] == pytest.approx(d[1, 0], abs=1e-10)
    assert d[0, 1] <= d[0, 2] + d[2, 1] + 1e-9
    zx, zy = groups.multiply(any_group, z, pts[:2])
    xz, yz = groups.multiply(any_group, pts[:2], z)
    moved = groups.pairwise_distance(any_group, [zx, xz], [zy, yz])
    assert moved[0, 0] == pytest.approx(d[0, 1], abs=1e-10)
    assert moved[1, 1] == pytest.approx(d[0, 1], abs=1e-10)


def test_exponential_is_unit_speed(any_group):
    rng = np.random.default_rng(3)
    e = groups.identity(any_group)
    us, pts = [], []
    for _ in range(25):
        X = rng.normal(size=any_group.n)
        X /= np.linalg.norm(X)
        us.append(rng.uniform(-math.pi, math.pi))
        pts.append(groups.exp_map(any_group, us[-1] * X))
    dist = groups.pairwise_distance(any_group, e, np.stack(pts))[0]
    assert np.all(dist <= np.abs(us) + 1e-10)


def test_pairwise_distance_matches_scalar(any_group):
    # each entry is read off x_i^-1 y_j formed by the group law: the length
    # of its shortest lift on a torus, its scalar part on su2/so3
    G = any_group
    torus = groups.torus_dim(G.group_id) is not None
    X = groups.haar_sample(G, 11, 4)
    if torus:
        Y = np.concatenate([groups.haar_sample(G, 12, 3),
                            np.mod(X + 0.5, 1.0)])
    else:
        # antipodes, and partners at a half-turn (cosine 0)
        half_turn = np.array([0.0, 0.0, 0.0, 1.0])
        Y = np.concatenate([groups.haar_sample(G, 12, 3),
                            groups.canonicalize(G, -X),
                            groups.multiply(G, X, half_turn)])
    got = (groups.pairwise_distance if torus else groups.class_cosines)(G, X, Y)
    assert got.shape == (4, len(Y))
    for i in range(4):
        for j in range(len(Y)):
            z = groups.multiply(G, groups.inverse(G, X[i]), Y[j])
            if torus:
                want = np.linalg.norm(np.minimum(z, 1.0 - z))
            else:
                want = abs(z[0]) if G.group_id == "so3" else z[0]
            assert got[i, j] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("gid", ("su2", "so3"))
def test_pairwise_distance_accurate_near_the_identity(gid):
    # arccos of a class cosine next to 1 would be off by about 3e-8
    G = groups.descriptor(gid)
    X = groups.haar_sample(G, 17, 500)
    assert np.all(np.diagonal(groups.pairwise_distance(G, X, X)) == 0.0)
    t = 10.0 ** -np.arange(3.0, 9.0)
    Y = groups.multiply(G, X[:t.size], groups.exp_map(G, t[:, None] * [0.0, 0.0, 1.0]))
    d = np.diagonal(groups.pairwise_distance(G, X[:t.size], Y))
    np.testing.assert_allclose(d, t, rtol=1e-6)


def test_haar_sample_uniform_coordinates():
    G = groups.descriptor("torus(1)")
    pts = groups.haar_sample(G, 123, 10 ** 5)
    ks = stats.kstest(pts[:, 0], "uniform").statistic
    assert ks < 0.01


def test_haar_sample_character_mean_vanishes():
    G = groups.descriptor("su2")
    pts = groups.haar_sample(G, 5, 10 ** 5)
    p = groups.enumerate_irreps(G, 1.5)[-1]  # spin 1
    chi = oracles.characters(G, p, pts)
    assert abs(chi.mean()) < 0.02


def test_haar_sample_empty_and_deterministic(any_group):
    assert groups.haar_sample(any_group, 1, 0).shape[0] == 0
    a = groups.haar_sample(any_group, 42, 5)
    b = groups.haar_sample(any_group, 42, 5)
    np.testing.assert_array_equal(a, b)


def test_group_axioms(any_group):
    x, y, z = groups.haar_sample(any_group, 21, 3)
    e = groups.identity(any_group)
    m = groups.multiply
    xinv = groups.inverse(any_group, x)
    np.testing.assert_allclose(m(any_group, x, xinv), e, atol=1e-12)
    np.testing.assert_allclose(m(any_group, x, e), x, atol=1e-12)
    lhs = m(any_group, m(any_group, x, y), z)
    rhs = m(any_group, x, m(any_group, y, z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_torus_multiply_is_modular_addition():
    G = groups.descriptor("torus(2)")
    out = groups.multiply(G, np.array([0.7, 0.2]), np.array([0.6, 0.9]))
    np.testing.assert_allclose(out, [0.3, 0.1], atol=1e-12)
    # -1e-20 + 0 mod 1 rounds to 1.0, which canonicalize maps to 0
    out = groups.multiply(G, np.array([-1e-20, 0.0]), np.array([0.0, 0.0]))
    assert out.tolist() == [0.0, 0.0]
    # canonical inputs: the sum lies in [0, 2), where mod 1 never reads 1
    x, y = groups.haar_sample(G, 71, 10_000), groups.haar_sample(G, 72, 10_000)
    edges = [0.0, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -1074]
    x[:4], y[:4] = np.asarray(edges)[:, None], np.asarray(edges[::-1])[:, None]
    assert groups.multiply(G, x, y).tolist() == np.mod(x + y, 1.0).tolist()


def test_so3_sign_canonicalization():
    G = groups.descriptor("so3")
    q = groups.haar_sample(G, 9, 1)[0]
    np.testing.assert_allclose(groups.canonicalize(G, -q),
                               groups.canonicalize(G, q), atol=1e-15)
    # both lifts act identically, so products agree after canonicalization
    r = groups.haar_sample(G, 10, 1)[0]
    np.testing.assert_allclose(groups.multiply(G, -q, r),
                               groups.multiply(G, q, r), atol=1e-12)


@pytest.mark.parametrize("gid", GROUP_IDS)
def test_canonicalize_is_idempotent(gid):
    # 100k rows: scaled Gaussian rows, rows already normalized another way
    # (their computed norm is within UNIT_NORM_TOL of 1, so they are kept),
    # coordinates whose squares would under- or overflow, and on the torus
    # values that wrap onto or next to 0 and 1
    G = groups.descriptor(gid)
    rng = np.random.default_rng(61)
    raw = rng.standard_normal((100_000, G.dim))
    raw *= 10.0 ** rng.uniform(-3, 3, size=(raw.shape[0], 1))
    if groups.torus_dim(gid) is None:
        raw[:30_000] /= np.sqrt(np.sum(raw[:30_000] ** 2, axis=1))[:, None]
        raw[30_000:30_004] = [[0.0, 1.0, 0.0, 0.0], [-0.0, -1.0, 0.0, 0.0],
                              [0.0, 0.0, -0.0, -2.0], [-1.0, 0.0, 0.0, 0.0]]
        raw[30_004:30_010] = (rng.uniform(-1, 1, size=(6, 4))
                              * np.array([1e-160, 1e160, 1e-300, 1e300, 1e-310,
                                          1e307])[:, None])
    else:
        edges = [-1e-20, -0.0, 0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, -2.0 ** -53,
                 2.0 ** -1074, 3.0 - 2.0 ** -51]
        raw[:len(edges)] = np.asarray(edges)[:, None]
    once = groups.canonicalize(G, raw)
    twice = groups.canonicalize(G, once)
    assert np.array_equal(once.view(np.uint64), twice.view(np.uint64))
    if groups.torus_dim(gid) is not None:
        assert np.all((once >= 0.0) & (once < 1.0))
        assert once[0, 0] == 0.0  # -1e-20 mod 1 rounds to 1, which is 0
    else:
        norms = np.linalg.norm(once, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= groups.UNIT_NORM_TOL
    # a measure built from another's atoms is bitwise the same measure
    nu = fourier.DiscreteMeasure.uniform(G, raw[:1000])
    rewrapped = fourier.DiscreteMeasure(gid, nu.atoms, nu.weights)
    assert nu.identical_to(rewrapped)


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_torus_distance_shift_invariant(k, m):
    G = groups.descriptor("torus(1)")
    x, y = 0.37, 0.81
    d0, d1, d2 = np.diagonal(groups.pairwise_distance(
        G, [[x], [(x + 0.11 * k) % 1], [x + m]], [[y], [(y + 0.11 * k) % 1], [y]]))
    assert d0 == pytest.approx(d1, abs=1e-10)
    assert d2 == pytest.approx(d0, abs=1e-10)


@pytest.mark.parametrize("gid,label", [
    ("su2", (2,)), ("so3", (1,)), ("torus(1)", (1,)),
])
def test_casimir_residual_small(gid, label):
    G = groups.descriptor(gid)
    reps = groups.enumerate_irreps(G, 10.0, include_trivial=True)
    p = next(r for r in reps if r.label == label)
    assert oracles.casimir_residual(G, p, 1e-3) < 1e-5


def test_casimir_residual_second_order_rate():
    G = groups.descriptor("su2")
    p = groups.enumerate_irreps(G, 2.0)[1]
    r_coarse = oracles.casimir_residual(G, p, 2e-2, order=2)
    r_fine = oracles.casimir_residual(G, p, 1e-2, order=2)
    assert 2.5 < r_coarse / r_fine < 6.0


def test_casimir_residual_trivial_is_zero(any_group):
    triv = groups.trivial_irrep(any_group)
    assert oracles.casimir_residual(any_group, triv, 1e-3) == 0.0


def test_point_file_roundtrip(tmp_path, any_group):
    pts = groups.haar_sample(any_group, 4, 6)
    path = tmp_path / "pts.csv"
    groups.save_points(path, any_group.group_id, pts)
    gid, loaded = groups.load_points(path, expect_group=any_group.group_id)
    assert gid == any_group.group_id
    np.testing.assert_allclose(loaded, pts, atol=1e-15)


def test_point_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1\n0.2\n")
    with pytest.raises(ValueError, match="group="):
        groups.load_points(bad)
    mism = tmp_path / "m.csv"
    mism.write_text("# group=torus(1)\n0.5\n")
    with pytest.raises(ValueError, match="does not match"):
        groups.load_points(mism, expect_group="su2")
    inf = tmp_path / "inf.csv"
    inf.write_text("# group=su2\n1,0,0,0\n0,-inf,0,0\n")
    with pytest.raises(ValueError, match="inf.csv:3: non-finite"):
        groups.load_points(inf)
    # blank lines count: errors name the line of the file
    blank = tmp_path / "blank.csv"
    blank.write_text("# group=su2\n1,0,0,0\n\n\n1,0,nan,0\n")
    with pytest.raises(ValueError, match="blank.csv:5: non-finite"):
        groups.load_points(blank)
    blank.write_text("\n# group=torus(2)\n\n0.5\n")
    with pytest.raises(ValueError, match="blank.csv:4: expected 2 fields"):
        groups.load_points(blank)
    blank.write_text("\n\n# group=torus(1)\n0.5\n  \nx\n")
    with pytest.raises(ValueError, match="blank.csv:6: could not convert"):
        groups.load_points(blank)
    with pytest.raises(OSError):
        groups.load_points(tmp_path / "nope.csv")


def test_point_file_normalizes_quaternions(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("# group=su2\n2,0,0,0\n")
    _, pts = groups.load_points(path)
    np.testing.assert_allclose(pts, [[1.0, 0, 0, 0]], atol=1e-15)
