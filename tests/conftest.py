"""Shared fixtures, the spherical-harmonic and long-double character-sum oracles,
and the acceptance hook.

Tests in test_acceptance.py are collected into a per-criterion PASS/FAIL
table printed at the end of the run, so the gate's verdict is readable
without scrolling through tracebacks.
"""
import numpy as np
import pytest

try:
    from scipy.special import sph_harm_y
except ImportError:  # scipy < 1.15: same function, azimuth/polar swapped
    from scipy.special import sph_harm

    def sph_harm_y(n, m, theta, phi):
        return sph_harm(m, n, phi, theta)

from wgbound import bound, fourier, groups

GROUP_IDS = ("torus(1)", "torus(2)", "torus(3)", "su2", "so3")

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # setup error or skip: surface it rather than dropping the line
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        label = name.replace("test_", "", 1).replace("_", " ")
        tw.write_line(f"ACCEPTANCE {label}: {verdict}")


@pytest.fixture(params=GROUP_IDS)
def any_group(request):
    return groups.descriptor(request.param)


@pytest.fixture(params=("su2", "so3"))
def rank_one_group(request):
    return groups.descriptor(request.param)


def random_measure(G, n_atoms: int, seed: int,
                   weighted: bool = True) -> fourier.DiscreteMeasure:
    """Random discrete measure: Haar atoms, optional Dirichlet weights."""
    atoms = groups.haar_sample(G, seed, n_atoms)
    if not weighted:
        return fourier.DiscreteMeasure.uniform(G, atoms)
    rng = np.random.default_rng(seed + 1)
    w = rng.dirichlet(np.ones(n_atoms))
    return fourier.DiscreteMeasure(G.group_id, atoms, w)


@pytest.fixture
def power_modulus():
    return bound.ModulusOfContinuity.power


def harmonic_block(quats, weights, ell: int) -> np.ndarray:
    """Spin-ell block sum_k w_k pi_ell(R_k) of a rotation-set measure.

    Independent of ``wgbound.fourier``: each unit quaternion is turned into
    its 3x3 rotation R, the degree-ell spherical harmonics of scipy.special
    are sampled at 2(2 ell + 1) Fibonacci points x (enough to keep the
    least-squares system well conditioned) and at R^T x, and the matrix
    taking the first sample set to the second is found by least squares.
    The result is the operator f -> sum_k w_k f(R_k^{-1} .) on degree-ell
    harmonics in the orthonormal basis Y_ell^m, m = -ell..ell.  The
    package's transform block for the same irrep is its adjoint in another
    basis, so the two have the same singular values.
    """
    q = np.asarray(quats, dtype=float)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    rots = np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
                  2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
                  2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x),
                  1 - 2 * (x * x + y * y)], axis=-1)], axis=1)
    n_pts = 2 * (2 * ell + 1)
    k = np.arange(n_pts) + 0.5
    zs = 1.0 - 2.0 * k / n_pts
    az = np.pi * (1.0 + np.sqrt(5.0)) * k
    pts = np.stack([np.sqrt(1.0 - zs * zs) * np.cos(az),
                    np.sqrt(1.0 - zs * zs) * np.sin(az), zs], axis=-1)
    m = np.arange(-ell, ell + 1)

    def harmonics(p):
        polar = np.arccos(np.clip(p[:, 2], -1.0, 1.0))[:, None]
        azimuth = np.arctan2(p[:, 1], p[:, 0])[:, None]
        return sph_harm_y(ell, m, polar, azimuth)

    base = harmonics(pts)
    block = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
    for wk, R in zip(weights, rots):
        D, *_ = np.linalg.lstsq(base, harmonics(pts @ R), rcond=None)
        block += wk * D
    return block


def longdouble_profile(group_id: str, atoms, coeffs, labels) -> np.ndarray:
    """sum_kl c_k c_l chi(x_k^-1 x_l) per irrep label, summed in long double.

    Independent of ``wgbound``: ``atoms`` are the raw coordinates of a signed
    measure with masses ``coeffs`` (unmerged).  On su2/so3 each quaternion is
    scaled to unit norm.  With x_l replaced by s x_l, s = sign <x_k, x_l>, the
    half angle phi = 2 atan2(|x_k - s x_l|, |x_k + s x_l|) lies in
    [0, pi/2] and is accurate near 0, and chi = s^(d-1) sin(d phi) / sin(phi)
    (d at phi = 0) with d = two_j + 1 or 2 l + 1, since U_n(-t) = (-1)^n U_n(t).
    On the torus the value is |sum_k c_k exp(-2 pi i m.x_k)|^2.
    """
    ld = np.longdouble
    x = np.asarray(atoms, dtype=ld)
    c = np.asarray(coeffs, dtype=ld)
    labels = np.asarray(labels)
    if group_id.startswith("torus"):
        two_pi = 8 * np.arctan(ld(1))
        out = []
        for m in labels.reshape(len(labels), -1):
            ang = two_pi * (x @ m.astype(ld))
            re, im = c @ np.cos(ang), c @ np.sin(ang)
            out.append(float(re * re + im * im))
        return np.asarray(out)
    x = x / np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    k, l = np.triu_indices(len(c))
    p, q = x[k], x[l]
    sign = np.where(np.sum(p * q, axis=1) < 0, -1, 1).astype(ld)
    q = q * sign[:, None]
    phi = 2 * np.arctan2(np.sqrt(np.sum((p - q) ** 2, axis=1)),
                         np.sqrt(np.sum((p + q) ** 2, axis=1)))
    w = c[k] * c[l] * np.where(k == l, 1, 2).astype(ld)
    dims = labels.ravel() + 1 if group_id == "su2" else 2 * labels.ravel() + 1
    s = np.sin(phi)
    flat = s == 0
    out = []
    for d in dims:
        chi = np.full_like(phi, d)
        chi[~flat] = np.sin(d * phi[~flat]) / s[~flat]
        out.append(float((w * sign ** (d - 1)) @ chi))
    return np.asarray(out)
