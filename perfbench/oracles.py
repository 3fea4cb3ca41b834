"""Reference values computed apart from the program.

Nothing here imports `wgbound`.  Characters come from the Weyl character
formula on rotation angles, transport costs from an assignment solver on
distance matrices built here, and the icosahedral energies from the
group's Molien series.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from inputs import quat_conj, quat_mul


def half_angles(a: np.ndarray, b: np.ndarray, so3: bool) -> np.ndarray:
    """Half rotation angles of a_k^-1 b_l, in [0, pi/2] (so3) or [0, pi] (su2)."""
    r = quat_mul(quat_conj(a)[:, None, :], b[None, :, :])
    w = np.abs(r[..., 0]) if so3 else r[..., 0]
    return np.arctan2(np.linalg.norm(r[..., 1:], axis=-1), w)


def spin_character(half: np.ndarray, d: int) -> np.ndarray:
    """Character sin(d h) / sin(h) of the d-dimensional irrep at half angle h."""
    half = np.asarray(half, dtype=float)
    s = np.sin(half)
    small = np.abs(s) < 1e-12
    out = np.sin(d * half) / np.where(small, 1.0, s)
    h0 = half[small]
    out[small] = d * np.cos(d * h0) / np.cos(h0)  # l'Hopital at h = 0 and h = pi
    return out


def so3_energies(quats: np.ndarray, weights: np.ndarray, levels) -> np.ndarray:
    """Squared HS norms sum_kl w_k w_l chi_l(x_k^-1 x_l) of the so3 blocks at each level."""
    half = half_angles(quats, quats, so3=True)
    return np.asarray([weights @ spin_character(half, 2 * l + 1) @ weights
                       for l in levels])


def molien_icosahedral(top: int) -> np.ndarray:
    """Coefficients a_0..a_top of (1 + t^15) / ((1 - t^6)(1 - t^10)).

    a_l is the dimension of the icosahedron-invariant harmonics of degree l,
    which is the squared HS norm of the uniform measure's level-l block.
    """
    a = np.zeros(top + 1)
    for shift in (0, 15):
        for i in range(0, top + 1, 6):
            for j in range(0, top + 1 - i, 10):
                if i + j + shift <= top:
                    a[i + j + shift] += 1.0
    return a


def haar_mean_angle() -> float:
    """Haar mean of the rotation angle on SO(3): the density is (1 - cos t)/pi on [0, pi]."""
    return math.pi / 2.0 + 2.0 / math.pi


def distance_matrix(group_id: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distances: flat with wrap-around on a torus, 2 * half angle on su2/so3."""
    if group_id.startswith("torus"):
        delta = np.abs(a[:, None, :] - b[None, :, :]) % 1.0
        delta = np.minimum(delta, 1.0 - delta)
        return np.sqrt(np.sum(delta * delta, axis=-1))
    return 2.0 * half_angles(a, b, so3=group_id == "so3")


def assignment_cost(group_id: str, a: np.ndarray, b: np.ndarray) -> float:
    """W_1 between two uniform measures of equal size.

    An optimal transport plan between uniform measures of equal size can be
    taken to be a permutation (Birkhoff), so the optimal assignment is exact.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("assignment needs equal sizes")
    C = distance_matrix(group_id, a, b)
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].mean())


def so3_walk_sum(quats: np.ndarray, steps: int, top_level: int) -> float:
    """sum over levels 1..top of (2l+1)/(l(l+1)) times the energy of nu^(*steps), nu uniform."""
    atoms = quats
    for _ in range(steps - 1):
        atoms = quat_mul(atoms[:, None, :], quats[None, :, :]).reshape(-1, 4)
    weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    levels = np.arange(1, top_level + 1)
    energies = so3_energies(atoms, weights, levels)
    return float(np.sum((2 * levels + 1) / (levels * (levels + 1.0)) * energies))


def torus_walk_sums(shift: float, steps: int, m_below: float) -> np.ndarray:
    """sum over 0 < |m| < m_below of |cos(pi m shift)|^(2k) / (4 pi^2 m^2), k = 1..steps.

    The step measure (delta_s + delta_{s+shift})/2 has coefficient modulus
    |cos(pi m shift)| at frequency m, whatever s is.
    """
    m = np.arange(1, math.ceil(m_below))
    m = m[m < m_below]
    c2 = np.cos(np.pi * m * shift) ** 2
    k = np.arange(1, steps + 1)[:, None]
    return 2.0 * np.sum(c2[None, :] ** k / (4.0 * np.pi ** 2 * m * m), axis=1)
