"""Noncommutative Fourier analysis for the supported groups.

Irreducible matrices for su2/so3 are realized on the orthonormal monomial
basis ``m_k = z1^(2j-k) z2^k / sqrt((2j-k)! k!)`` with the right-translation
action, so spin 1/2 reproduces the defining matrix of a unit quaternion
``q = w + xi + yj + zk``:

    [[w - iz, -y - ix],
     [ y - ix,  w + iz]]

In that basis the generator along e3 is diagonal with the weights
``m = k - j``.  A spin-j matrix is evaluated in double precision from the
Euler factorization ``q = exp(a e3) exp(b e2) exp(c e3)`` and one
eigendecomposition of the e2 generator per spin (the eigenvalue method for
Wigner-d matrices, Risbo 1996; Feng, Wang, Yang & Jin 2015).

Torus irreps are the characters ``exp(2*pi*i m.x)`` as 1x1 blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import eval_chebyu

from . import groups
from ._util import SolverError, pairwise_sum

_WEIGHT_SUM_TOL = 1e-12


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on one of the groups."""

    group_id: str
    atoms: np.ndarray    # (N, coord dim), canonicalized
    weights: np.ndarray  # (N,), nonnegative, sums to 1

    def __post_init__(self):
        G = groups.descriptor(self.group_id)
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if atoms.shape[1] != G.dim:
            raise ValueError(f"atoms must have {G.dim} coordinates for {self.group_id}")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size != atoms.shape[0] or w.size == 0:
            raise ValueError("weights must match a nonempty atom list")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}")
        self.atoms = groups.canonicalize(G, atoms)
        self.weights = w

    @classmethod
    def uniform(cls, G: groups.GroupDescriptor, atoms) -> "DiscreteMeasure":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        n = atoms.shape[0]
        return cls(G.group_id, atoms, np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def identical_to(self, other: "DiscreteMeasure") -> bool:
        """Bitwise identity of supports and weights (detects the zero-distance case)."""
        return (self.group_id == other.group_id
                and self.atoms.shape == other.atoms.shape
                and np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.weights, other.weights))


def product_measure(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
                    nu2: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution nu1 * nu2 (law of X*Y for independent X ~ nu1, Y ~ nu2)."""
    n1, n2 = nu1.size, nu2.size
    torus_d = groups.torus_dim(G.group_id)
    if torus_d is not None:
        atoms = np.mod(nu1.atoms[:, None, :] + nu2.atoms[None, :, :], 1.0)
    else:
        atoms = groups.quaternion_product(nu1.atoms[:, None, :], nu2.atoms[None, :, :])
    atoms = atoms.reshape(n1 * n2, -1)
    weights = np.outer(nu1.weights, nu2.weights).ravel()
    return DiscreteMeasure(G.group_id, groups.canonicalize(G, atoms), weights)


@dataclass
class FourierBlock:
    """One matrix block of a measure transform, with its norms."""

    group_id: str
    label: tuple
    dim: int
    matrix: np.ndarray
    hs_norm: float = field(init=False)
    op_norm: float = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("block shape does not match irrep dimension")
        self.hs_norm = float(np.linalg.norm(self.matrix, "fro"))
        self.op_norm = float(np.linalg.norm(self.matrix, 2))

    def as_json_dict(self) -> dict:
        return {
            "group": self.group_id,
            "label": list(self.label),
            "dim": self.dim,
            "matrix": np.stack([self.matrix.real, self.matrix.imag],
                               axis=-1).tolist(),
            "hs_norm": self.hs_norm,
            "op_norm": self.op_norm,
        }


# ---------------------------------------------------------------------------
# irreducible matrices


def _two_j_of(irrep: groups.Irrep) -> int:
    return irrep.dim - 1


def _spin_ladder(two_j: int) -> np.ndarray:
    """Real ladder L with L[k+1, k] = sqrt((2j - k)(k + 1))."""
    k = np.arange(two_j)
    L = np.zeros((two_j + 1, two_j + 1))
    L[k + 1, k] = np.sqrt((two_j - k) * (k + 1.0))
    return L


@lru_cache(maxsize=256)
def _jy_eigenbasis(two_j: int):
    """Weights m = k - j and the eigendecomposition of -i A2 for one spin.

    ``A2 = derived_rep(e2)`` is real and skew-symmetric, so ``-i A2`` is
    Hermitian and ``expm(beta A2) = V diag(exp(i beta mu)) V^*``.
    """
    L = _spin_ladder(two_j)
    mu, V = np.linalg.eigh(-0.5j * (L - L.T))
    return np.arange(two_j + 1) - two_j / 2.0, mu, V


def irrep_matrices(G: groups.GroupDescriptor, irrep: groups.Irrep,
                   X: np.ndarray) -> np.ndarray:
    """Stacked unitary matrices of an irrep at a batch of elements, (N, d, d).

    On su2/so3 each quaternion is factored as exp(a e3) exp(b e2) exp(c e3)
    and D = diag(e^{iam}) V diag(e^{ib mu}) V^* diag(e^{icm}).  The angles
    a and c lie in (-2pi, 2pi] and are not reduced mod 2pi, so half-integer
    weights carry the sign of the quaternion: D(-q) = (-1)^(2j) D(q).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        phases = np.exp(2j * np.pi * (X @ m))
        return phases.reshape(-1, 1, 1)
    w, x, y, z = X.T
    half_b = np.arctan2(np.hypot(x, y), np.hypot(w, z))
    s = np.arctan2(z, w)    # (a + c) / 2
    t = np.arctan2(x, y)    # (c - a) / 2
    m, mu, V = _jy_eigenbasis(_two_j_of(irrep))
    n, d = X.shape[0], irrep.dim
    inner = V[None, :, :] * np.exp(2j * half_b[:, None] * mu[None, :])[:, None, :]
    D = (inner.reshape(n * d, d) @ V.conj().T).reshape(n, d, d)
    D *= np.exp(1j * (s - t)[:, None] * m[None, :])[:, :, None]
    D *= np.exp(1j * (s + t)[:, None] * m[None, :])[:, None, :]
    return D


def irrep_matrix(G: groups.GroupDescriptor, irrep: groups.Irrep,
                 x: np.ndarray) -> np.ndarray:
    """Unitary matrix of one irrep at one element."""
    return irrep_matrices(G, irrep, np.asarray(x, dtype=float)[None, :])[0]


def characters(G: groups.GroupDescriptor, irrep: groups.Irrep,
               X: np.ndarray) -> np.ndarray:
    """Character values at a batch of elements."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        return np.exp(2j * np.pi * (X @ m))
    w = X[:, 0]
    if G.group_id == "so3":
        w = np.abs(w)
    return eval_chebyu(irrep.dim - 1, w)


def character(G: groups.GroupDescriptor, irrep: groups.Irrep, x) -> complex:
    val = characters(G, irrep, np.asarray(x, dtype=float)[None, :])[0]
    return complex(val)


def measure_transform(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                      irrep: groups.Irrep) -> FourierBlock:
    """Fourier block sum_k w_k pi(x_k)^* of a discrete measure."""
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    mats = irrep_matrices(G, irrep, nu.atoms)
    S = np.tensordot(nu.weights, mats, axes=(0, 0))
    return FourierBlock(G.group_id, irrep.label, irrep.dim, S.conj().T)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distances, two independent routes


def _signed_atoms(nu1: DiscreteMeasure, nu2: Optional[DiscreteMeasure]):
    if nu2 is None:
        return nu1.atoms, nu1.weights
    atoms = np.concatenate([nu1.atoms, nu2.atoms], axis=0)
    coeffs = np.concatenate([nu1.weights, -nu2.weights])
    return atoms, coeffs


def _char_kernel(G: groups.GroupDescriptor, irrep: groups.Irrep,
                 atoms: np.ndarray) -> np.ndarray:
    """Matrix of character values chi(x_k^{-1} x_l)."""
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        ph = np.exp(2j * np.pi * (atoms @ m))
        return np.conj(ph)[:, None] * ph[None, :]
    t = atoms @ atoms.T
    if G.group_id == "so3":
        t = np.abs(t)
    np.clip(t, -1.0, 1.0, out=t)
    return eval_chebyu(irrep.dim - 1, t)


def hs_distance_sq(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
                   nu2: Optional[DiscreteMeasure], irrep: groups.Irrep,
                   method: str = "both", rtol: float = 1e-9) -> float:
    """Squared HS distance between two measure transforms at one irrep.

    ``nu2=None`` stands for Haar, whose nontrivial blocks vanish.  With
    ``method="both"`` the matrix route and the character-sum route are both
    evaluated and must agree to ``rtol`` (absolute + relative); disagreement
    raises SolverError since it voids the certificate.
    """
    if method not in ("matrix", "character", "both"):
        raise ValueError(f"unknown method {method!r}")
    val_m = val_c = None
    if method in ("matrix", "both"):
        B1 = measure_transform(G, nu1, irrep).matrix
        B2 = 0.0 if nu2 is None else measure_transform(G, nu2, irrep).matrix
        val_m = float(np.linalg.norm(B1 - B2, "fro") ** 2)
    if method in ("character", "both"):
        atoms, coeffs = _signed_atoms(nu1, nu2)
        K = _char_kernel(G, irrep, atoms)
        raw = coeffs @ K @ coeffs
        val_c = float(np.real(raw))
    if method == "matrix":
        return val_m
    if method == "character":
        return max(val_c, 0.0)
    if abs(val_m - val_c) > rtol * (1.0 + max(abs(val_m), abs(val_c))):
        raise SolverError(
            f"HS routes disagree at {irrep}: matrix={val_m!r} character={val_c!r}")
    return val_m


def hs_profile(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
               nu2: Optional[DiscreteMeasure], irreps: list) -> np.ndarray:
    """Squared HS distances for many irreps at once via character sums.

    For su2/so3 all spins share one Gram matrix and a single Chebyshev
    recurrence; cost is O((max dim) N^2) total instead of per-irrep matrix
    assembly.  Falls back to per-irrep matrix blocks on the torus, where
    blocks are scalars anyway.
    """
    if not irreps:
        return np.zeros(0)
    atoms, coeffs = _signed_atoms(nu1, nu2)
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        mlat = np.asarray([p.label for p in irreps], dtype=float)
        ph = np.exp(-2j * np.pi * (atoms @ mlat.T))
        # summed in place, column by column, so that an irrep's value does
        # not depend on how many irreps the call holds
        ph *= coeffs[:, None]
        return np.abs(ph.sum(axis=0)) ** 2
    t = atoms @ atoms.T
    if G.group_id == "so3":
        t = np.abs(t)
    np.clip(t, -1.0, 1.0, out=t)
    wanted = {_two_j_of(p): i for i, p in enumerate(irreps)}
    out = np.zeros(len(irreps))
    if not wanted:
        return out
    top = max(wanted)
    # U_0 = 1, U_1 = 2t, U_{n+1} = 2t U_n - U_{n-1}
    u_prev = np.ones_like(t)
    if 0 in wanted:
        out[wanted[0]] = max(float(coeffs @ u_prev @ coeffs), 0.0)
    u_cur = 2.0 * t
    for n in range(1, top + 1):
        if n >= 2:
            u_next = t * u_cur
            u_next *= 2.0
            u_next -= u_prev
            u_prev, u_cur = u_cur, u_next
        if n in wanted:
            out[wanted[n]] = max(float(coeffs @ u_cur @ coeffs), 0.0)
    return out


def spectral_gap_estimate(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                          M: float) -> float:
    """Largest operator norm of the transform over 0 < |weight| < M.

    Nondecreasing in M and bounded by 1.  For finite M it is a lower bound
    on the true spectral gap parameter (the supremum over all nontrivial
    irreps); it equals that parameter only if the supremum is attained
    below M.  For Ramanujan sets such as the Lubotzky-Phillips-Sarnak
    norm-p rotations the supremum 2 sqrt(p) / (p + 1) is approached as the
    weight grows but attained at no finite weight, so every truncation
    stays strictly below it.
    """
    irreps = groups.enumerate_irreps(G, M)
    if not irreps:
        return 0.0
    best = 0.0
    for p in irreps:
        best = max(best, measure_transform(G, nu, p).op_norm)
    return best


# ---------------------------------------------------------------------------
# derived representation


def derived_rep(G: groups.GroupDescriptor, irrep: groups.Irrep,
                X: np.ndarray) -> np.ndarray:
    """Derivative of the irrep at the identity along algebra vector X.

    Always skew-Hermitian; for X in the maximal torus direction the
    eigenvalues are i * (weight values).
    """
    X = np.asarray(X, dtype=float)
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.asarray(irrep.label, dtype=float)
        return np.array([[2j * np.pi * float(m @ X)]])
    two_j = _two_j_of(irrep)
    L = _spin_ladder(two_j)
    A1 = -0.5j * (L + L.T)
    A2 = 0.5 * (L - L.T)
    A3 = 1j * np.diag(np.arange(two_j + 1) - two_j / 2.0)
    return X[0] * A1 + X[1] * A2 + X[2] * A3


# ---------------------------------------------------------------------------
# quadrature over conjugacy classes


def weyl_quadrature(G: groups.GroupDescriptor, n_nodes: int = 2 ** 14):
    """Nodes and weights integrating class functions exactly up to aliasing.

    Returns (points, weights) with points encoded like group elements.  For
    the torus this is a product grid over [0,1)^d; for su2/so3 it is a
    uniform angular grid against the class density, exact for characters of
    spin (dimension) well below ``n_nodes``.
    """
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        per_axis = max(2, round(n_nodes ** (1.0 / d_t)))
        axes = [np.arange(per_axis) / per_axis] * d_t
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return pts, w
    n = int(n_nodes)
    if G.group_id == "su2":
        u = 4.0 * np.pi * (np.arange(n) + 0.5) / n
        w = (2.0 / n) * np.sin(u / 2.0) ** 2
        pts = np.zeros((n, 4))
        pts[:, 0] = np.cos(u / 2.0)
        pts[:, 3] = np.sin(u / 2.0)
        return pts, w
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    w = (2.0 / n) * np.sin(theta / 2.0) ** 2
    pts = np.zeros((n, 4))
    pts[:, 0] = np.cos(theta / 2.0)
    pts[:, 3] = np.sin(theta / 2.0)
    return groups.canonicalize(G, pts), w


def class_coefficients(G: groups.GroupDescriptor, values: np.ndarray,
                       irreps: list, quad=None) -> np.ndarray:
    """Inner products <f, chi_pi> of sampled class-function values."""
    if quad is None:
        quad = weyl_quadrature(G)
    pts, w = quad
    values = np.asarray(values)
    out = np.empty(len(irreps), dtype=complex)
    for i, p in enumerate(irreps):
        chi = characters(G, p, pts)
        out[i] = pairwise_sum(w * values * np.conj(chi))
    return out
