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

Squared HS distances between two measures at many irreps come from
character sums (hs_profile): prefix sums of Chebyshev moments of the class
cosines, computed in fixed-shape GEMMs, on su2/so3, and products of
per-axis character tables on the torus.  hs_roundoff bounds their rounding
error a priori, for measures of any size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.special import eval_chebyu

from . import groups
from ._util import SolverError, pairwise_sum

_WEIGHT_SUM_TOL = 1e-12

# hs_profile on su2/so3: moments m = a * _SPLIT + b, GEMMs of _PANEL values of
# a over _CHUNK pairs, tables built _BLOCK chunks at a time
_SPLIT = 16
_PANEL = 8
_CHUNK = 2048
_BLOCK = 4
# hs_profile on the torus: irreps per gathered product
_TORUS_CHUNK = 256
# measure_transform: bytes of irrep matrices per chunk of atoms
_TRANSFORM_BYTES = 1 << 20
# hs_roundoff: unit roundoff, |nu1 - nu2| mass bound, pairwise-sum depth
_U = 2.0 ** -53
_MASS = 2.0 * (1.0 + 2.0 * _WEIGHT_SUM_TOL)
_SUM_DEPTH = 63


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

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("block shape does not match irrep dimension")
        self.hs_norm = float(np.linalg.norm(self.matrix, "fro"))

    @cached_property
    def op_norm(self) -> float:
        """Spectral norm, from an SVD taken on first read."""
        return float(np.linalg.norm(self.matrix, 2))

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
    if groups.torus_dim(G.group_id) is not None:
        return characters(G, irrep, X).reshape(-1, 1, 1)
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
    cos_half = groups.class_cosines(G, X, groups.identity(G))[:, 0]
    return eval_chebyu(irrep.dim - 1, cos_half)


def character(G: groups.GroupDescriptor, irrep: groups.Irrep, x) -> complex:
    val = characters(G, irrep, np.asarray(x, dtype=float)[None, :])[0]
    return complex(val)


def measure_transform(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                      irrep: groups.Irrep) -> FourierBlock:
    """Fourier block sum_k w_k pi(x_k)^* of a discrete measure.

    The atoms go in chunks of about _TRANSFORM_BYTES of irrep matrices, so
    memory does not grow with N d^2, and a sweep over levels reuses blocks
    of one size instead of mapping a larger stack at every level.
    """
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    rows = max(1, _TRANSFORM_BYTES // (16 * irrep.dim ** 2))
    S = sum(np.tensordot(nu.weights[lo:lo + rows],
                         irrep_matrices(G, irrep, nu.atoms[lo:lo + rows]), axes=(0, 0))
            for lo in range(0, nu.weights.size, rows))
    return FourierBlock(G.group_id, irrep.label, irrep.dim, S.conj().T)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distances, two independent routes


def _merged_atoms(nu1: DiscreteMeasure, nu2: Optional[DiscreteMeasure]):
    """Distinct atoms of the signed measure nu1 - nu2, with their nonzero masses.

    Repeated atoms (an empirical measure drawn with replacement, or an atom
    of both measures) are merged, which leaves every class-function sum
    unchanged.  Each merged mass is correctly rounded: one addition for two
    copies, math.fsum for more.
    """
    if nu2 is None:
        atoms, coeffs = nu1.atoms, nu1.weights
    else:
        atoms = np.concatenate([nu1.atoms, nu2.atoms], axis=0)
        coeffs = np.concatenate([nu1.weights, -nu2.weights])
    atoms, inverse, counts = np.unique(atoms, axis=0, return_inverse=True,
                                       return_counts=True)
    inverse = inverse.ravel()
    merged = np.bincount(inverse, weights=coeffs, minlength=counts.size)
    many = np.flatnonzero(counts > 2)
    if many.size:
        order = np.argsort(inverse, kind="stable")
        ends = np.cumsum(counts)
        for i in many:
            merged[i] = math.fsum(coeffs[order[ends[i] - counts[i]:ends[i]]])
    keep = merged != 0.0
    return atoms[keep], merged[keep]


def hs_distance_sq(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
                   nu2: Optional[DiscreteMeasure], irrep: groups.Irrep,
                   method: str = "both", rtol: float = 1e-9) -> float:
    """Squared HS distance between two measure transforms at one irrep.

    ``nu2=None`` stands for Haar, whose nontrivial blocks vanish.  The
    character route is `hs_profile` at this one irrep.  With
    ``method="both"`` the matrix route and the character route are both
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
        val_c = float(hs_profile(G, nu1, nu2, [irrep])[0])
    if method == "matrix":
        return val_m
    if method == "character":
        return val_c
    if abs(val_m - val_c) > rtol * (1.0 + max(abs(val_m), abs(val_c))):
        raise SolverError(
            f"HS routes disagree at {irrep}: matrix={val_m!r} character={val_c!r}")
    return val_m


def hs_profile(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
               nu2: Optional[DiscreteMeasure], irreps: list) -> np.ndarray:
    """Squared HS distances ||nu1^(pi) - nu2^(pi)||_HS^2 at many irreps at once.

    ``nu2=None`` stands for Haar.  The signed measure c = nu1 - nu2 is first
    merged over repeated atoms (_merged_atoms), and the value at an irrep is
    the character sum sum_kl c_k c_l chi(x_k^-1 x_l).

    On su2/so3 the characters are prefix sums of Chebyshev moments
    S(m) = sum_{k<=l} w_kl T_m(x_kl) over the upper triangle of atom pairs,
    with w_kl = 2 c_k c_l off the diagonal and c_k^2 on it:

    - su2, x = cos(theta/2): chi_n = U_n(x) = [n even] + 2 sum T_m(x) over
      0 < m <= n with m = n mod 2;
    - so3, x = cos(theta) = 2 cos(theta/2)^2 - 1: chi_l = U_2l(cos(theta/2))
      = 1 + 2 sum_{m=1..l} T_m(x).

    x comes from groups.class_cosines.  _cosine_moments computes every moment
    up to the top level in fixed-shape GEMMs: about N^2 (top + 1) real
    multiply-adds in BLAS and N^2 (_SPLIT + top/_SPLIT) recurrence steps for
    N merged atoms.  On the torus every block is a scalar: per-axis tables of
    exp(-2 pi i j x_d) are built once, each irrep's column is their gathered
    product, and the columns, _TORUS_CHUNK irreps at a time, are weighted by
    the masses and summed pairwise over the atoms.

    An irrep's value comes from the same operations whatever other irreps the
    call holds, so slices of one call equal separate calls bit for bit.
    hs_roundoff bounds the rounding error of every value.
    """
    if not irreps:
        return np.zeros(0)
    atoms, coeffs = _merged_atoms(nu1, nu2)
    if coeffs.size == 0:
        return np.zeros(len(irreps))
    if groups.torus_dim(G.group_id) is not None:
        return _torus_profile(atoms, coeffs, irreps)
    k, l = np.triu_indices(coeffs.size)
    x = groups.class_cosines(G, atoms, atoms)[k, l]
    if G.group_id == "so3":
        x = np.clip(2.0 * x * x - 1.0, -1.0, 1.0)
    w = coeffs[k] * coeffs[l]
    w[k != l] *= 2.0
    levels = np.asarray([p.label[0] for p in irreps])
    sums = _level_sums(G, _cosine_moments(x, w, int(levels.max())))
    return np.maximum(sums[levels], 0.0)


def _level_sums(G: groups.GroupDescriptor, v: np.ndarray) -> np.ndarray:
    """Per level n = 0..len(v)-1, the sum of mu_m v[m] over its moments.

    mu_0 = 1 and mu_m = 2 otherwise.  The moments of level n are m <= n with
    m = n mod 2 on su2 (n = 2j) and all m <= n on so3 (n = l).
    """
    d = np.array(v, dtype=float)
    d[1:] *= 2.0
    if G.group_id == "so3":
        return np.cumsum(d)
    d[0::2] = np.cumsum(d[0::2])
    d[1::2] = np.cumsum(d[1::2])
    return d


def _chebyshev_rows(x2: np.ndarray, rows: np.ndarray):
    """rows[:, r] = x2 * rows[:, r-1] - rows[:, r-2] for r >= 2, in place."""
    for r in range(2, rows.shape[1]):
        np.multiply(x2, rows[:, r - 1], out=rows[:, r])
        rows[:, r] -= rows[:, r - 2]


def _cosine_moments(x: np.ndarray, w: np.ndarray, top: int) -> np.ndarray:
    """S(m) = sum_p w_p T_m(x_p) for m = 0..top, x in [-1, 1].

    With m = a B + b (B = _SPLIT, 0 <= b < B), z = T_B(x) and
    Q_a = (1 - x^2) U_{aB-1}(x) = (1 - x^2) U_{B-1}(x) U_{a-1}(z),
    T_m(x) = T_b(x) T_a(z) - U_{b-1}(x) Q_a.  Per chunk of _CHUNK pairs the
    rows [T_b, U_{b-1}] (b < B) come from Chebyshev recurrences in x, and
    the rows [w T_a(z), -w Q_a] from recurrences in z, _PANEL values of a at
    a time; one GEMM per panel gives the moments of B _PANEL consecutive m.
    The chunks are padded with weight-0 pairs and summed pairwise, so every
    GEMM has the same shape and every moment the same operations whatever
    top is.
    """
    n_chunks = -(-x.size // _CHUNK)
    xs = np.ones(n_chunks * _CHUNK)
    ws = np.zeros(n_chunks * _CHUNK)
    xs[:x.size] = x
    ws[:w.size] = w
    # parts[c][b, a] is chunk c's moment a B + b
    parts = []
    for lo in range(0, n_chunks * _CHUNK, _BLOCK * _CHUNK):
        xb = xs[lo:lo + _BLOCK * _CHUNK].reshape(-1, 1, _CHUNK)
        wb = ws[lo:lo + _BLOCK * _CHUNK].reshape(-1, _CHUNK)
        left = np.empty((xb.shape[0], _SPLIT + 1, 2, _CHUNK))
        left[:, 0, 0], left[:, 0, 1] = 1.0, 0.0
        left[:, 1, 0], left[:, 1, 1] = xb[:, 0], 1.0
        _chebyshev_rows(2.0 * xb, left)
        z = np.clip(left[:, _SPLIT, :1], -1.0, 1.0)
        q1 = (1.0 - xb[:, 0]) * (1.0 + xb[:, 0]) * left[:, _SPLIT, 1]
        # rows[:, :2] hold a = first, first + 1 of the next panel
        rows = np.empty((xb.shape[0], _PANEL + 2, 2, _CHUNK))
        rows[:, 0, 0], rows[:, 0, 1] = wb, 0.0
        rows[:, 1, 0], rows[:, 1, 1] = wb * z[:, 0], -(wb * q1)
        lhs = left[:, :_SPLIT].reshape(-1, _SPLIT, 2 * _CHUNK)
        block = [[] for _ in lhs]
        z2 = 2.0 * z
        for first in range(0, top // _SPLIT + 1, _PANEL):
            if first:
                rows[:, :2] = rows[:, _PANEL:]
            _chebyshev_rows(z2, rows)
            for out, l_c, r_c in zip(block, lhs, rows[:, :_PANEL]):
                out.append(l_c @ r_c.reshape(_PANEL, 2 * _CHUNK).T)
        parts += [np.concatenate(out, axis=1) for out in block]
    return pairwise_sum(np.stack(parts)).T.ravel()[:top + 1]


def _torus_profile(atoms: np.ndarray, coeffs: np.ndarray, irreps: list) -> np.ndarray:
    """|sum_k c_k exp(-2 pi i m.x_k)|^2 per torus irrep m."""
    labels = np.asarray([p.label for p in irreps], dtype=np.int64)
    top = int(np.abs(labels).max())
    j = np.arange(-top, top + 1)
    axes = [np.exp(-2j * np.pi * np.multiply.outer(atoms[:, d], j))
            for d in range(labels.shape[1])]
    out = np.empty(len(irreps))
    for lo in range(0, len(irreps), _TORUS_CHUNK):
        idx = labels[lo:lo + _TORUS_CHUNK] + top
        ph = axes[0][:, idx[:, 0]]
        for d in range(1, len(axes)):
            ph *= axes[d][:, idx[:, d]]
        ph *= coeffs[:, None]
        f = pairwise_sum(ph)
        out[lo:lo + idx.shape[0]] = f.real * f.real + f.imag * f.imag
    return out


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _chebyshev_error(extra: np.ndarray) -> np.ndarray:
    """E(extra)_k of hs_roundoff: rounding plus the start's error ``extra``."""
    E = np.array(extra, dtype=float)
    eps = np.zeros(E.size)
    for k in range(2, E.size):
        eps[k] = _U * ((4.0 + 2.0 * _U) * (1.0 + E[k - 1]) + 1.0 + E[k - 2])
        E[k] += eps[2:k + 1] @ np.arange(k - 1, 0, -1.0)
    return E


def _moment_errors(top: int, dx: float) -> np.ndarray:
    """Bound on |S^(m) - S(m)| per unit of sum |w|, m = 0..top."""
    m = np.arange(top + 1)
    a, b = np.divmod(m, _SPLIT)
    ai = np.arange(a[-1] + 1, dtype=float)
    E = _chebyshev_error(np.zeros(_SPLIT + 1))
    e_z = E[_SPLIT]
    K = _chebyshev_error(ai * _U + ai * ai * e_z)
    start = (1.0 + _U) * ((1.0 + _gamma(4)) * e_z + _gamma(4)) + _U
    lip = np.minimum((ai ** 3 - ai) / 3.0,
                     ai * ai / 2.0 + math.sqrt(2.0 * e_z) * (ai ** 3 - ai) / 3.0)
    H = _chebyshev_error(ai * start + lip * e_z)
    Eb, Ka, Ha = E[b], K[a], H[a]
    Z = (1.0 + Eb) * (2.0 + Ka + Ha)
    table = Eb * (1.0 + Ka) + Ka + Eb * (1.0 + Ha) + Ha
    return ((1.0 + _U) * (table + _gamma(2 * _CHUNK + _SUM_DEPTH) * Z)
            + _U + m * m * dx)


def hs_roundoff(G: groups.GroupDescriptor, irreps: list) -> np.ndarray:
    """A-priori bound on |hs_profile - exact value| at each irrep.

    It holds for any two probability measures, or one and Haar, of any
    size: it reads them only through sum_k |c_k| <= M = _MASS for the merged
    signed masses c (each weight vector sums to 1 within _WEIGHT_SUM_TOL).
    The exact value is the one for the stored masses and, on su2/so3, for
    the atoms scaled to unit norm.  A cut's Fourier sum then errs by at most
    the sum of d/kappa times these bounds over the irreps below it
    (CutoffSweep.roundoff).  Clamping at 0 only moves a value towards the
    exact one, which is nonnegative.

    Model: u = 2^-53, each operation is exact times (1 + t) with |t| <= u,
    gamma_k = k u / (1 - k u).  A BLAS dot product of length n errs by at
    most gamma_n times the sum of its terms' moduli, in any order.  A
    pairwise sum has depth at most _SUM_DEPTH = 63, since no array holds
    2^63 elements.

    Masses.  A merged mass is correctly rounded, so ||c^ - c||_1 <= u M.

    su2/so3.

    - Masses: a quadratic form with entries of modulus <= d moves by at
      most u (2 + u) M^2 d.
    - Arguments: canonicalize leaves every atom's norm within
      nu = (1 + u) / ((1 - gamma_4)^(1/2) (1 - u)) - 1 of 1, and y is a
      length-4 dot product, so y is within dy = (1 + nu)^2 (1 + gamma_4) - 1
      of the unit-norm cosine (clipping and |.| only help).  On so3,
      x = fl(2 y^2 - 1) is within dx = 4 dy + 3u + 2u^2.  |T_m'| <= m^2 on
      [-1, 1], so moment m moves by m^2 dx per unit of sum |w|.
    - Recurrences: a step fl(fl(2x p_k) - p_{k-1}) errs by at most
      u ((4 + 2u) |p^_k| + |p^_{k-1}|), and an error made at step j enters
      p_k times U_{k-j}(x), |U_i| <= i + 1.  For sequences bounded by 1
      (T_k, and s U_{k-1} = sin(k phi) with s = sqrt(1 - x^2)) whose start
      moves p_k by at most e_k, the error (times s for a U row) is at most
      E(e)_k = e_k + sum_{j=2..k} (k - j + 1) u ((4 + 2u)(1 + E(e)_{j-1})
      + 1 + E(e)_{j-2}) (_chebyshev_error).  The x rows start exactly:
      E = E(0), and z^ = clip(T^_B) is within E_B of z = T_B(x).
    - Rows in z, per unit |w^|.  w^ T_a(z^) starts with fl(w^ z^), off by
      u, which enters times |U_{a-1}| <= a, and T_a is a^2-Lipschitz: the
      row is within K = E(a u + a^2 E_B) of w^ T_a(z).  -w^ Q_a, with
      Q_a = s sin(aB phi), starts with fl(w^ fl(fl(1 - x) fl(1 + x)) U^_{B-1}),
      within s I of -w^ Q_1, I = (1 + u)((1 + gamma_4) E_B + gamma_4) + u,
      and that enters times |U_{a-1}| <= a.  Running in z^ instead of z
      moves Q_1 U_{a-1} by |Q_1| |U_{a-1}'(t)| E_B for some t between z and
      z^, where |Q_1| = s sqrt(1 - z^2); sqrt(1 - t^2) |U_{a-1}'(t)| <= a^2/2,
      sqrt(1 - z^2) <= sqrt(1 - t^2) + sqrt(2 E_B) and |U_{a-1}'| <=
      (a^3 - a)/3, so that move is at most s L_a E_B with L_a =
      min((a^3 - a)/3, a^2/2 + sqrt(2 E_B)(a^3 - a)/3).  The row is within
      s H, H = E(a I + L_a E_B).
    - Moments: T_m = T_b T_a(z) - U_{b-1} Q_a for m = a B + b.  Per unit
      |w^| the table products err by E_b (1 + K_a) + K_a + E_b (1 + H_a) + H_a,
      and the GEMM of length 2 _CHUNK with the pairwise sum over chunks by
      gamma_{2 _CHUNK + 63} Z, Z = (1 + E_b)(2 + K_a + H_a) bounding the two
      products' moduli.  |w^| <= (1 + u)|w| and w^ errs by u |w|, so with
      the argument, moment m errs by err_m = (1 + u)(tables + GEMM) + u +
      m^2 dx per unit of sum |w| <= W = (1 + u)^2 M^2 (_moment_errors).
    - Levels: a level sums mu_m S^(m) over q moments (_level_sums); cumsum
      adds gamma_{q-1} sum mu_m |S^(m)|, and |S^(m)| <= W (1 + err_m).  A
      level errs by at most W (sum mu_m err_m + gamma_{q-1} sum mu_m
      (1 + err_m)) + u (2 + u) M^2 d.

    Torus.  An axis table entry takes the angle fl(2 pi^ fl(x j)), within
    2 pi |j| gamma_3 of 2 pi j x, and cos and sin within one ulp (the bound
    glibc documents), so it is within eta_j = 2 pi |j| gamma_3 + sqrt(2) u
    of exp(-2 pi i j x).  The D - 1 complex products err by sqrt(2) gamma_2
    each, so a character is within e = prod_d (1 + eta_{m_d})
    (1 + sqrt(2) gamma_2)^(D-1) - 1.  The mass product, the pairwise sum
    over atoms and the masses' rounding put F^ = sum_k c^_k chi^_k within
    Delta = M (1 + u)(e + u (1 + e) + gamma_63 (1 + u)(1 + e)) + u M of F,
    and |F| <= M.  So |F^|^2 is within Delta (2 M + Delta), and
    re^2 + im^2 adds gamma_2 (M + Delta)^2.
    """
    if not irreps:
        return np.zeros(0)
    mass = _MASS
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.abs(np.asarray([p.label for p in irreps], dtype=float))
        eta = 2.0 * np.pi * m * _gamma(3) + math.sqrt(2.0) * _U
        # products of (1 + small) minus 1, without cancellation
        e = np.expm1(np.sum(np.log1p(eta), axis=1)
                     + (d_t - 1) * math.log1p(math.sqrt(2.0) * _gamma(2)))
        delta = (mass * (1.0 + _U) * (e + _U * (1.0 + e)
                                      + _gamma(_SUM_DEPTH) * (1.0 + _U) * (1.0 + e))
                 + _U * mass)
        return delta * (2.0 * mass + delta) + _gamma(2) * (mass + delta) ** 2
    nu = math.expm1(math.log1p(_U) - 0.5 * math.log1p(-_gamma(4)) - math.log1p(-_U))
    dx = 2.0 * nu + nu * nu + _gamma(4) * (1.0 + nu) ** 2
    if G.group_id == "so3":
        dx = 4.0 * dx + 3.0 * _U + 2.0 * _U * _U
    levels = np.asarray([p.label[0] for p in irreps])
    n = np.arange(int(levels.max()) + 1)
    err = _moment_errors(int(n[-1]), dx)
    q = n + 1 if G.group_id == "so3" else n // 2 + 1
    W = ((1.0 + _U) * mass) ** 2
    per_level = W * (_level_sums(G, err)
                     + _gamma(q - 1) * _level_sums(G, 1.0 + err))
    dims = np.asarray([p.dim for p in irreps], dtype=float)
    return per_level[levels] + _U * (2.0 + _U) * mass ** 2 * dims


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
    # rotation angles span [0, 4pi) on su2, where -1 is not the identity
    span = 4.0 * np.pi if G.group_id == "su2" else 2.0 * np.pi
    theta = span * (np.arange(n) + 0.5) / n
    w = (2.0 / n) * np.sin(theta / 2.0) ** 2
    pts = np.zeros((n, 4))
    pts[:, 0] = np.cos(theta / 2.0)
    pts[:, 3] = np.sin(theta / 2.0)
    if G.group_id == "so3":
        pts = groups.canonicalize(G, pts)
    return pts, w


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
