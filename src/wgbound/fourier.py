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

Torus irreps are the characters ``exp(2*pi*i m.x)`` as 1x1 blocks.  On
su2/so3 the character of the d-dimensional irrep is U_{d-1}(cos(theta/2)),
from the three-term Chebyshev recurrence.  measure_transforms gives a
measure's Fourier blocks at many irreps as plain complex (d, d) arrays,
whose norms are numpy's (np.linalg.norm), and measure_transform is its
one-irrep call.  On su2/so3 every block of one spin parity is read from
one frequency cube F[u, v, w] = sum_k w_k e^{i(a_k u + b_k v + c_k w)} of
the atoms' Euler angles, built as GEMMs and contracted with each level's
V: N n^3 / 2 multiply-adds for n weights of the top spin, against
N sum d^3 for the levels' own matrices.  The cube is built and contracted
in tiles, so its temporaries stay within _TRANSFORM_BYTES.

Squared HS distances between two measures at many irreps come from
character sums (hs_profile): prefix sums of Chebyshev moments of the class
cosines on su2/so3, and products of per-axis character tables on the torus.
hs_profile_rows profiles many signed measures on one shared support in one
pass: the cosines and the unweighted Chebyshev or character tables are
built once, and each measure's masses only weight them, in fixed-shape
GEMMs on su2/so3, with rows taken in groups of a fixed byte budget
(_ROW_BYTES).  hs_profile is one such row.  hs_roundoff bounds the rounding
error a priori, for measures of any size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import groups
from ._util import U, gamma, pairwise_sum

_WEIGHT_SUM_TOL = 1e-12

# hs_profile on su2/so3: moments m = a * _SPLIT + b, GEMMs of _PANEL values of
# a over _CHUNK pairs, tables built _BLOCK chunks at a time
_SPLIT = 16
_PANEL = 8
_CHUNK = 2048
_BLOCK = 4
# hs_profile on the torus: irreps per gathered product
_TORUS_CHUNK = 256
# hs_profile_rows: bytes of pair weights (or weighted torus columns) per
# group of rows
_ROW_BYTES = 1 << 22
# measure_transforms on su2/so3: bytes of the frequency cube's temporaries
_TRANSFORM_BYTES = 1 << 24
# hs_roundoff: |nu1 - nu2| mass bound, pairwise-sum depth
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
    x, y = nu1.atoms[:, None, :], nu2.atoms[None, :, :]
    atoms = (x + y if groups.torus_dim(G.group_id) is not None
             else groups.quaternion_product(x, y))
    weights = np.outer(nu1.weights, nu2.weights).ravel()
    # DiscreteMeasure canonicalizes the products
    return DiscreteMeasure(G.group_id, atoms.reshape(weights.size, -1), weights)


# ---------------------------------------------------------------------------
# irreducible matrices


def _spin_ladder(two_j: int) -> np.ndarray:
    """Real ladder L with L[k+1, k] = sqrt((2j - k)(k + 1))."""
    k = np.arange(two_j)
    L = np.zeros((two_j + 1, two_j + 1))
    L[k + 1, k] = np.sqrt((two_j - k) * (k + 1.0))
    return L


@lru_cache(maxsize=256)
def _jy_eigenbasis(two_j: int):
    """Weights m = k - j and eigenvectors V of -i A2 for one spin.

    ``A2 = derived_rep(e2)`` is real and skew-symmetric, so ``-i A2`` is
    Hermitian.  It is conjugate to the e3 generator ``diag(m)`` by a
    rotation, so its eigenvalues are exactly the weights, in the ascending
    order eigh returns, and ``expm(beta A2) = V diag(exp(i beta m)) V^*``.
    """
    L = _spin_ladder(two_j)
    V = np.linalg.eigh(-0.5j * (L - L.T))[1]
    return np.arange(two_j + 1) - two_j / 2.0, V


def _euler_angles(X: np.ndarray):
    """Angles (a, b, c) of q = exp(a e3) exp(b e2) exp(c e3), per quaternion.

    a and c lie in (-2pi, 2pi] and are not reduced mod 2pi, so half-integer
    weights carry the sign of the quaternion: D(-q) = (-1)^(2j) D(q).
    """
    w, x, y, z = X.T
    b = 2.0 * np.arctan2(np.hypot(x, y), np.hypot(w, z))
    s = np.arctan2(z, w)    # (a + c) / 2
    t = np.arctan2(x, y)    # (c - a) / 2
    return s - t, b, s + t


def irrep_matrices(G: groups.GroupDescriptor, irrep: groups.Irrep,
                   X: np.ndarray) -> np.ndarray:
    """Stacked unitary matrices of an irrep at a batch of elements, (N, d, d).

    On su2/so3 each quaternion is factored by _euler_angles and
    D = diag(e^{iam}) V diag(e^{ibm}) V^* diag(e^{icm}).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if groups.torus_dim(G.group_id) is not None:
        return characters(G, irrep, X).reshape(-1, 1, 1)
    a, b, c = _euler_angles(X)
    m, V = _jy_eigenbasis(irrep.dim - 1)
    n, d = X.shape[0], irrep.dim
    inner = V[None, :, :] * np.exp(1j * b[:, None] * m[None, :])[:, None, :]
    D = (inner.reshape(n * d, d) @ V.conj().T).reshape(n, d, d)
    D *= np.exp(1j * a[:, None] * m[None, :])[:, :, None]
    D *= np.exp(1j * c[:, None] * m[None, :])[:, None, :]
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
    # U_{d-1}(cos(theta/2)) by the three-term recurrence
    x2 = 2.0 * groups.class_cosines(G, X, groups.identity(G))[:, 0]
    u0, u1 = np.zeros_like(x2), np.ones_like(x2)
    for _ in range(irrep.dim - 1):
        u0, u1 = u1, x2 * u1 - u0
    return u1


def character(G: groups.GroupDescriptor, irrep: groups.Irrep, x) -> complex:
    val = characters(G, irrep, np.asarray(x, dtype=float)[None, :])[0]
    return complex(val)


def measure_transform(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                      irrep: groups.Irrep) -> np.ndarray:
    """Fourier block sum_k w_k pi(x_k)^* of a discrete measure, as a complex
    (d, d) array: measure_transforms at one irrep."""
    return measure_transforms(G, nu, [irrep])[0]


def measure_transforms(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                       irreps: list) -> list:
    """Fourier blocks sum_k w_k pi(x_k)^* of a discrete measure, one complex
    (d, d) array per irrep, in the order of irreps.

    On the torus each block is the conjugated character sum.  On su2/so3
    all blocks of one spin parity come from one frequency cube
    (_cube_blocks), whose temporaries stay within _TRANSFORM_BYTES.
    """
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    if groups.torus_dim(G.group_id) is not None:
        return [np.conj(np.tensordot(nu.weights, characters(G, p, nu.atoms),
                                     axes=(0, 0))).reshape(1, 1)
                for p in irreps]
    angles = _euler_angles(nu.atoms)
    spins = sorted({p.dim - 1 for p in irreps})
    blocks = {}
    for parity in (0, 1):
        same = [two_j for two_j in spins if two_j % 2 == parity]
        if same:
            blocks.update(_cube_blocks(angles, nu.weights, same))
    return [blocks[p.dim - 1] for p in irreps]


def transform_error(n_atoms: int, d: int) -> float:
    """Entrywise bound e(N) + e_D on |measure_transforms - sum_k w_k pi(x_k)^*|.

    For N = n_atoms atoms with weights summing to 1, blocks of dimension at
    most d and pi = irrep_matrices; u = 2^-53 as in hs_roundoff.  On the
    torus pi is a character, and a block's N-term sum is within e(N) for
    d = 1.  On su2/so3 both routes evaluate one matrix function pi~: the
    computed Euler angles, V and weights m, and the exact exponentials of
    the phase arguments fl(a m), which both form alike.  With cos and sin
    within one ulp (the bound glibc documents) a phase entry is within 2u
    of its exponential.  A product of two computed complex numbers adds at
    most 4u of their moduli, a complex sum of N products, in any order, at
    most 3 N u of their moduli's sum, and sum_r |V[p, r]| |V[q, r]| <= 1
    to working accuracy; these constants round 2 sqrt(2) u and
    2 sqrt(2) N u up, which covers second-order terms.

    - e(N) = (3 N + 3 d + 24) u bounds the distance to sum_k w_k pi~(x_k)^*:
      a cube term carries three phases (6u), the weight's product (2u) and
      two complex products (8u), and the N-term GEMM sums add 3 N u; the
      contraction's two products (8u) and d-term sums (3 d u) follow.  The
      exact cube has the mirror symmetry of _cube_blocks, as
      fl(-a m) = -fl(a m).
    - e_D = (3 d + 18) u bounds |pi - pi~|: V times the b phases (6u), the
      d-term product with V^* (3 d u), the a and c phases (6u each).
    """
    return (3.0 * n_atoms + 6.0 * d + 42.0) * U


def _cube_blocks(angles, weights: np.ndarray, spins: list) -> dict:
    """Blocks sum_k w_k D^j(x_k)^* for sorted spins 2j of one parity, by 2j.

    With D^j = diag(e^{iam}) V diag(e^{ibm}) V^* diag(e^{icm}) (irrep_matrices),
    sum_k w_k D^j(x_k)[p, q] = sum_r V[p, r] conj(V[q, r]) F[m_p, m_r, m_q] for
    the frequency cube F[u, v, w] = sum_k w_k e^{i(a_k u + b_k v + c_k w)}
    (the separation of Euler angles of SO(3) FFTs; Kostelec & Rockmore,
    JFAA 2008).  F does not depend on j, so one cube over the top spin's n
    weights serves every level, and a level reads its centred sub-cube.
    The weights are real and fl(-a m) = -fl(a m), so F[-u, -v, -w] =
    conj(F[u, v, w]): only the half w >= 0 is built, in tiles F[:, v0:v1,
    w0:w1] (_cube_tile), and each tile and its mirror are contracted with
    every level's V at once (_contract_tile).  That is N n^3 / 2
    multiply-adds in BLAS for the cube and about d^3 per level, where
    building each block from its N matrices takes N d^3.

    Temporaries: a tile, its mirror and a chunk's GEMM product take at most
    1/8 of _TRANSFORM_BYTES each, a chunk's phase products 1/4 and each of
    its three phase tables 1/16.  At most the tile, the previous tile's
    mirror, a chunk's tables, phase products and GEMM product are alive at
    once, 13/16 of _TRANSFORM_BYTES, for every n up to _TRANSFORM_BYTES /
    128.  Beside them are the blocks and a few arrays of N floats.
    """
    top = spins[-1]
    m = np.arange(top + 1) - top / 2.0
    n, h = m.size, m.size // 2    # m[h] is the first weight >= 0
    cell = _TRANSFORM_BYTES // (8 * 16)
    sw = min(n - h, max(1, cell // n))
    sv = min(n, max(1, cell // (n * sw)))
    rows = max(1, min(2 * cell // (sv * sw), cell // (2 * n)))
    # each level's sum and V, fetched once: the tiles visit every level
    levels = [(two_j, np.zeros((two_j + 1, two_j + 1), dtype=complex),
               _jy_eigenbasis(two_j)[1]) for two_j in spins]
    for v0 in range(0, n, sv):
        for w0 in range(h, n, sw):
            v, w = slice(v0, min(v0 + sv, n)), slice(w0, min(w0 + sw, n))
            F = _cube_tile(angles, weights, m, v, w, rows)
            _contract_tile(levels, top, F, v.start, w.start)
            F = np.conj(F[::-1, ::-1, ::-1])
            if w0 == h and n % 2:
                F = F[:, :, :-1]    # the column w = 0 is its own mirror
            _contract_tile(levels, top, F, n - v.stop, n - w.stop)
    return {two_j: np.conj(S, out=S).T for two_j, S, _ in levels}


def _cube_tile(angles, weights: np.ndarray, m: np.ndarray, v: slice, w: slice,
               rows: int) -> np.ndarray:
    """F[:, v, w] of the frequency cube on the weights m, shape (n, |v|, |w|).

    One GEMM (w_k e^{i a_k u}) @ (e^{i b_k v} e^{i c_k w}) per chunk of rows
    atoms, the chunks' products summed in place.
    """
    a, b, c = angles
    F = 0
    for lo in range(0, weights.size, rows):
        k = slice(lo, lo + rows)
        eu = weights[k, None] * np.exp(1j * a[k, None] * m)
        ev = np.exp(1j * b[k, None] * m[v])
        ew = np.exp(1j * c[k, None] * m[w])
        F += eu.T @ (ev[:, :, None] * ew[:, None, :]).reshape(eu.shape[0], -1)
    return F.reshape(m.size, ev.shape[1], ew.shape[1])


def _contract_tile(levels: list, top: int, F: np.ndarray, v0: int, w0: int):
    """Add a cube tile's terms to the sum S of every level (2j, S, V), in place.

    F holds the cube at weight indices (all, v0 + i, w0 + k).  Level 2j
    reads indices o..o+2j, o = (top - 2j) / 2, and gains
    sum_r V[p, r] F[o + p, o + r, o + q] conj(V[q, r]) over the r and q
    the tile holds.
    """
    v1, w1 = v0 + F.shape[1], w0 + F.shape[2]
    for two_j, S, V in levels:
        o, d = (top - two_j) // 2, two_j + 1
        r0, r1 = max(v0 - o, 0), min(v1 - o, d)
        q0, q1 = max(w0 - o, 0), min(w1 - o, d)
        if r0 < r1 and q0 < q1:
            T = F[o:o + d, o + r0 - v0:o + r1 - v0, o + q0 - w0:o + q1 - w0]
            S[:, q0:q1] += np.einsum("pr,prq,qr->pq", V[:, r0:r1], T,
                                     V[q0:q1, r0:r1].conj())


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distances by character sums


def _merged_atoms(nu1: DiscreteMeasure, nu2: Optional[DiscreteMeasure]):
    """Distinct atoms of the signed measure nu1 - nu2, with their nonzero masses.

    Repeated atoms (an empirical measure drawn with replacement, or an atom
    of both measures) are merged, which leaves every class-function sum
    unchanged.  Each merged mass is correctly rounded (_group_sums).
    """
    if nu2 is None:
        atoms, coeffs = nu1.atoms, nu1.weights
    else:
        atoms = np.concatenate([nu1.atoms, nu2.atoms], axis=0)
        coeffs = np.concatenate([nu1.weights, -nu2.weights])
    atoms, inverse = np.unique(atoms, axis=0, return_inverse=True)
    merged = _group_sums(inverse.ravel(), coeffs, atoms.shape[0])
    keep = merged != 0.0
    return atoms[keep], merged[keep]


def empirical_masses(source: DiscreteMeasure, picks: np.ndarray) -> np.ndarray:
    """Masses on source.atoms of nu_bar - source, nu_bar uniform on atoms[picks].

    Atom k carries count_k fl(1/N) - w_k, correctly rounded (_group_sums):
    the terms fl(1/N) of its picks come first, so an atom drawn once gets
    fl(fl(1/N) - w_k).
    """
    index = np.concatenate([picks, np.arange(source.size)])
    coeffs = np.concatenate([np.full(picks.size, 1.0 / picks.size), -source.weights])
    return _group_sums(index, coeffs, source.size)


def _group_sums(index: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Sums of coeffs[index == g] for g = 0..n-1, each correctly rounded.

    One term is exact, two take one addition (in index order), more take
    math.fsum.  hs_roundoff relies on this rule.
    """
    sums = np.bincount(index, weights=coeffs, minlength=n)
    counts = np.bincount(index, minlength=n)
    many = np.flatnonzero(counts > 2)
    if many.size:
        order = np.argsort(index, kind="stable")
        ends = np.cumsum(counts)
        for g in many:
            sums[g] = math.fsum(coeffs[order[ends[g] - counts[g]:ends[g]]])
    return sums


def hs_profile(G: groups.GroupDescriptor, nu1: DiscreteMeasure,
               nu2: Optional[DiscreteMeasure], irreps: list) -> np.ndarray:
    """Squared HS distances ||nu1^(pi) - nu2^(pi)||_HS^2 at many irreps at once.

    ``nu2=None`` stands for Haar.  The signed measure nu1 - nu2 is merged
    over repeated atoms (_merged_atoms) and profiled as one row of
    hs_profile_rows, which says how the values are computed.
    """
    atoms, coeffs = _merged_atoms(nu1, nu2)
    return hs_profile_rows(G, atoms, coeffs[None, :], irreps)[0]


def hs_profile_rows(G: groups.GroupDescriptor, atoms: np.ndarray,
                    masses: np.ndarray, irreps: list) -> np.ndarray:
    """hs_profile of R signed measures on one support, shape (R, len(irreps)).

    Row r is the signed measure with mass masses[r, k] at atoms[k] (atoms
    canonical, as DiscreteMeasure stores them), and its value at an irrep is
    the character sum sum_kl c_k c_l chi(x_k^-1 x_l), c = masses[r].

    On su2/so3 the characters are prefix sums of Chebyshev moments
    S(m) = sum_{k<=l} w_kl T_m(x_kl) over the upper triangle of atom pairs,
    with w_kl = 2 c_k c_l off the diagonal and c_k^2 on it:

    - su2, x = cos(theta/2): chi_n = U_n(x) = [n even] + 2 sum T_m(x) over
      0 < m <= n with m = n mod 2;
    - so3, x = cos(theta) = 2 cos(theta/2)^2 - 1: chi_l = U_2l(cos(theta/2))
      = 1 + 2 sum_{m=1..l} T_m(x).

    x comes from groups.class_cosines, once for all rows.  _cosine_moments
    builds the unweighted Chebyshev tables of the pairs once per group of
    rows; each row's pair weights then multiply the tables in its own
    fixed-shape GEMMs: about N^2 (top + 1) real multiply-adds in BLAS per
    row, and N^2 (_SPLIT + top/_SPLIT) recurrence steps per group, for N
    atoms.  On the torus every block is a scalar: per-axis tables of
    exp(-2 pi i j x_d) are built once, each irrep's column is their
    gathered product, and the columns, _TORUS_CHUNK irreps at a time, are
    weighted by each row's masses and summed pairwise over the atoms.

    Rows go through in groups whose pair weights (su2/so3) or weighted
    columns (torus) take at most about _ROW_BYTES, so memory does not grow
    with R.  A value comes from the same operations whatever other rows
    and irreps the call holds, so a row or a slice of irreps equals a
    separate call bit for bit, and an all-zero row reads 0.  hs_roundoff
    bounds the rounding error of every value when each row holds the
    correctly rounded masses of a signed measure with sum_k |c_k| <= _MASS.
    """
    masses = np.asarray(masses, dtype=float)
    out = np.zeros((masses.shape[0], len(irreps)))
    if not irreps or masses.shape[1] == 0:
        return out
    if groups.torus_dim(G.group_id) is not None:
        return _torus_profile(atoms, masses, irreps)
    k, l = np.triu_indices(masses.shape[1])
    x = groups.class_cosines(G, atoms, atoms)[k, l]
    if G.group_id == "so3":
        x = np.clip(2.0 * x * x - 1.0, -1.0, 1.0)
    pair = np.where(k == l, 1.0, 2.0)
    levels = np.asarray([p.label[0] for p in irreps])
    step = max(1, _ROW_BYTES // (8 * k.size))
    for lo in range(0, masses.shape[0], step):
        W = masses[lo:lo + step, k]
        W *= masses[lo:lo + step, l]
        W *= pair
        S = _cosine_moments(x, W, int(levels.max()))
        out[lo:lo + step] = np.maximum(_level_sums(G, S)[:, levels], 0.0)
    return out


def _level_sums(G: groups.GroupDescriptor, v: np.ndarray) -> np.ndarray:
    """Per level n = 0..top, the sum of mu_m v[..., m] over its moments.

    mu_0 = 1 and mu_m = 2 otherwise.  The moments of level n are m <= n with
    m = n mod 2 on su2 (n = 2j) and all m <= n on so3 (n = l).  Along the
    last axis, so each row of a 2-d v is summed on its own.
    """
    d = np.array(v, dtype=float)
    d[..., 1:] *= 2.0
    if G.group_id == "so3":
        return np.cumsum(d, axis=-1)
    d[..., 0::2] = np.cumsum(d[..., 0::2], axis=-1)
    d[..., 1::2] = np.cumsum(d[..., 1::2], axis=-1)
    return d


def _chebyshev_rows(x2: np.ndarray, rows: np.ndarray):
    """rows[:, r] = x2 * rows[:, r-1] - rows[:, r-2] for r >= 2, in place."""
    for r in range(2, rows.shape[1]):
        np.multiply(x2, rows[:, r - 1], out=rows[:, r])
        rows[:, r] -= rows[:, r - 2]


def _cosine_moments(x: np.ndarray, W: np.ndarray, top: int) -> np.ndarray:
    """S[r, m] = sum_p W[r, p] T_m(x_p) for m = 0..top, x in [-1, 1].

    With m = a B + b (B = _SPLIT, 0 <= b < B), z = T_B(x) and
    Q_a = (1 - x^2) U_{aB-1}(x) = (1 - x^2) U_{B-1}(x) U_{a-1}(z),
    T_m(x) = T_b(x) T_a(z) - U_{b-1}(x) Q_a.  Per chunk of _CHUNK pairs the
    rows [T_b, U_{b-1}] (b < B) come from Chebyshev recurrences in x, and
    the rows [T_a(z), -Q_a] from recurrences in z, _PANEL values of a at a
    time.  Both are unweighted and built once for all of W's rows; each
    row multiplies the z panel by its weights and takes one GEMM per panel,
    which gives the moments of B _PANEL consecutive m.  The chunks are
    padded with weight-0 pairs and summed pairwise, so every GEMM has the
    same shape and every moment the same operations whatever top and the
    other rows are.
    """
    n_chunks = -(-x.size // _CHUNK)
    xs = np.ones(n_chunks * _CHUNK)
    ws = np.zeros((W.shape[0], n_chunks * _CHUNK))
    xs[:x.size] = x
    ws[:, :x.size] = W
    # parts[r][c][b, a] is row r's moment a B + b of chunk c
    parts = [[] for _ in ws]
    for lo in range(0, n_chunks * _CHUNK, _BLOCK * _CHUNK):
        xb = xs[lo:lo + _BLOCK * _CHUNK].reshape(-1, 1, _CHUNK)
        wb = ws[:, lo:lo + _BLOCK * _CHUNK].reshape(ws.shape[0], -1, 1, 1, _CHUNK)
        left = np.empty((xb.shape[0], _SPLIT + 1, 2, _CHUNK))
        left[:, 0, 0], left[:, 0, 1] = 1.0, 0.0
        left[:, 1, 0], left[:, 1, 1] = xb[:, 0], 1.0
        _chebyshev_rows(2.0 * xb, left)
        z = np.clip(left[:, _SPLIT, :1], -1.0, 1.0)
        # rows[:, :2] hold a = first, first + 1 of the next panel
        rows = np.empty((xb.shape[0], _PANEL + 2, 2, _CHUNK))
        rows[:, 0, 0], rows[:, 0, 1] = 1.0, 0.0
        rows[:, 1, 0] = z[:, 0]
        rows[:, 1, 1] = -((1.0 - xb[:, 0]) * (1.0 + xb[:, 0]) * left[:, _SPLIT, 1])
        lhs = left[:, :_SPLIT].reshape(-1, _SPLIT, 2 * _CHUNK)
        blocks = [[[] for _ in lhs] for _ in ws]
        weighted = np.empty((_PANEL, 2, _CHUNK))
        z2 = 2.0 * z
        for first in range(0, top // _SPLIT + 1, _PANEL):
            if first:
                rows[:, :2] = rows[:, _PANEL:]
            _chebyshev_rows(z2, rows)
            for block, w in zip(blocks, wb):
                for out, l_c, r_c, w_c in zip(block, lhs, rows, w):
                    np.multiply(r_c[:_PANEL], w_c, out=weighted)
                    out.append(l_c @ weighted.reshape(_PANEL, 2 * _CHUNK).T)
        for part, block in zip(parts, blocks):
            part += [np.concatenate(out, axis=1) for out in block]
    return np.stack([pairwise_sum(np.stack(part)).T.ravel()[:top + 1]
                     for part in parts])


def _torus_profile(atoms: np.ndarray, masses: np.ndarray, irreps: list) -> np.ndarray:
    """|sum_k c_k exp(-2 pi i m.x_k)|^2 per row c of masses and torus irrep m."""
    labels = np.asarray([p.label for p in irreps], dtype=np.int64)
    top = int(np.abs(labels).max())
    j = np.arange(-top, top + 1)
    axes = [np.exp(-2j * np.pi * np.multiply.outer(atoms[:, d], j))
            for d in range(labels.shape[1])]
    step = max(1, _ROW_BYTES // (16 * atoms.shape[0] * _TORUS_CHUNK))
    out = np.empty((masses.shape[0], len(irreps)))
    for lo in range(0, len(irreps), _TORUS_CHUNK):
        idx = labels[lo:lo + _TORUS_CHUNK] + top
        ph = axes[0][:, idx[:, 0]]
        for d in range(1, len(axes)):
            ph *= axes[d][:, idx[:, d]]
        for r in range(0, masses.shape[0], step):
            # (atoms, rows, irreps), summed over the atoms
            f = pairwise_sum(ph[:, None, :] * masses[r:r + step].T[:, :, None])
            out[r:r + step, lo:lo + idx.shape[0]] = f.real * f.real + f.imag * f.imag
    return out


def _chebyshev_error(extra: np.ndarray) -> np.ndarray:
    """E(extra)_k of hs_roundoff: rounding plus the start's error ``extra``."""
    E = np.array(extra, dtype=float)
    eps = np.zeros(E.size)
    for k in range(2, E.size):
        eps[k] = U * ((4.0 + 2.0 * U) * (1.0 + E[k - 1]) + 1.0 + E[k - 2])
        E[k] += eps[2:k + 1] @ np.arange(k - 1, 0, -1.0)
    return E


def _moment_errors(top: int, dx: float) -> np.ndarray:
    """Bound on |S^(m) - S(m)| per unit of sum |w|, m = 0..top."""
    m = np.arange(top + 1)
    a, b = np.divmod(m, _SPLIT)
    ai = np.arange(a[-1] + 1, dtype=float)
    E = _chebyshev_error(np.zeros(_SPLIT + 1))
    e_z = E[_SPLIT]
    K = _chebyshev_error(ai * U + ai * ai * e_z)
    start = (1.0 + U) * ((1.0 + gamma(4)) * e_z + gamma(4)) + U
    lip = np.minimum((ai ** 3 - ai) / 3.0,
                     ai * ai / 2.0 + math.sqrt(2.0 * e_z) * (ai ** 3 - ai) / 3.0)
    H = _chebyshev_error(ai * start + lip * e_z)
    Eb, Ka, Ha = E[b], K[a], H[a]
    Z = (1.0 + Eb) * (2.0 + Ka + Ha)
    table = Eb * (1.0 + Ka) + Ka + Eb * (1.0 + Ha) + Ha
    return ((1.0 + U) * (table + gamma(2 * _CHUNK + _SUM_DEPTH) * Z)
            + U + m * m * dx)


def hs_roundoff(G: groups.GroupDescriptor, irreps: list) -> np.ndarray:
    """A-priori bound on |hs_profile - exact value| at each irrep.

    It holds for any two probability measures, or one and Haar, of any
    size: it reads them only through sum_k |c_k| <= M = _MASS for the merged
    signed masses c (each weight vector sums to 1 within _WEIGHT_SUM_TOL).
    It holds as well for every row of hs_profile_rows whose masses are the
    correctly rounded values of such a c, as _group_sums forms them for
    _merged_atoms and empirical_masses.  The exact value is the one for the
    stored masses and, on su2/so3, for the atoms scaled to unit norm.  A
    cut's Fourier sum then errs by at most the sum of d/kappa times these
    bounds over the irreps below it (CutoffSweep.roundoff).  Clamping at 0
    only moves a value towards the exact one, which is nonnegative.

    Model: u = _util.U = 2^-53 and gamma_k = _util.gamma(k).  A BLAS dot
    product of length n errs by at most gamma_n times the sum of its
    terms' moduli, in any order.  A pairwise sum has depth at most
    _SUM_DEPTH = 63, since no array holds 2^63 elements.

    Masses.  A merged mass is correctly rounded (_group_sums), so
    ||c^ - c||_1 <= u M.

    su2/so3.

    - Masses: a quadratic form with entries of modulus <= d moves by at
      most u (2 + u) M^2 d.
    - Arguments: canonicalize leaves every atom's norm within
      nu = (1 + 6u) / ((1 - gamma_4)^(1/2) (1 - u)) - 1 of 1 (it leaves a
      quaternion whose computed norm is within groups.UNIT_NORM_TOL = 6u of
      1 as it is, so that it is idempotent), and y is a
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
    - Rows in z.  The recurrences in z run unweighted, and a pair's weight
      w^ enters afterwards as one product fl(w^ t) with each table entry t.
      T_a(z^) starts exactly from 1 and z^, and T_a is a^2-Lipschitz, so
      its row is within k_a = E(a^2 E_B)_a of T_a(z).  -Q_a, with
      Q_a = s sin(aB phi), starts from -fl(fl(fl(1 - x) fl(1 + x)) U^_{B-1})
      within s I_0 of -Q_1, I_0 = (1 + gamma_4) E_B + gamma_4, and that
      enters times |U_{a-1}| <= a.  Running in z^ instead of z moves
      Q_1 U_{a-1} by |Q_1| |U_{a-1}'(t)| E_B for some t between z and z^,
      where |Q_1| = s sqrt(1 - z^2); sqrt(1 - t^2) |U_{a-1}'(t)| <= a^2/2,
      sqrt(1 - z^2) <= sqrt(1 - t^2) + sqrt(2 E_B) and |U_{a-1}'| <=
      (a^3 - a)/3, so that move is at most s L_a E_B with L_a =
      min((a^3 - a)/3, a^2/2 + sqrt(2 E_B)(a^3 - a)/3).  The row is within
      s h_a, h_a = E(a I_0 + L_a E_B)_a.  The weight's product adds u times
      the entry's modulus: per unit |w^| the weighted rows are within
      k_a + u (1 + k_a) of w^ T_a(z) and s (h_a + u (1 + h_a)) of -w^ Q_a;
      for a = 0 (entries 1 and 0) they are exact.  Both are at most
      K = E(a u + a^2 E_B) and s H, H = E(a I + L_a E_B),
      I = (1 + u) I_0 + u, the bounds of the rows when w^ seeded the
      recurrences: E(e + d) >= E(e) + d for d >= 0, so K_a >= k_a + a u
      and H_a >= h_a + a u, and a u >= u (1 + k_a), u (1 + h_a) for
      a >= 2 because k_a, h_a < 7e-14 a^2 < 1 for every a < 10^6;
      for a = 1, k_1 = E_B, h_1 = I_0 and K_1 = u + E_B, H_1 = I.
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
        eta = 2.0 * np.pi * m * gamma(3) + math.sqrt(2.0) * U
        # products of (1 + small) minus 1, without cancellation
        e = np.expm1(np.sum(np.log1p(eta), axis=1)
                     + (d_t - 1) * math.log1p(math.sqrt(2.0) * gamma(2)))
        delta = (mass * (1.0 + U) * (e + U * (1.0 + e)
                                     + gamma(_SUM_DEPTH) * (1.0 + U) * (1.0 + e))
                 + U * mass)
        return delta * (2.0 * mass + delta) + gamma(2) * (mass + delta) ** 2
    nu = math.expm1(math.log1p(groups.UNIT_NORM_TOL) - 0.5 * math.log1p(-gamma(4))
                    - math.log1p(-U))
    dx = 2.0 * nu + nu * nu + gamma(4) * (1.0 + nu) ** 2
    if G.group_id == "so3":
        dx = 4.0 * dx + 3.0 * U + 2.0 * U * U
    levels = np.asarray([p.label[0] for p in irreps])
    n = np.arange(int(levels.max()) + 1)
    err = _moment_errors(int(n[-1]), dx)
    q = n + 1 if G.group_id == "so3" else n // 2 + 1
    W = ((1.0 + U) * mass) ** 2
    per_level = W * (_level_sums(G, err)
                     + gamma(q - 1) * _level_sums(G, 1.0 + err))
    dims = np.asarray([p.dim for p in irreps], dtype=float)
    return per_level[levels] + U * (2.0 + U) * mass ** 2 * dims


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
    blocks = measure_transforms(G, nu, groups.enumerate_irreps(G, M))
    return max((float(np.linalg.norm(b, 2)) for b in blocks), default=0.0)


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
    two_j = irrep.dim - 1
    L = _spin_ladder(two_j)
    A1 = -0.5j * (L + L.T)
    A2 = 0.5 * (L - L.T)
    A3 = 1j * np.diag(np.arange(two_j + 1) - two_j / 2.0)
    return X[0] * A1 + X[1] * A2 + X[2] * A3


# ---------------------------------------------------------------------------
# Laplacian consistency oracle

_PROBE_SEED = 20240817  # fixed so the oracle is deterministic

_STENCILS = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12), (1, 16.0 / 12), (2, -1.0 / 12)),
}


def casimir_residual(G: groups.GroupDescriptor, irrep: groups.Irrep, h: float,
                     order: int = 4) -> float:
    """Relative defect of the finite-difference Laplacian on irrep entries.

    Applies a central second-difference stencil (order 2 or 4) along an
    orthonormal basis of the Lie algebra at the identity and eight fixed
    pseudo-random probe points, and compares against ``-casimir * matrix``.
    Returns the worst relative Frobenius defect over the probes.
    """
    if order not in _STENCILS:
        raise ValueError(f"stencil order must be one of {sorted(_STENCILS)}")
    if irrep.casimir == 0:
        return 0.0  # trivial irrep: constant entries, zero Laplacian exactly
    if irrep.casimir < 0:
        raise ValueError("negative casimir")
    if not (h > 0):
        raise ValueError("step h must be positive")
    probes = [groups.identity(G)]
    probes.extend(groups.haar_sample(G, _PROBE_SEED, 8))
    dim_alg = G.n
    basis = np.eye(dim_alg)
    stencil = _STENCILS[order]
    worst = 0.0
    for x in probes:
        base = irrep_matrix(G, irrep, x)
        acc = np.zeros_like(base)
        for k in range(dim_alg):
            for shift, coef in stencil:
                if shift == 0:
                    acc += coef * base
                    continue
                step = groups.exp_map(G, shift * h * basis[k])
                acc += coef * irrep_matrix(G, irrep, groups.multiply(G, x, step))
        lap = acc / (h * h)
        defect = np.linalg.norm(lap + irrep.casimir * base, "fro")
        worst = max(worst, defect / (irrep.casimir * np.linalg.norm(base, "fro")))
    return worst


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
