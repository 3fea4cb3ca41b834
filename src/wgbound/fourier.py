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
from the three-term Chebyshev recurrence.  Functions of many irreps take
the label rows of groups.spectral_data, the others one groups.Irrep.
measure_transforms gives a measure's Fourier blocks at many irreps as
plain complex (d, d) arrays, whose norms are numpy's (np.linalg.norm), and
measure_transform is its one-irrep call.  On su2/so3 every block of one
spin parity is read from one frequency cube F[u, v, w] = sum_k w_k
e^{i(a_k u + b_k v + c_k w)} of the atoms' Euler angles, built as GEMMs and
contracted with each level's V: N n^3 / 2 multiply-adds for n weights of
the top spin, against N sum d^3 for the levels' own matrices.  The cube is
built and contracted in tiles, so its temporaries stay within
_TRANSFORM_BYTES.

Squared HS distances between two measures at many irreps come from
character sums (hs_profile): prefix sums of the cosine moments
sum_p w_p cos(m phi_p) of the atom pairs' class angles on su2/so3, and
products of per-axis character tables on the torus.  On su2/so3 the
moments come by Gaussian gridding (Dutt & Rokhlin 1993; Steidl 1998): each
pair is spread onto a fixed stencil of a uniform grid of N points, and the
moments are a cosine transform of the N/2 + 1 node values, deconvolved by
the Gaussian's Fourier coefficients: about 3 _SPREAD P + (N/2) top
multiply-adds per measure for P pairs, instead of P top.  hs_profile_rows
profiles many signed measures on one shared support in one pass: the class
angles, the kernel tables and the character tables are built from the
support alone, and each measure's masses only weight them, in GEMMs whose
shapes the support alone fixes, with su2/so3 rows in GEMMs of _ROWS rows.
hs_profile is one such row.  hs_roundoff bounds the rounding error a
priori, for measures of any size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import groups
from ._util import COSINE_BLOCK, U, cosine_sum, cosine_tables, gamma, pairwise_sum

_WEIGHT_SUM_TOL = 1e-12

# hs_profile on su2/so3, by Gaussian gridding: moment m < _MOMENTS _LADDER^g
# is read from grid g, the first that holds it, of N = 4 _MOMENTS _LADDER^g
# points on the circle (oversampling 2), so every moment comes from the same
# grid whatever top is.  A pair is spread with exp(-_BETA (i - x)^2) onto
# the nodes i of its tile of _SPREAD nodes and _SPREAD more on either side,
# in GEMMs of _ROWS rows by at most _PAIRS pairs; _BETA = 3 pi / (4
# _SPREAD) makes the aliases and the cut about e^{-2 pi _SPREAD / 3}.  The
# moments come from the nodes _PANEL at a time
_MOMENTS = 1024
_LADDER = 8
_SPREAD = 16
_BETA = 3.0 * math.pi / (4.0 * _SPREAD)
_PAIRS = 512
_ROWS = 4
_PANEL = 128
# hs_profile on the torus: GEMMs over tiles of _TILE frequencies per axis
# and chunks of at most _TORUS_ATOMS atoms
_TILE = 32
_TORUS_ATOMS = 64
# hs_profile_rows on su2/so3: bytes of temporaries per batch of rows, each
# row counted at _row_doubles; _spread builds its kernel tables for runs of
# _RUN_PAIRS pairs, 3 _SPREAD _RUN_PAIRS doubles (1 MiB) each
_ROW_BYTES = 1 << 24
_RUN_PAIRS = (1 << 20) // (8 * 3 * _SPREAD)
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


def measure_transform(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                      irrep: groups.Irrep) -> np.ndarray:
    """Fourier block sum_k w_k pi(x_k)^* of a discrete measure, as a complex
    (d, d) array: measure_transforms at one irrep."""
    return measure_transforms(G, nu, np.asarray([irrep.label]))[0]


def measure_transforms(G: groups.GroupDescriptor, nu: DiscreteMeasure,
                       labels: np.ndarray) -> list:
    """Fourier blocks sum_k w_k pi(x_k)^* of a discrete measure, one complex
    (d, d) array per label row (groups.spectral_data), in their order.

    On the torus each block is the conjugated character sum.  On su2/so3
    all blocks of one spin parity come from one frequency cube
    (_cube_blocks), whose temporaries stay within _TRANSFORM_BYTES.
    """
    if nu.group_id != G.group_id:
        raise ValueError("measure/group mismatch")
    if groups.torus_dim(G.group_id) is not None:
        return [np.conj(np.tensordot(nu.weights, np.exp(2j * np.pi * (nu.atoms @ m)),
                                     axes=(0, 0))).reshape(1, 1)
                for m in labels.astype(float)]
    angles = _euler_angles(nu.atoms)
    spins = groups.doubled_spins(G, labels).tolist()
    blocks = {}
    for parity in (0, 1):
        same = sorted({two_j for two_j in spins if two_j % 2 == parity})
        if same:
            blocks.update(_cube_blocks(angles, nu.weights, same))
    return [blocks[two_j] for two_j in spins]


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


def merged_atoms(nu1: DiscreteMeasure, nu2: Optional[DiscreteMeasure]):
    """Distinct atoms of nu1 - nu2 (nu2=None: Haar) and its nonzero masses in
    one row of hs_profile_rows, shape (1, n): the pair counterpart of
    empirical_masses.

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
    return atoms[keep], merged[None, keep]


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
    """Squared HS distances ||nu1^(pi) - nu2^(pi)||_HS^2 at a list of Irreps.

    ``nu2=None`` stands for Haar.  The signed measure nu1 - nu2 is merged
    over repeated atoms (merged_atoms) and profiled as one row of
    hs_profile_rows, which says how the values are computed.
    """
    labels = np.asarray([p.label for p in irreps])
    return hs_profile_rows(G, *merged_atoms(nu1, nu2), labels)[0]


def hs_profile_rows(G: groups.GroupDescriptor, atoms: np.ndarray,
                    masses: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """hs_profile of R signed measures on one support, shape (R, len(labels)).

    Row r is the signed measure with mass masses[r, k] at atoms[k] (atoms
    canonical, as DiscreteMeasure stores them), and its value at a label
    row's irrep is the character sum sum_kl c_k c_l chi(x_k^-1 x_l), c = masses[r].

    On su2/so3 the characters are prefix sums of Chebyshev moments
    S(m) = sum_{k<=l} w_kl T_m(x_kl) over the upper triangle of atom pairs,
    with w_kl = 2 c_k c_l off the diagonal and c_k^2 on it:

    - su2, x = cos(theta/2): chi_n = U_n(x) = [n even] + 2 sum T_m(x) over
      0 < m <= n with m = n mod 2;
    - so3, x = cos(theta) = 2 cos(theta/2)^2 - 1: chi_l = U_2l(cos(theta/2))
      = 1 + 2 sum_{m=1..l} T_m(x).

    x comes from groups.class_cosines, once for all rows, and with
    phi = acos x, T_m(x) = cos(m phi): the moments are a cosine transform of
    the P = N(N + 1)/2 pairs' angles, for N atoms.  Gaussian gridding
    (_gridded_moments, _spread) spreads each pair onto a fixed stencil of
    nodes of a uniform grid, in GEMMs of the rows' pair weights with kernel
    tables that the support alone fixes, and reads the moments off the
    nodes by a split-angle cosine sum: about 3 _SPREAD P multiply-adds per
    row for the stencils and (N / 2) top for the moments, on a grid of N
    points, where a direct sum takes P top.  Rows go through in batches
    whose temporaries take at most about _ROW_BYTES (_row_doubles), and in
    GEMMs of _ROWS rows, so memory does not grow with R or P.  On the torus every
    block is a scalar: per-axis tables of
    exp(-2 pi i j x_d) are built once, in tiles of _TILE frequencies, and
    each row takes one complex GEMM per tile of labels (_torus_profile):
    about N (2 top + 1)^D complex multiply-adds for labels up to
    |m_d| <= top on torus(D).

    Every GEMM's shape is fixed by the support alone, and a value comes
    from the same operations whatever other rows and labels the call holds,
    so a row or a slice of labels equals a separate call bit for bit, and
    an all-zero row reads 0.  (This rests on BLAS giving a GEMM row the
    same bits at any row position within one fixed shape, which holds for
    OpenBLAS 0.3.31; it does not give the same bits to shapes of
    different heights.)  hs_roundoff bounds the rounding error of every
    value when each row holds the correctly rounded masses of a signed
    measure with sum_k |c_k| <= _MASS.
    """
    masses = np.asarray(masses, dtype=float)
    out = np.zeros((masses.shape[0], len(labels)))
    if not len(labels) or masses.shape[1] == 0:
        return out
    if groups.torus_dim(G.group_id) is not None:
        return _torus_profile(atoms, masses, labels)
    k, l = np.triu_indices(masses.shape[1])
    x = groups.class_cosines(G, atoms, atoms)[k, l]
    if G.group_id == "so3":
        x = np.clip(2.0 * x * x - 1.0, -1.0, 1.0)
    levels = labels[:, 0]
    top = int(levels.max())
    phi = np.arccos(x)
    pair = np.where(k == l, 1.0, 2.0)
    step = max(1, _ROW_BYTES // (8 * _row_doubles(k.size, top)))
    for lo in range(0, masses.shape[0], step):
        c = masses[lo:lo + step]
        W = c[:, k]
        W *= c[:, l]
        W *= pair
        S = _gridded_moments(phi, W, top)
        out[lo:lo + step] = np.maximum(_level_sums(G, S)[:, levels], 0.0)
    return out


def _row_doubles(pairs: int, top: int) -> int:
    """Doubles that one row of hs_profile_rows holds at once on su2/so3, at
    most about: its pair weights (pairs) and one tile's chunk sums in
    _spread (at most 3 _SPREAD per _PAIRS pairs), two runs of _RUN_PAIRS
    pair weights, the bands and nodes of the largest grid (2 N) and the
    moments and level sums (2 top)."""
    return pairs + pairs // 8 + 2 * _RUN_PAIRS + 2 * _grid_points(top) + 2 * top


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


def _chunks(n: int, most: int):
    """Count and length of the chunks that cut n items into pieces of at most
    most: ceil(n / most) chunks of ceil(n / count) items, the last one
    short by fewer than count items."""
    count = -(-n // most)
    return count, -(-n // count)


def _grid_points(m):
    """Points N = 4 _MOMENTS _LADDER^g of the grid g that holds moment m:
    the first with m < _MOMENTS _LADDER^g.  Elementwise on an array of m."""
    m = np.asarray(m)
    N = np.full(m.shape, 4 * _MOMENTS)
    while np.any(far := m >= N // 4):
        N[far] *= _LADDER
    return int(N) if N.ndim == 0 else N


def _gridded_moments(phi: np.ndarray, W: np.ndarray, top: int) -> np.ndarray:
    """S[r, m] = sum_p W[r, p] cos(m phi_p) for m = 0..top, phi in [0, pi].

    Moments m < _MOMENTS come from grid 0 of N points, the next ones from
    grid 1, and so on (_grid_points).  With the node values v of _spread
    on the nodes 0..N/2, S(m) = sqrt(_BETA / pi) e^{m^2 tau} sum_j v_j
    cos(2 pi m j / N), tau = (pi / N)^2 / _BETA (hs_roundoff derives it).
    Node N/2 - j has cosine (-1)^m cos(2 pi m j / N), so even moments sum
    v_j + v_{N/2-j} and odd ones v_j - v_{N/2-j} over j = 0..N/4 (node N/4
    once).  Each sum is _util.cosine_sum over the even or odd half of a
    panel of _PANEL moments, with one GEMM per group of _ROWS rows (the last
    one padded with zero rows), so every GEMM has a shape that the support
    alone fixes, and every moment the same operations whatever top and the
    other rows are.
    """
    rows = -(-W.shape[0] // _ROWS) * _ROWS
    S = np.empty((rows, -(-(top + 1) // _PANEL) * _PANEL))
    lo = 0
    while lo <= top:
        points = _grid_points(lo)
        v, h = _spread(phi, W, points, rows), points // 4
        # u[0] = v_j + v_{N/2-j} and u[1] = v_j - v_{N/2-j}, zero past node N/4
        u = np.zeros((2, rows, -(-(h + 1) // COSINE_BLOCK) * COSINE_BLOCK))
        np.add(v[:, :h], v[:, 2 * h:h:-1], out=u[0, :, :h])
        np.subtract(v[:, :h], v[:, 2 * h:h:-1], out=u[1, :, :h])
        u[:, :, h] = v[:, h]
        for m0 in range(lo, min(top + 1, h), _PANEL):
            for parity in (0, 1):
                m = np.arange(m0 + parity, m0 + _PANEL, 2)
                tables = _panel_tables(points, m0, parity)
                scale = np.sqrt(_BETA / np.pi) * np.exp((np.pi * m / points) ** 2 / _BETA)
                sums = cosine_sum(u[parity].reshape(-1, _ROWS, u.shape[2]), tables)
                S[:, m0 + parity:m0 + _PANEL:2] = (
                    sums.transpose(0, 2, 1).reshape(rows, -1) * scale)
        lo = h
    return S[:W.shape[0], :top + 1]


@lru_cache(maxsize=32)
def _panel_tables(points: int, m0: int, parity: int):
    """cosine_tables of the moments m0 + parity, m0 + parity + 2, ... below
    m0 + _PANEL on the grid of points, for the N/4 + 1 folded nodes padded
    to whole COSINE_BLOCKs; read-only, kept for the next call."""
    nodes = -(-(points // 4 + 1) // COSINE_BLOCK) * COSINE_BLOCK
    tables = cosine_tables(np.arange(m0 + parity, m0 + _PANEL, 2) / points, nodes)
    for t in tables:
        t.flags.writeable = False
    return tables


def _spread(phi: np.ndarray, W: np.ndarray, points: int, rows: int) -> np.ndarray:
    """Node values v[r, j] = sum_p W[r, p] exp(-_BETA (i - x_p)^2), summed
    over the nodes i that fold onto j = 0..N/2 (i = j, -j or N - j) of the
    grid of N points, for x_p = phi_p N / (2 pi) and each pair's kernel cut
    to the band of its tile; W padded with zero rows to rows.

    Tile t holds the pairs with t T <= x < (t + 1) T, T = _SPREAD, and its
    band the 3 T nodes from t T - T, so each pair reaches at least T nodes
    to either side.  With d = x - c for c = t T + T / 2 and the band's
    offsets j = i - c, exp(-_BETA (j - d)^2) = e^{-_BETA d^2} (e^{2 _BETA
    d})^j e^{-_BETA j^2}: the kernel table (_kernel_table) holds the first
    two factors, and the GEMMs of the pair weights with it are scaled by
    the third.  A tile's pairs go in ceil(count / _PAIRS) chunks whose
    lengths differ by at most one, and the chunks' GEMMs are summed
    pairwise.  The kernel tables and the pair weights beside them are built
    for runs of whole chunks of at most _RUN_PAIRS pairs.  The bands
    add into the nodes, three to a node, and the nodes past 0 and N/2 fold
    onto their mirrors: the measure is even.
    """
    T = _SPREAD
    tiles, half = points // (2 * T) + 1, points // 2
    x = phi * (points / (2.0 * math.pi))
    tile = (x / T).astype(np.int64)
    # pairs by tile, in their given order within a tile (a radix sort)
    order = np.argsort(tile.astype(np.min_scalar_type(tiles)), kind="stable")
    counts = np.bincount(tile, minlength=tiles)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    d = x[order] - np.repeat(np.arange(tiles) * T + T // 2, counts)
    j = np.arange(3 * T) - 3 * T // 2
    gauss = np.exp(-_BETA * (j * j))
    weights = np.zeros((rows, _RUN_PAIRS))
    # bands[t] holds tile t's band, nodes t T - T..t T + 2 T - 1
    bands = np.zeros((tiles, rows, 3 * T))
    parts = []
    for lo, hi, runs in _pieces(bounds, _RUN_PAIRS):
        table = _kernel_table(d[lo:hi])
        weights[:W.shape[0], :hi - lo] = W[:, order[lo:hi]]
        for t, a, count, size in runs:
            a -= lo
            w = weights[:, a:a + count * size].reshape(-1, _ROWS, count, size)
            e = table[:, a:a + count * size].reshape(3 * T, count, size)
            parts.append(w.transpose(2, 0, 1, 3) @ e.transpose(1, 2, 0)[:, None])
            if lo + a + count * size == bounds[t + 1]:
                out = pairwise_sum(parts[0] if len(parts) == 1 else np.concatenate(parts))
                bands[t] = out.reshape(rows, 3 * T)
                parts = []
    bands *= gauss
    # the nodes -T..(tiles + 1) T - 1 in blocks of T: band t covers blocks t..t+2
    ext = np.zeros((rows, tiles + 2, T))
    for k in range(3):
        ext[:, k:k + tiles] += bands[:, :, k * T:(k + 1) * T].transpose(1, 0, 2)
    ext = ext.reshape(rows, -1)
    v = ext[:, T:T + half + 1]
    v[:, 1:T + 1] += ext[:, T - 1::-1]
    beyond = ext.shape[1] - (T + half + 1)
    v[:, half - 1:half - 1 - beyond:-1] += ext[:, T + half + 1:]
    return v


def _pieces(bounds: np.ndarray, budget: int):
    """Runs (t, start, count, size) of count equal-length chunks of the
    pairs of tile t, which has pairs bounds[t]..bounds[t+1]-1, grouped into
    pieces (lo, hi, runs) of consecutive pairs lo..hi-1, at most budget.

    A tile's pairs go in ceil(count / _PAIRS) chunks whose lengths differ
    by at most one, the longer ones first.
    """
    lo, a, runs = 0, 0, []
    for t in np.flatnonzero(np.diff(bounds)):
        a, b = int(bounds[t]), int(bounds[t + 1])
        count = -(-(b - a) // _PAIRS)
        size, longer = divmod(b - a, count)
        for n_chunks, length in ((longer, size + 1), (count - longer, size)):
            while n_chunks:
                if lo + budget - a < length:
                    yield lo, a, runs
                    lo, runs = a, []
                take = min(n_chunks, (lo + budget - a) // length)
                runs.append((t, a, take, length))
                a += take * length
                n_chunks -= take
    yield lo, a, runs


def _kernel_table(d: np.ndarray) -> np.ndarray:
    """E[i, p] = e^{-_BETA d_p^2} (e^{2 _BETA d_p})^(i - c) for i < 3 _SPREAD,
    c = 3 _SPREAD / 2, by products from row c outwards."""
    c = 3 * _SPREAD // 2
    e2 = np.exp(2.0 * _BETA * d)
    table = np.empty((3 * _SPREAD, d.size))
    table[c] = np.exp(-_BETA * d * d)
    for i in range(c + 1, 3 * _SPREAD):
        np.multiply(table[i - 1], e2, out=table[i])
    e2 = 1.0 / e2
    for i in range(c - 1, -1, -1):
        np.multiply(table[i + 1], e2, out=table[i])
    return table


def _torus_profile(atoms, masses, labels: np.ndarray) -> np.ndarray:
    """|sum_k c_k exp(-2 pi i m.x_k)|^2 per row c of masses and label row m.

    With A_d[k, j] = exp(-2 pi i j x_kd), the sum at m is
    sum_k c_k prod_d A_d[k, m_d].  Frequencies are cut into tiles of _TILE
    consecutive j, aligned at multiples of _TILE, and the labels whose
    components lie in the tiles t_1..t_D take one GEMM per row and atom
    chunk: L^T @ A_D[chunk, t_D] for the left side L[k, .] = c_k times the
    row-major product of A_d[k, t_d] over d < D (c itself on torus(1), a
    GEMV).  Each L serves every tile t_D under it.  The atoms go in chunks
    of at most _TORUS_ATOMS (_chunks), whose GEMMs are summed pairwise.
    """
    dim = labels.shape[1]
    tile, offset = np.divmod(labels, _TILE)
    low = tile.min(axis=0)
    span = tuple(tile.max(axis=0) - low + 1)
    # axes[d][t] = A_d[:, tile low_d + t], (atoms, _TILE)
    axes = []
    for d in range(dim):
        j = low[d] * _TILE + np.arange(span[d] * _TILE).reshape(-1, 1, _TILE)
        axes.append(np.exp(-2j * np.pi * (atoms[None, :, d, None] * j)))
    flat = np.ravel_multi_index(tuple(offset.T), (_TILE,) * dim)
    # the labels of each tile, tiles in row-major order
    key = np.ravel_multi_index(tuple((tile - low).T), span)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    members = np.split(order, starts[1:])
    tiles = np.transpose(np.unravel_index(key[order[starts]], span))
    # tiles that share t_1..t_{D-1}, and so the left side, are consecutive
    lead = key[order[starts]] // span[-1]
    bounds = np.flatnonzero(np.diff(lead, append=-1)) + 1
    size = _chunks(atoms.shape[0], _TORUS_ATOMS)[1]
    chunks = [slice(lo, lo + size) for lo in range(0, atoms.shape[0], size)]
    out = np.empty((masses.shape[0], len(labels)))
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        t, under = tiles[lo], range(lo, hi)
        for c, row in zip(masses, out):
            picked = [[] for _ in under]
            for k in chunks:
                L = c[k]
                if dim > 1:
                    L = L[:, None] * axes[0][t[0]][k]
                if dim > 2:
                    L = (L[:, :, None] * axes[1][t[1]][k, None, :]).reshape(len(L), -1)
                for i, p in zip(under, picked):
                    f = L.T @ axes[-1][tiles[i, -1]][k]
                    p.append(f.ravel()[flat[members[i]]])
            for i, p in zip(under, picked):
                f = pairwise_sum(np.stack(p))
                row[members[i]] = f.real * f.real + f.imag * f.imag
    return out


def hs_roundoff(G: groups.GroupDescriptor, labels: np.ndarray) -> np.ndarray:
    """A-priori bound on |hs_profile - exact value| at each label row's irrep.

    It holds for any two probability measures, or one and Haar, of any
    size: it reads them only through sum_k |c_k| <= M = _MASS for the merged
    signed masses c (each weight vector sums to 1 within _WEIGHT_SUM_TOL).
    It holds as well for every row of hs_profile_rows whose masses are the
    correctly rounded values of such a c, as _group_sums forms them for
    merged_atoms and empirical_masses.  The exact value is the one for the
    stored masses and, on su2/so3, for the atoms scaled to unit norm.  A
    cut's Fourier sum then errs by at most the sum of d/kappa times these
    bounds over the irreps below it (CutoffSweep.roundoff).  Clamping at 0
    only moves a value towards the exact one, which is nonnegative.

    Model: u = _util.U = 2^-53 and gamma_k = _util.gamma(k).  A BLAS dot
    product of length n errs by at most gamma_n times the sum of its
    terms' moduli, in any order (Higham 2002, ch. 3).  A pairwise sum has
    depth at most _SUM_DEPTH = 63, since no array holds 2^63 elements.

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
      [-1, 1], so moment m moves by m^2 dx per unit of sum |w|.  Then
      phi^ = fl(acos x) is within one ulp, 2 pi u, of acos x, and the pair
      is spread from x~ = c + d^ (_spread), d^ = fl(x^ - c) for the node
      coordinate x^ = fl(phi^ fl(N / (2 pi))) and |x^ - c| <= T/2: x~ h,
      h = 2 pi / N, is within gamma_3 pi + 8 u h of phi^.  cos(m phi) is
      m-Lipschitz in phi, so these move moment m by m (5 pi + 1) u.
    - Gridding (_gridded_moments; Dutt & Rokhlin 1993, Steidl 1998).
      Moment m < N/4 comes from the grid of N points, with beta = _BETA,
      T = _SPREAD and tau = (pi / N)^2 / beta.  By Poisson summation, for
      x = phi N / (2 pi), sqrt(beta / pi) e^{m^2 tau} sum_{i in Z}
      e^{-beta (i - x)^2} cos(2 pi m i / N) = sum_l e^{-((m + l N)^2 -
      m^2) tau} cos((m + l N) phi).  The term l = 0 is cos(m phi), and
      (m + l N)^2 - m^2 >= |l| N^2 / 2 for m < N/4, so the aliases add at
      most A = 2 q / (1 - q), q = e^{-pi^2 / (2 beta)}, per unit of
      sum |w^| (Steidl's bound for this oversampling is about
      4 e^{-pi T (1 - 1/3)}; A does not rely on it).  At m = 0 the same sum
      gives sum_i e^{-beta (i - x)^2} <= rho sqrt(pi / beta), with
      rho = 1 + 2 q^2 / (1 - q^2).
    - Cut: a pair's kernel is kept on the 3 T nodes of its tile's band,
      which reach at least f = T - 2^-30 from x~ on either side, so the
      nodes left out carry at most 2 e^{-beta f^2} / (1 - e^{-2 beta f})
      of it: C_m = sqrt(beta / pi) e^{m^2 tau} times that, per unit of
      sum |w^|, after the scale.
    - Kernel values: e1 = exp(fl(fl(-beta d) d)) has its argument within
      gamma_2 beta (T/2)^2, as |d| <= T/2, and exp is within one ulp
      (gamma_2 in the logarithm); e2 = exp(fl(2 beta d)) is within
      gamma_1 beta T + gamma_2, and a step of the products of e2, or of
      fl(1 / e2), adds gamma_1 or 2 gamma_1, for |j| <= 3T/2 steps; the
      Gaussian factor exp(fl(-beta j^2)) adds gamma_1 beta (3T/2)^2 +
      gamma_2 and its product gamma_1.  Summing these logarithms, each
      kernel value is within e_K = expm1(gamma_2 beta (T/2)^2 + gamma_2 +
      (3T/2)(gamma_1 beta T + gamma_2 + 2 gamma_1) + gamma_1 beta (3T/2)^2
      + gamma_2 + gamma_1) of e^{-beta (i - x~)^2}, relative.
    - Node sums: a node value sums pair terms to depth at most _PAIRS (a
      chunk's GEMM) + 63 (the pairwise sum over chunks) + 2 (three bands)
      + 1 (a fold) + 1 (v_j +- v_{N/2-j}), so it is within e_V = (1 + e_K)
      (1 + gamma_{_PAIRS + 67}) - 1 of the exact one, relative to the sum
      of its terms' moduli.  Over all nodes those moduli sum to at most
      rho sqrt(pi / beta) sum |w^|.
    - Transform: _util.cosine_sum puts each cosine within 38 u and its sums
      add gamma_{64 + 2 + 63}, so it errs by at most e_T = 38 u + gamma_129
      (1 + 38 u) times the sum of the nodes' moduli.  The scale
      fl(sqrt(beta / pi^) exp(fl(pi^ m / N)^2 / beta)) is within
      e_f = expm1(gamma_6 m^2 tau + gamma_5) of sqrt(beta / pi) e^{m^2 tau},
      and its product rounds once.  Per unit of sum |w^| the computed
      moment is thus within R_m = rho e^{m^2 tau} ((1 + e_T)(1 + e_V)
      (1 + e_f)(1 + u) - 1) of the same sums in exact arithmetic.
      m^2 tau <= pi^2 / (16 beta) = pi T / 12, so e^{m^2 tau} <= 66.
    - Moments: |w^| <= (1 + u)|w| and w^ errs by u |w|, so with the
      argument moment m errs by err_m = (1 + u)(R_m + C_m + A +
      m (5 pi + 1) u + m^2 dx) + u per unit of sum |w| <= W = (1 + u)^2 M^2.
    - Levels: a level sums mu_m S^(m) over q moments (_level_sums); cumsum
      adds gamma_{q-1} sum mu_m |S^(m)|, and |S^(m)| <= W (1 + err_m).  A
      level errs by at most W (sum mu_m err_m + gamma_{q-1} sum mu_m
      (1 + err_m)) + u (2 + u) M^2 d.

    Torus.  An axis table entry A^ takes the angle fl(2 pi^ fl(x j)),
    within 2 pi |j| gamma_3 of 2 pi j x, and cos and sin within one ulp
    (the bound glibc documents), so it is within eta_j = 2 pi |j| gamma_3
    + sqrt(2) u of chi_j = exp(-2 pi i j x); with |chi_j| = 1, the product
    of the D entries of a label m is within e_0 = prod_d (1 + eta_{m_d}) - 1
    of its character, and has modulus at most 1 + e_0.

    - Left side: c^_k times A^_1 rounds each component once (u), and each
      further axis below the last is one complex product (sqrt(2) gamma_2,
      Higham 2002, Lemma 3.5), so the GEMM operand x_k is within p - 1,
      p = (1 + u)(1 + sqrt(2) gamma_2)^max(D-2, 0), of c^_k prod_{d<D} A^_d
      per unit of |c^_k| prod_{d<D} |A^_d| (on torus(1) x_k = c^_k).
    - Sum: a BLAS complex dot product of length n errs by at most
      sqrt(2) gamma_{2n} times the sum of its terms' moduli, in any order:
      its real and imaginary parts are real dot products of length 2n
      (gamma_{2n} each, and (a c + b d, a d + b c) has modulus at most
      sqrt(2) sqrt(a^2 + b^2) sqrt(c^2 + d^2)), or it takes n complex
      products (sqrt(2) gamma_2 each) and n - 1 complex additions (u each).
      A chunk holds at most _TORUS_ATOMS = C atoms, and the chunks are
      summed pairwise, so F^ is within (1 + sqrt(2) gamma_{2C})(1 + gamma_63)
      - 1 of sum_k x_k A^_D[k] per unit of sum_k |x_k| |A^_D[k]|.
    - With 1 + g = p (1 + sqrt(2) gamma_{2C})(1 + gamma_63), the products and
      the sum put F^ within g (1 + u) M (1 + e_0) of sum_k c^_k prod_d A^_d,
      the tables add (1 + u) M e_0 and the masses' rounding u M.  So F^ is
      within Delta = (1 + u) M ((1 + g)(1 + e_0) - 1) + u M of F, and
      |F| <= M.  |F^|^2 is within Delta (2 M + Delta), and re^2 + im^2 adds
      gamma_2 (M + Delta)^2.
    """
    if not len(labels):
        return np.zeros(0)
    mass = _MASS
    d_t = groups.torus_dim(G.group_id)
    if d_t is not None:
        m = np.abs(labels.astype(float))
        eta = 2.0 * np.pi * m * gamma(3) + math.sqrt(2.0) * U
        # (1 + g)(1 + e_0) - 1 as a sum of logs, without cancellation
        e = np.expm1(np.sum(np.log1p(eta), axis=1) + math.log1p(U)
                     + max(d_t - 2, 0) * math.log1p(math.sqrt(2.0) * gamma(2))
                     + math.log1p(math.sqrt(2.0) * gamma(2 * _TORUS_ATOMS))
                     + math.log1p(gamma(_SUM_DEPTH)))
        delta = mass * (1.0 + U) * e + U * mass
        return delta * (2.0 * mass + delta) + gamma(2) * (mass + delta) ** 2
    nu = math.expm1(math.log1p(groups.UNIT_NORM_TOL) - 0.5 * math.log1p(-gamma(4))
                    - math.log1p(-U))
    dx = 2.0 * nu + nu * nu + gamma(4) * (1.0 + nu) ** 2
    if G.group_id == "so3":
        dx = 4.0 * dx + 3.0 * U + 2.0 * U * U
    levels = labels[:, 0]
    n = np.arange(int(levels.max()) + 1)
    T, beta = _SPREAD, _BETA
    # the scale's exponent m^2 tau and the sums of the kernel over the nodes
    expo = (np.pi * n / _grid_points(n)) ** 2 / beta
    q = math.exp(-math.pi ** 2 / (2.0 * beta))
    rho = 1.0 + 2.0 * q * q / (1.0 - q * q)
    far = T - 2.0 ** -30
    cut = (2.0 * math.sqrt(beta / math.pi) * math.exp(-beta * far * far)
           / -math.expm1(-2.0 * beta * far))
    # the kernel's values, the node sums, the transform and the scale
    e_kernel = math.expm1(gamma(2) * beta * (T / 2) ** 2 + gamma(2)
                          + 1.5 * T * (gamma(1) * beta * T + gamma(2) + 2.0 * gamma(1))
                          + gamma(1) * beta * (1.5 * T) ** 2 + gamma(2) + gamma(1))
    e_nodes = (1.0 + e_kernel) * (1.0 + gamma(_PAIRS + _SUM_DEPTH + 4)) - 1.0
    e_sum = 38.0 * U + gamma(COSINE_BLOCK + 2 + _SUM_DEPTH) * (1.0 + 38.0 * U)
    e_scale = np.expm1(gamma(6) * expo + gamma(5))
    rounding = np.exp(expo) * rho * ((1.0 + e_sum) * (1.0 + e_nodes) * (1.0 + e_scale)
                                     * (1.0 + U) - 1.0)
    err = ((1.0 + U) * (rounding + cut * np.exp(expo) + 2.0 * q / (1.0 - q)
                        + n * (5.0 * math.pi + 1.0) * U + n * n * dx) + U)
    q_n = n + 1 if G.group_id == "so3" else n // 2 + 1
    W = ((1.0 + U) * mass) ** 2
    per_level = W * (_level_sums(G, err)
                     + gamma(q_n - 1) * _level_sums(G, 1.0 + err))
    dims = groups.doubled_spins(G, labels) + 1.0
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
    blocks = measure_transforms(G, nu, groups.spectral_data(G, M)["label"])
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
    probes = np.concatenate(([groups.identity(G)], groups.haar_sample(G, _PROBE_SEED, 8)))
    stencil = _STENCILS[order]
    # the stencil's points along each basis vector of the algebra, in the
    # order they are summed
    steps = groups.exp_map(G, np.asarray(
        [shift * h * e for e in np.eye(G.n) for shift, _ in stencil]))
    coefs = [coef for _ in range(G.n) for _, coef in stencil]
    worst = 0.0
    for x, base in zip(probes, irrep_matrices(G, irrep, probes)):
        acc = np.zeros_like(base)
        for coef, U in zip(coefs, irrep_matrices(G, irrep, groups.multiply(G, x, steps))):
            acc += coef * U
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
