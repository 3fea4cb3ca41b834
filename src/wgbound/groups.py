"""Compact group geometry: elements, metrics, sampling, irrep bookkeeping.

Supported groups and their element encodings:

``torus(d)``
    coordinates in ``[0, 1)^d`` (d <= 3), flat metric with wrap-around.
``su2``
    unit quaternions ``(w, x, y, z)``; antipodes are distinct elements.
``so3``
    unit quaternions canonicalized to ``w >= 0`` (on a tie, first nonzero
    imaginary part positive), so each rotation has one representative.

Normalization is fixed once and for all: nontrivial irreducibles are labeled
by integer vectors ``m`` (torus, highest weight ``2*pi*m``), half-integer spin
``j`` (su2) or integer ``level`` ``l`` (so3), with Casimir eigenvalues
``4*pi^2*|m|^2`` and ``j(j+1)`` / ``l(l+1)`` respectively.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import U

_TORUS_RE = re.compile(r"^torus\((\d+)\)$")
# canonicalize leaves a quaternion whose computed norm is within this of 1
UNIT_NORM_TOL = 6.0 * U
# pairwise_distance reads angles whose |cosine| exceeds this from chords;
# below it arccos amplifies the cosine's rounding at most 7-fold
_CHORD_COS = 0.99


@dataclass(frozen=True)
class GroupDescriptor:
    """Static root/lattice data of a supported group."""

    group_id: str
    n: int                       # manifold dimension
    r: int                       # rank (dimension of a maximal torus)
    positive_roots: tuple        # root vectors in weight coordinates
    rho_plus: tuple              # half sum of positive roots
    a: float                     # smoothing length scale of the group
    weyl_order: int

    @property
    def dim(self) -> int:
        """Length of the coordinate vector encoding one element."""
        return self.r if self.group_id.startswith("torus") else 4

    @property
    def two_rho_norm(self) -> float:
        return 2.0 * float(np.linalg.norm(self.rho_plus))

    @property
    def admissibility_threshold(self) -> float:
        # smallest M for which the smoothing construction is defined
        return self.two_rho_norm + self.a


def torus_dim(group_id: str) -> Optional[int]:
    m = _TORUS_RE.match(group_id)
    return int(m.group(1)) if m else None


def descriptor(group_id: str) -> GroupDescriptor:
    """Descriptor for ``torus(1..3)``, ``su2`` or ``so3``."""
    d = torus_dim(group_id)
    if d is not None:
        if not 1 <= d <= 3:
            raise ValueError(f"torus dimension out of range: {d}")
        return GroupDescriptor(
            group_id=group_id, n=d, r=d,
            positive_roots=(), rho_plus=(0.0,) * d,
            a=math.pi, weyl_order=1,
        )
    if group_id == "su2":
        return GroupDescriptor(
            group_id="su2", n=3, r=1,
            positive_roots=((1.0,),), rho_plus=(0.5,),
            a=0.5, weyl_order=2,
        )
    if group_id == "so3":
        return GroupDescriptor(
            group_id="so3", n=3, r=1,
            positive_roots=((1.0,),), rho_plus=(0.5,),
            a=0.5, weyl_order=2,
        )
    raise ValueError(f"unknown group id: {group_id!r}")


# ---------------------------------------------------------------------------
# element arithmetic


def canonicalize(G: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    """Bring an element (or a batch, last axis = coords) to canonical form.

    Idempotent: a second pass returns its input bit for bit.  Torus
    coordinates are reduced into [0, 1); a value that rounds up to 1 (such
    as -1e-20 mod 1) becomes 0.  A quaternion whose computed norm n^ has
    |n^ - 1| <= UNIT_NORM_TOL is left as it is; any other is divided by n^.
    n^ is computed on x scaled by a power of two, so coordinates of any
    finite size normalize (1e-160 or 1e160 as well as 1).  With u = 2^-53,
    n^ = fl(sqrt(fl(sum x_i^2))) is within a factor
    (1 +- gamma_4)^(1/2) (1 +- u) of the norm, so a divided quaternion q has
    norm within nu = (1 + u) / ((1 - gamma_4)^(1/2) (1 - u)) - 1 (4u + 20u^2)
    above 1 and 1 - (1 - u) / ((1 + gamma_4)^(1/2) (1 + u)) (4u - 4u^2)
    below it.  On a second pass the exact square root of q's computed sum
    of squares is |q| (1 +- gamma_4)^(1/2): at most
    (1 + nu)(1 + gamma_4)^(1/2) - 1 (6u + 34u^2) above 1, and at most
    6u - 2u^2 below it, so less than 6.5u either way.  Rounding to nearest
    then gives the computed norm: doubles are 1 - ku below 1 (spacing u)
    and 1 + 2ku above it (spacing 2u), so a value in (1 - 6.5u, 1 + 7u)
    rounds into [1 - 6u, 1 + 6u].  The computed norm is thus within
    6u = UNIT_NORM_TOL of 1, and a second pass leaves the quaternion as it
    is; the power-of-two scaling changes none of this.  n^ - 1 is exact
    for n^ in [1/2, 2], so the test is too.  Every output norm is within
    (1 + UNIT_NORM_TOL) / ((1 - gamma_4)^(1/2) (1 - u)) - 1 (about 9u) of
    1, the bound fourier.hs_roundoff uses.
    """
    x = np.asarray(x, dtype=float)
    if torus_dim(G.group_id) is not None:
        r = np.mod(x, 1.0)
        return np.where(r == 1.0, 0.0, r)
    big = np.max(np.abs(x), axis=-1, keepdims=True)
    if np.any(big == 0):
        raise ValueError("zero quaternion cannot be normalized")
    # y = x / 2^k has its largest coordinate in [1/2, 1), so the sum of
    # squares lies in [1/4, 4); a coordinate or square that underflows is
    # below half an ulp of it.  n^ = 2^k |y|^, with k capped at 2 (where
    # the test fails anyway) so that it cannot overflow.
    k = np.frexp(big)[1]
    y = np.ldexp(x, -k)
    ny = np.linalg.norm(y, axis=-1, keepdims=True)
    keep = np.abs(np.ldexp(ny, np.minimum(k, 2)) - 1.0) <= UNIT_NORM_TOL
    q = np.where(keep, x, y / ny)
    if G.group_id == "so3":
        q = _so3_sign_fix(q)
    return q


def _so3_sign_fix(q: np.ndarray) -> np.ndarray:
    # representative with w > 0, ties resolved by the first nonzero coordinate
    single = q.ndim == 1
    q = np.atleast_2d(q).copy()
    flip = q[:, 0] < 0
    tie = q[:, 0] == 0
    if np.any(tie):
        for col in (1, 2, 3):
            sub = tie & (q[:, col] != 0)
            flip |= sub & (q[:, col] < 0)
            tie &= q[:, col] == 0
    q[flip] *= -1.0
    return q[0] if single else q


def identity(G: GroupDescriptor) -> np.ndarray:
    if torus_dim(G.group_id) is not None:
        return np.zeros(G.r)
    return np.array([1.0, 0.0, 0.0, 0.0])


def quaternion_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    w1, v1 = q1[..., 0], q1[..., 1:]
    w2, v2 = q2[..., 0], q2[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1)
    v = (w1[..., None] * v2 + w2[..., None] * v1 + np.cross(v1, v2))
    return np.concatenate([w[..., None], v], axis=-1)


def multiply(G: GroupDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if torus_dim(G.group_id) is not None:
        return canonicalize(G, x + y)
    return canonicalize(G, quaternion_product(x, y))


def inverse(G: GroupDescriptor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if torus_dim(G.group_id) is not None:
        return canonicalize(G, -x)
    return canonicalize(G, x * np.array([1.0, -1.0, -1.0, -1.0]))


def exp_map(G: GroupDescriptor, X: np.ndarray) -> np.ndarray:
    """Exponential of a Lie algebra vector given in orthonormal coordinates.

    For the torus the coordinates are the flat ones; for su2/so3 they refer to
    the basis in which ``exp(u * e3) = (cos(u/2), 0, 0, sin(u/2))``.
    """
    X = np.asarray(X, dtype=float)
    if torus_dim(G.group_id) is not None:
        return canonicalize(G, X)
    half = 0.5 * np.linalg.norm(X, axis=-1)
    out_shape = X.shape[:-1] + (4,)
    q = np.zeros(out_shape)
    q[..., 0] = np.cos(half)
    # sin(|X|/2)/|X| with its |X| -> 0 limit 1/2
    small = half < 1e-150
    coef = np.where(small, 0.5, np.sin(half) / np.maximum(2.0 * half, 1e-300))
    q[..., 1:] = X * coef[..., None]
    return canonicalize(G, q)


def class_cosines(G: GroupDescriptor, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """cos(theta/2) of the class of x^-1 y for every pair, shape (len(X), len(Y)).

    su2/so3 only.  theta is the rotation angle of x^-1 y, so the cosine is
    the scalar part <x, y> of the product; on so3 the sign of a quaternion
    is not part of the element, hence |<x, y>|.  Clipped to [-1, 1].
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    dots = X @ Y.T
    if G.group_id == "so3":
        dots = np.abs(dots)
    np.clip(dots, -1.0, 1.0, out=dots)
    return dots


def pairwise_distance(G: GroupDescriptor, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Distance matrix between two stacks of elements, shape (len(X), len(Y)).

    On su2/so3 the distance is theta = 2 arccos(class cosine).  Where the
    cosine's modulus exceeds _CHORD_COS, arccos would turn its last-bit
    rounding into an error of about 3e-8 (an atom whose computed <x, x> is
    1 - 2^-52 would sit 3e-8 from itself), so there theta/2 is read from
    the chords instead, 2 atan2(|x - y|, |x + y|), with -y in place of y on
    so3 when it is nearer: exact 0 between equal atoms.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if torus_dim(G.group_id) is not None:
        delta = np.abs(X[:, None, :] - Y[None, :, :])
        delta = np.minimum(np.mod(delta, 1.0), 1.0 - np.mod(delta, 1.0))
        return np.sqrt(np.sum(delta * delta, axis=-1))
    cos = class_cosines(G, X, Y)
    theta = 2.0 * np.arccos(cos)
    i, j = np.nonzero((cos > _CHORD_COS) | (cos < -_CHORD_COS))
    near = np.linalg.norm(X[i] - Y[j], axis=-1)
    far = np.linalg.norm(X[i] + Y[j], axis=-1)
    if G.group_id == "so3":
        near, far = np.minimum(near, far), np.maximum(near, far)
    theta[i, j] = 4.0 * np.arctan2(near, far)
    return theta


def haar_sample(G: GroupDescriptor, seed: int, count: int) -> np.ndarray:
    """Deterministic Haar-distributed sample, shape (count, coord dim)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    d = torus_dim(G.group_id)
    if d is not None:
        return rng.random((count, d))
    raw = rng.standard_normal((count, 4))
    return canonicalize(G, raw)


# ---------------------------------------------------------------------------
# irreducible representations


@dataclass(frozen=True)
class Irrep:
    """Label and spectral data of one irreducible unitary representation."""

    group_id: str
    label: tuple            # torus: integer vector; su2: (two_j,); so3: (level,)
    dim: int
    casimir: float
    weight_norm: float      # norm of the highest weight

    @property
    def highest_weight(self) -> tuple:
        """Highest weight in normalized weight coordinates."""
        if self.group_id.startswith("torus"):
            return tuple(2.0 * math.pi * v for v in self.label)
        return ((self.dim - 1) / 2.0,)

    @property
    def weights(self) -> tuple:
        """All weights with multiplicity, len == dim."""
        if self.group_id.startswith("torus"):
            return (self.highest_weight,)
        j = (self.dim - 1) / 2.0
        return tuple((k - j,) for k in range(self.dim))

    def __repr__(self):  # keep test output readable
        return f"Irrep({self.group_id}, {self.label})"


def trivial_irrep(G: GroupDescriptor) -> Irrep:
    return Irrep(G.group_id, (0,) * G.r, 1, 0.0, 0.0)


def spectral_data(G: GroupDescriptor, M: float) -> dict:
    """The nontrivial irreps with highest weight norm in (0, M), as arrays.

    Returns ``label`` (integer rows, one per irrep, in the `Irrep.label`
    convention), ``dim`` (integers), ``casimir`` and ``weight_norm``.  Rows
    are sorted by an integer key, |m|^2 on a torus and two_j or level on
    su2/so3, and then by label, so the weight norm never decreases.
    A row belongs exactly when its weight_norm is below M, the rule of
    CutoffSweep's cuts: on su2/so3 two_j < 2M or level < M, and on a torus
    2 pi sqrt(|m|^2) as computed, which only the candidates |m|^2 <=
    floor((M / 2 pi)^2) + 1 can pass.  fourier's many-irrep functions take
    such rows.
    """
    if not (M > 0 and math.isfinite(M)):
        raise ValueError(f"M must be positive and finite, got {M}")
    d = torus_dim(G.group_id)
    if d is not None:
        radius = M / (2.0 * math.pi)
        if d == 3 and math.floor(radius) > 120:
            raise ValueError("torus(3) spectral enumeration above M~750 is too large")
        wide = math.floor(radius * radius) + 1
        mb = math.isqrt(wide)
        axis = np.arange(-mb, mb + 1)
        nsq = axis * axis
        for _ in range(d - 1):
            nsq = np.add.outer(nsq, axis * axis)
        nsq = nsq.ravel()
        # flat grid indices run in label order, and the stable sort keeps it
        # among equal |m|^2
        keep = np.flatnonzero((nsq > 0) & (nsq <= wide))
        idx = keep[np.argsort(nsq[keep], kind="stable")]
        norm = 2.0 * math.pi * np.sqrt(nsq[idx].astype(float))
        idx = idx[:np.searchsorted(norm, M)]
        key = nsq[idx]
        labels = np.stack(np.unravel_index(idx, (2 * mb + 1,) * d), axis=1) - mb
        return {"label": labels, "dim": np.ones_like(key),
                "casimir": 4.0 * math.pi ** 2 * key, "weight_norm": norm[:idx.size]}
    top = math.ceil(2.0 * M) if G.group_id == "su2" else math.ceil(M)
    labels = np.arange(1, top)[:, None]
    two_j = doubled_spins(G, labels)
    j = two_j / 2.0
    return {"label": labels, "dim": two_j + 1,
            "casimir": j * (j + 1.0), "weight_norm": j}


def doubled_spins(G: GroupDescriptor, labels: np.ndarray) -> np.ndarray:
    """2j of the su2/so3 irreps with these label rows: two_j, or 2 level."""
    return labels[:, 0] * (2 if G.group_id == "so3" else 1)


def enumerate_irreps(G: GroupDescriptor, M: float) -> list:
    """The rows of `spectral_data(G, M)` as `Irrep` objects, in its order."""
    sd = spectral_data(G, M)
    rows = zip(zip(*sd["label"].T.tolist()), sd["dim"].tolist(),
               sd["casimir"].tolist(), sd["weight_norm"].tolist())
    return [Irrep(G.group_id, *row) for row in rows]


# ---------------------------------------------------------------------------
# point-set files

_HEADER_RE = re.compile(r"^#\s*group=(\S+)\s*$")


def save_points(path, group_id: str, points: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# group={group_id}\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_points(path, expect_group: Optional[str] = None):
    """Read a point-set file: a ``# group=<id>`` header, then one row per line.

    Torus rows carry d floats (wrapped into [0,1)), su2/so3 rows carry four
    floats normalized to unit quaternions.  Returns (group_id, points array).
    Raises ValueError for malformed content and OSError for unreadable files.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(ln_no, ln.strip()) for ln_no, ln in enumerate(fh, 1)]
    lines = [(ln_no, ln) for ln_no, ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: empty point file")
    m = _HEADER_RE.match(lines[0][1])
    if not m:
        raise ValueError(f"{path}: first line must be '# group=<id>'")
    group_id = m.group(1)
    G = descriptor(group_id)  # rejects unknown ids
    if expect_group is not None and group_id != expect_group:
        raise ValueError(f"{path}: header group {group_id!r} does not match "
                         f"requested {expect_group!r}")
    rows = []
    for ln_no, ln in lines[1:]:
        if ln.startswith("#"):
            continue
        parts = ln.split(",")
        if len(parts) != G.dim:
            raise ValueError(f"{path}:{ln_no}: expected {G.dim} fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln_no}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{ln_no}: non-finite coordinate")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no points")
    pts = canonicalize(G, np.asarray(rows, dtype=float))
    return group_id, pts
