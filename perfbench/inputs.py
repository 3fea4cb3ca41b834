"""Seeded inputs, generated here rather than by the program's own samplers.

Every point set the program sees comes from these few lines, so the inputs
stay put when `groups.haar_sample` or `walks.lps_generators` change.  Each
input draws from its own stream, `SeedSequence([seed, tag, index])`, so
adding an input never shifts the others.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # the golden ratio mod 1

_TAGS = {"haar": 1, "torus": 2, "conjugate": 3, "shift": 4}


def rng(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[tag], index]))


def haar_quaternions(seed: int, count: int, index: int = 0,
                     tag: str = "haar") -> np.ndarray:
    """Haar-distributed unit quaternions: normalised 4-d Gaussians."""
    q = rng(seed, tag, index).standard_normal((count, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def torus_points(seed: int, count: int, dim: int, index: int = 0) -> np.ndarray:
    """Uniform points of [0, 1)^dim."""
    return rng(seed, "torus", index).random((count, dim))


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def conjugate(seed: int, quats: np.ndarray, index: int = 0) -> np.ndarray:
    """The set h x h^-1 for one seeded Haar rotation h.

    Conjugation keeps every class function, so character energies, block
    spectra and walk sums stay exactly what they were; only the coordinates
    the program sees move with the seed.
    """
    h = haar_quaternions(seed, 1, index, tag="conjugate")[0]
    return quat_mul(quat_mul(h, quats), quat_conj(h))


def lps_quaternions(p: int) -> np.ndarray:
    """Integer quaternions a+bi+cj+dk of norm p with a odd and positive, scaled to unit length.

    For a prime p = 1 (mod 4) there are exactly p + 1 of them.
    """
    out = [(a, b, c, d)
           for a in range(1, math.isqrt(p) + 1, 2)
           for b, c, d in itertools.product(range(-math.isqrt(p), math.isqrt(p) + 1), repeat=3)
           if a * a + b * b + c * c + d * d == p]
    return np.asarray(out, dtype=float) / math.sqrt(p)


def binary_icosahedral() -> np.ndarray:
    """The 120 unit quaternions of the binary icosahedral group."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    units = [s * e for e in np.eye(4) for s in (1.0, -1.0)]
    halves = [np.asarray(signs) / 2.0
              for signs in itertools.product((1.0, -1.0), repeat=4)]
    base = (0.0, 1.0, 1.0 / phi, phi)
    even = [perm for perm in itertools.permutations(range(4))
            if sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    golden = []
    for perm in even:
        for signs in itertools.product((1.0, -1.0), repeat=3):
            v = np.zeros(4)
            for slot, value, sign in zip(perm[1:], base[1:], signs):
                v[slot] = sign * value / 2.0
            golden.append(v)
    return np.asarray(units + halves + golden)


def rotations(quats: np.ndarray) -> np.ndarray:
    """One quaternion per rotation: the representative with w > 0 (ties: first nonzero > 0)."""
    q = np.array(quats, dtype=float)
    for row in q:
        lead = row[np.abs(row) > 1e-12][0]
        if lead < 0:
            row *= -1.0
    keep = []
    for row in q:
        if not any(np.max(np.abs(row - k)) < 1e-9 for k in keep):
            keep.append(row)
    return np.asarray(keep)


def write_points(path: str, group_id: str, points: np.ndarray) -> str:
    """A point file: the `# group=<id>` header, then one row per point."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# group={group_id}\n")
        for row in np.atleast_2d(points):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path
