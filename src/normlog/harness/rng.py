"""Deterministic counter-based random stream.

The raw generator is a 64-bit counter hash: draw ``i`` from seed ``s``
is ``mix64((s + (i+1) * GAMMA) mod 2^64)`` where ``GAMMA`` is the
golden-ratio increment 0x9E3779B97F4A7C15 and ``mix64`` is the splitmix
finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits; Gaussian variates come from
Box-Muller on consecutive uniforms. Every draw is a pure function of
(seed, counter), so any consumer can reproduce an instance exactly.

``Stream.complex_gaussian_matrix`` draws a whole matrix at once: it
hashes all its counters with wrapping numpy ``uint64`` arithmetic and
equals the scalar ``normal()`` stream bit for bit. For that reason its
log, cos and sin come from ``math`` element by element: numpy's
vectorized transcendentals may round differently from libm.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Stream", "mix64", "random_unitary"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# mix64 and the counter step as numpy uint64 constants (arithmetic wraps)
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX_U64 = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
            (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_SHIFT_31, _SHIFT_11 = np.uint64(31), np.uint64(11)


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """Sequential view over the counter-based generator."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0
        self._spare_normal: float | None = None

    def u64(self) -> int:
        self.counter += 1
        return mix64(self.seed + self.counter * _GAMMA)

    def unit(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty integer range")
        return lo + self.u64() % (hi - lo + 1)

    def normal(self) -> float:
        if self._spare_normal is not None:
            g = self._spare_normal
            self._spare_normal = None
            return g
        # u1 in (0, 1] keeps the log finite
        u1 = (self.u64() >> 11) * 2.0 ** -53 + 2.0 ** -54
        u2 = self.unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def subseed(self) -> int:
        return self.u64()

    def complex_gaussian_matrix(self, n: int) -> np.ndarray:
        """n x n matrix of complex(normal(), normal()) / sqrt(2), row-major.

        Equal bit for bit to that scalar loop, including a pending spare
        normal, and leaves the stream where the loop would.
        """
        pairs = n * n
        z = np.arange(self.counter + 1, self.counter + 2 * pairs + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += np.uint64(self.seed)
        for shift, mult in _MIX_U64:
            z ^= z >> shift
            z *= mult
        z ^= z >> _SHIFT_31
        u = (z >> _SHIFT_11) * 2.0 ** -53
        self.counter += 2 * pairs
        u1 = u[0::2] + 2.0 ** -54
        theta = 2.0 * math.pi * u[1::2]
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float,
                                            pairs))
        normals = np.empty(2 * pairs + 1)
        normals[1::2] = radius * np.fromiter(map(math.cos, theta.tolist()),
                                             float, pairs)
        normals[2::2] = radius * np.fromiter(map(math.sin, theta.tolist()),
                                             float, pairs)
        if self._spare_normal is None or not pairs:
            normals = normals[1:]
        else:
            normals[0], self._spare_normal = self._spare_normal, float(normals[-1])
        return (normals[:2 * pairs] / math.sqrt(2)).view(complex).reshape(n, n)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-style unitary from a seeded Gaussian matrix.

    QR-orthonormalization with the R-diagonal phases divided out; the
    result is deterministic per (n, seed) and unitary to roundoff.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = Stream(seed).complex_gaussian_matrix(n)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    phases = d / np.abs(d)
    return q * phases
