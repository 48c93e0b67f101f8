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

``random_unitary(n, seed)`` orthonormalizes the n x n matrix of
``complex(normal(), normal()) / sqrt(2)``, drawn row-major from a fresh
stream of ``seed``. It reads only its seed, so the unitaries of many
seeds can be drawn together: ``_unitary_stack`` hashes the counters of
all of them in one pass of wrapping numpy ``uint64`` arithmetic and
orthonormalizes them in one stacked QR. The Gaussians equal the scalar
``normal()`` stream bit for bit, so their log, cos and sin come from
``math`` element by element: numpy's vectorized transcendentals may
round differently from libm. ``random_unitary`` is that kernel on a
stack of one.
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


def _gaussians(seeds: np.ndarray, pairs: int) -> np.ndarray:
    """The first ``2*pairs`` normals of a fresh stream of each seed in the
    uint64 array ``seeds``, one row per seed, as ``normal()`` returns
    them.

    All counters of all seeds are hashed in one pass of wrapping numpy
    ``uint64`` arithmetic; log, cos and sin come from ``math`` element by
    element.
    """
    z = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z *= _GAMMA_U64
    z = z + seeds[:, None]
    for shift, mult in _MIX_U64:
        z ^= z >> shift
        z *= mult
    z ^= z >> _SHIFT_31
    u = (z >> _SHIFT_11) * 2.0 ** -53
    k = len(seeds)
    u1 = (u[:, 0::2] + 2.0 ** -54).ravel()
    theta = (2.0 * math.pi * u[:, 1::2]).ravel()
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float,
                                        k * pairs)).reshape(k, pairs)
    normals = np.empty((k, 2 * pairs))
    normals[:, 0::2] = radius * np.fromiter(map(math.cos, theta.tolist()),
                                            float, k * pairs).reshape(k, pairs)
    normals[:, 1::2] = radius * np.fromiter(map(math.sin, theta.tolist()),
                                            float, k * pairs).reshape(k, pairs)
    return normals


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-style unitary from a seeded Gaussian matrix.

    QR-orthonormalization with the R-diagonal phases divided out; the
    result is deterministic per (n, seed) and unitary to roundoff. It is
    :func:`_unitary_stack` on a stack of one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _unitary_stack(n, [seed])[0]


def _unitary_stack(n: int, seeds) -> np.ndarray:
    """``random_unitary(n, s)`` for each seed ``s``, as a (k, n, n) stack.

    Each seed's Gaussian matrix is drawn from a fresh stream; the draws
    of all seeds are hashed together and the QR factorization is one
    stacked numpy call, one LAPACK call per matrix, so entry i is bit for
    bit the lone ``random_unitary(n, seeds[i])`` (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices
    AMS, 2007).
    """
    seeds = np.array([s & _MASK for s in seeds], dtype=np.uint64)
    g = (_gaussians(seeds, n * n) / math.sqrt(2)).view(complex)
    q, r = np.linalg.qr(g.reshape(-1, n, n))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]
