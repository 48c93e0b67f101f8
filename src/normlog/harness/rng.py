"""Deterministic counter-based random streams.

The raw generator is a 64-bit counter hash: draw ``i`` from seed ``s``
is ``mix64((s + (i+1) * GAMMA) mod 2^64)`` where ``GAMMA`` is the
golden-ratio increment 0x9E3779B97F4A7C15 and ``mix64`` is the splitmix
finalizer::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

A uniform double takes the top 53 bits of a draw, ``(z >> 11) * 2^-53``
in [0, 1); ``uniform(lo, hi)`` is ``lo + (hi - lo) * u``, and an integer
in [lo, hi] is ``lo + z % (hi - lo + 1)``. Gaussian variates come from
Box-Muller on consecutive uniforms. Every draw is a pure function of
(seed, counter). The uniform and integer draws take only integer
arithmetic and correctly rounded IEEE operations, so they carry the same
bits on every host. The Gaussians take numpy's log, cos and sin, whose
SIMD loops may round an ulp away from libm and from each other: their
bits, and those of the unitaries (a LAPACK QR of them), depend on
numpy's build, the CPU and LAPACK, while on one host every draw is
reproduced exactly.

``_Streams`` holds the streams of many seeds, one counter each, and
hashes the next draws of all of them in one pass of wrapping numpy
``uint64`` arithmetic: the generators draw every scalar of a chunk's
instances through it. ``random_unitary(n, seed)`` orthonormalizes the
n x n matrix of ``complex(g, g') / sqrt(2)`` over the first ``2 n^2``
Gaussians of a fresh stream of ``seed``, row-major. It reads only its
seed, so ``_unitary_stack`` draws the unitaries of many seeds together,
with one stacked QR, and ``random_unitary`` is that kernel on a stack
of one.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mix64", "random_unitary"]

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


def _mix_stack(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each entry of a uint64 array, in place."""
    for shift, mult in _MIX_U64:
        z ^= z >> shift
        z *= mult
    z ^= z >> _SHIFT_31
    return z


def _units(z: np.ndarray) -> np.ndarray:
    """The uniform doubles in [0, 1) of raw draws: their top 53 bits."""
    return (z >> _SHIFT_11) * 2.0 ** -53


class _Streams:
    """The streams of the seeds ``seeds`` (ints, or a uint64 array),
    stepped together, each row with its own counter.

    ``peek(width, rows)`` hashes the next ``width`` draws of each row (of
    the index array ``rows``, or all) without taking them, and
    ``advance(steps, rows)`` takes ``steps`` of them (one count, or one
    per row), so rows whose draws differ in number each keep their own
    order. ``u64``, ``uniform`` and ``integer`` take ``width`` draws of
    every row.
    """

    def __init__(self, seeds):
        self.seeds = (seeds if isinstance(seeds, np.ndarray) else
                      np.array([s & _MASK for s in seeds], dtype=np.uint64))
        self.counter = np.zeros(len(self.seeds), dtype=np.uint64)

    def peek(self, width: int, rows=slice(None)) -> np.ndarray:
        z = self.counter[rows, None] + np.arange(1, width + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += self.seeds[rows, None]
        return _mix_stack(z)

    def advance(self, steps, rows=slice(None)) -> None:
        self.counter[rows] += np.asarray(steps, dtype=np.uint64)

    def u64(self, width: int = 1) -> np.ndarray:
        z = self.peek(width)
        self.advance(width)
        return z

    def uniform(self, lo: float, hi: float, width: int = 1) -> np.ndarray:
        return lo + (hi - lo) * _units(self.u64(width))

    def integer(self, lo: int, hi: int, width: int = 1) -> np.ndarray:
        """Uniform integers in [lo, hi] inclusive, as int64."""
        return lo + (self.u64(width) % np.uint64(hi - lo + 1)).astype(np.int64)


def _gaussians(seeds: np.ndarray, pairs: int) -> np.ndarray:
    """The first ``2*pairs`` Gaussians of a fresh stream of each of the
    ``seeds`` (ints, or a uint64 array), one row per seed: Box-Muller on
    consecutive uniforms u1 (shifted into (0, 1] by 2^-54) and u2 gives
    ``r cos(2 pi u2)`` then ``r sin(2 pi u2)``, r = sqrt(-2 log u1).

    All counters of all seeds are hashed in one pass, and log, cos and
    sin are numpy's, one call each over the whole stack.
    """
    u = _units(_Streams(seeds).peek(2 * pairs))
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2] + 2.0 ** -54))
    theta = 2.0 * math.pi * u[:, 1::2]
    normals = np.empty((len(seeds), 2 * pairs))
    normals[:, 0::2] = radius * np.cos(theta)
    normals[:, 1::2] = radius * np.sin(theta)
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
    """``random_unitary(n, s)`` for each seed ``s`` (ints, or a uint64
    array of subseeds), as a (k, n, n) stack.

    Each seed's Gaussian matrix is drawn from a fresh stream; the draws
    of all seeds are hashed together and the QR factorization is one
    stacked numpy call, one LAPACK call per matrix, so entry i is bit for
    bit the lone ``random_unitary(n, seeds[i])`` (Mezzadri, "How to
    generate random matrices from the classical compact groups", Notices
    AMS, 2007).
    """
    g = (_gaussians(seeds, n * n) / math.sqrt(2)).view(complex)
    q, r = np.linalg.qr(g.reshape(-1, n, n))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]
