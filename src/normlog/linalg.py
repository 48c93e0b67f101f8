"""Dense complex matrix kernels.

Everything downstream (spectral measures, logarithms, identity checks)
reduces to the handful of operations here: a Hermitian eigensolver,
simultaneous diagonalization of commuting Hermitian matrices, the
positive-semidefinite modulus, and commutant/double-commutant tests.

Matrices are plain ``numpy.ndarray`` of ``complex128``; there is no
wrapper class. Validation happens at entry via :func:`as_square_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import NoConvergence, NotCommuting, NotHermitian

__all__ = [
    "CommutantBasis",
    "as_square_matrix",
    "commutant_basis",
    "commutator",
    "dagger",
    "frob",
    "herm_eig",
    "im_part",
    "in_double_commutant",
    "is_normal",
    "modulus",
    "re_part",
    "simultaneous_diagonalize",
]


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm, bit for bit ``np.linalg.norm(a, "fro")``.

    The same sums of the real and imaginary views that numpy's fast path
    takes, without its dispatch overhead.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got {a.ndim} dimensions")
    if not issubclass(a.dtype.type, np.inexact):
        a = a.astype(float)
    flat = a.ravel(order="K")
    if issubclass(flat.dtype.type, np.complexfloating):
        re, im = flat.real, flat.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(flat.dot(flat))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def re_part(x: np.ndarray) -> np.ndarray:
    """Hermitian part (X + X*)/2."""
    return (x + dagger(x)) / 2


def im_part(x: np.ndarray) -> np.ndarray:
    """Hermitian imaginary part (X - X*)/(2i), so X = Re(X) + i Im(X)."""
    return (x - dagger(x)) / 2j


def herm_eig(h, *, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and ``v`` unitary,
    so that ``h @ v == v @ diag(w)`` up to the eigensolver residual.

    Raises
    ------
    NotHermitian
        if ``||h - h*|| > tol.herm * ||h||``.
    NoConvergence
        if the underlying iteration fails.
    """
    h = as_square_matrix(h)
    h_star = dagger(h)
    asymmetry = frob(h - h_star)
    if asymmetry > tol.herm * max(frob(h), 1e-300):
        raise NotHermitian(f"asymmetry {asymmetry:.3e} exceeds "
                           f"{tol.herm:.1e} * ||H||")
    try:
        # a complex Hermitian eigh already returns float w and complex v
        w, v = np.linalg.eigh((h + h_star) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w, v


def _cluster_slices(values: np.ndarray, radius: float):
    """Split an ascending real array into runs of nearly-equal values.

    Consecutive values closer than ``radius`` share a run.
    """
    slices = []
    start = 0
    for j in range(1, len(values)):
        if values[j] - values[j - 1] > radius:
            slices.append(slice(start, j))
            start = j
    slices.append(slice(start, len(values)))
    return slices


def simultaneous_diagonalize(a, b, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Common eigenbasis of two commuting Hermitian matrices.

    Diagonalizes ``a`` first, then re-diagonalizes the compression of
    ``b`` inside every eigenvalue cluster of ``a``. Returns a unitary
    ``v`` with both ``v* a v`` and ``v* b v`` diagonal.

    Raises
    ------
    NotCommuting
        if ``||ab - ba|| > tol.comm * ||a|| ||b||``.
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise ValueError("matrices must share a dimension")
    # max(1, .) keeps the bound above rounding noise when either part is
    # near zero (e.g. the Hermitian part of a skew-adjoint input)
    norm_a = frob(a)
    norm_ab = max(1.0, norm_a * frob(b))
    residual = frob(commutator(a, b))
    if residual > tol.comm * norm_ab:
        raise NotCommuting(
            f"commutator norm {residual:.3e} exceeds "
            f"{tol.comm:.1e} * max(1, ||A|| ||B||)")

    wa, v = herm_eig(a, tol=tol)
    radius = tol.cluster * max(1.0, norm_a)
    for sl in _cluster_slices(wa, radius):
        if sl.stop - sl.start == 1:
            continue
        block = v[:, sl]
        comp = dagger(block) @ b @ block
        _, u = herm_eig((comp + dagger(comp)) / 2, tol=tol)
        v[:, sl] = block @ u
    return v


def is_normal(x, *, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``||x*x - xx*|| <= tol.norm * ||x||^2``."""
    x = as_square_matrix(x)
    scale = frob(x) ** 2
    return frob(dagger(x) @ x - x @ dagger(x)) <= tol.norm * max(scale, 1e-300)


def modulus(x, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive semidefinite square root of ``x*x``.

    Defined for arbitrary (not necessarily normal) input. Eigenvalues of
    ``x*x`` that round slightly negative are clamped to zero.
    """
    x = as_square_matrix(x)
    w, v = herm_eig(dagger(x) @ x, tol=tol)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


@dataclass(frozen=True)
class CommutantBasis:
    """Trace-orthonormal basis of the commutant {Z : YZ = ZY}.

    ``dim`` is the complex dimension; ``basis`` holds the matrices,
    orthonormal under <A, B> = tr(A* B).
    """

    dim: int
    basis: tuple


def commutant_basis(y, *, tol: Tolerances = DEFAULT_TOL) -> CommutantBasis:
    """Orthonormal basis of the nullspace of Z |-> YZ - ZY.

    The map is materialized as the n^2 x n^2 matrix
    ``kron(I, Y) - kron(Y^T, I)`` acting on column-major vec(Z); its
    right singular vectors below the relative rank cutoff span the
    commutant. The identity always commutes, so ``dim >= 1``.
    """
    y = as_square_matrix(y)
    n = y.shape[0]
    eye = np.eye(n)
    m = np.kron(eye, y) - np.kron(y.T, eye)
    try:
        _, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    cutoff = tol.rank * (s[0] if s.size else 0.0)
    null_rows = vh[s <= cutoff] if s.size else vh
    mats = tuple(row.reshape(n, n, order="F") for row in null_rows.conj())
    return CommutantBasis(dim=len(mats), basis=mats)


def in_double_commutant(w, y, *, tol: Tolerances = DEFAULT_TOL,
                        basis: CommutantBasis | None = None):
    """Test whether ``w`` commutes with everything commuting with ``y``.

    Returns ``(ok, residual)`` where the residual is the worst relative
    commutator norm over a computed basis of the commutant of ``y``.
    A precomputed ``basis`` may be supplied to amortize the SVD.
    """
    w = as_square_matrix(w)
    y = as_square_matrix(y)
    if basis is None:
        basis = commutant_basis(y, tol=tol)
    nw = frob(w)
    if nw == 0.0:
        return True, 0.0
    worst = 0.0
    for z in basis.basis:
        nz = frob(z)
        if nz == 0.0:
            continue
        worst = max(worst, frob(commutator(w, z)) / (nw * nz))
    return worst <= tol.check, worst
