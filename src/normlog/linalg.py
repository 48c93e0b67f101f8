"""Dense complex matrix kernels.

Everything downstream (spectral measures, logarithms, identity checks)
reduces to the handful of operations here: a Hermitian eigensolver,
simultaneous diagonalization of commuting Hermitian matrices, the
normality test, the positive-semidefinite modulus, and
commutant/double-commutant tests.

X is normal iff its Hermitian parts commute: X*X - XX* = 2i [Re X, Im X],
so one commutator of the parts decides both tests a decomposition needs.

Matrices are plain ``numpy.ndarray`` of ``complex128``; there is no
wrapper class. Validation happens at entry via :func:`as_square_matrix`.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import NoConvergence, NotCommuting, NotHermitian, NotNormal

__all__ = [
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
    return _as_square(a, 2, "a square matrix")


def _as_square_stack(a) -> np.ndarray:
    """Coerce to a (k, n, n) stack of square complex matrices, rejecting
    NaN/Inf entries."""
    return _as_square(a, 3, "a stack of square matrices")


def _as_square(a, ndim: int, expected: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected {expected}, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


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
    _require_hermitian(h, tol)
    return _eigh(h)


def _require_hermitian(h: np.ndarray, tol: Tolerances) -> None:
    asymmetry = frob(h - dagger(h))
    if asymmetry > tol.herm * max(frob(h), 1e-300):
        raise NotHermitian(f"asymmetry {asymmetry:.3e} exceeds "
                           f"{tol.herm:.1e} * ||H||")


def _eigh(h: np.ndarray):
    """``eigh`` of the Hermitian part of a matrix or of each matrix of a
    stack; one LAPACK call per matrix, in one numpy call."""
    try:
        # a complex Hermitian eigh already returns float w and complex v
        return np.linalg.eigh((h + dagger(h)) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def _cluster_slices(values, radius: float):
    """Split an ascending real sequence into runs of nearly-equal values.

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
    ``v`` with both ``v* a v`` and ``v* b v`` diagonal. The commutation
    test and the re-diagonalization are those of
    :func:`~normlog.spectral.normal_eig_stack`, on a stack of one.

    Raises
    ------
    NotHermitian
        if ``a`` is not Hermitian, as :func:`herm_eig` tests it.
    NotCommuting
        if ``||ab - ba|| > tol.comm * max(1, ||a|| ||b||)``.
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise ValueError("matrices must share a dimension")
    _require_hermitian(a, tol)
    v, (error,) = _common_eigenbases(a[None], b[None], tol)
    if error is not None:
        raise error
    return v[0]


def _common_eigenbases(a: np.ndarray, b: np.ndarray, tol: Tolerances,
                       norms=None):
    """Common eigenbases of the Hermitian pairs ``(a[i], b[i])`` of two
    (k, n, n) stacks.

    Returns ``(v, errors)``: ``v[i]`` diagonalizes both matrices of pair i
    if ``errors[i]`` is None. Otherwise ``errors[i]`` is NotCommuting, for
    ``||ab - ba|| > tol.comm * max(1, ||a|| ||b||)``, or, with ``norms``,
    where pair i is Re X, Im X of a matrix X with ``||X|| = norms[i]``,
    NotNormal, tested first as :func:`is_normal` tests it. The
    commutators and the ``eigh`` of the ``a[i]`` are one stacked call
    each, over every pair; the tests and the compression of ``b[i]`` to
    each multi-column eigenvalue cluster of ``a[i]`` run per pair, and
    the compressions are re-diagonalized in one ``eigh`` per cluster size.
    """
    comm = a @ b - b @ a
    wa, v = _eigh(a)
    errors = []
    blocks = []  # (basis, cluster columns, compression of b to them)
    for i, (ai, bi, ci, w, vi) in enumerate(zip(a, b, comm, wa, v)):
        residual = frob(ci)
        if norms is not None and not _normality_holds(norms[i], residual, tol):
            errors.append(NotNormal(f"commutator of X with X* has norm "
                                    f"{2 * residual:.3e}"))
            continue
        # max(1, .) keeps the bound above rounding noise when either part
        # is near zero (e.g. the Hermitian part of a skew-adjoint input)
        norm_a = frob(ai)
        if residual > tol.comm * max(1.0, norm_a * frob(bi)):
            errors.append(NotCommuting(
                f"commutator norm {residual:.3e} exceeds "
                f"{tol.comm:.1e} * max(1, ||A|| ||B||)"))
            continue
        errors.append(None)
        for sl in _cluster_slices(w, tol.cluster * max(1.0, norm_a)):
            if sl.stop - sl.start > 1:
                block = vi[:, sl]
                blocks.append((vi, sl, dagger(block) @ bi @ block))
    # one stacked eigh of the compressions per cluster size; the clusters
    # of a basis are disjoint column ranges, so none is read after a write
    for size in sorted({sl.stop - sl.start for _, sl, _ in blocks}):
        group = [blk for blk in blocks if blk[1].stop - blk[1].start == size]
        _, us = _eigh(np.stack([c for _, _, c in group]))
        for (vi, sl, _), u in zip(group, us):
            vi[:, sl] = vi[:, sl] @ u
    return v, errors


def _normality_holds(norm: float, comm_norm: float, tol: Tolerances) -> bool:
    """Normality of X from ``||X||`` and ``||[Re X, Im X]||``."""
    return 2 * comm_norm <= tol.norm * max(norm ** 2, 1e-300)


def is_normal(x, *, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``||X*X - XX*|| <= tol.norm * ||X||^2``, the left side taken
    as ``2 ||[Re X, Im X]||`` since X*X - XX* = 2i [Re X, Im X]; the test
    :func:`~normlog.spectral.normal_eig` applies."""
    x = as_square_matrix(x)
    return _normality_holds(frob(x), frob(commutator(re_part(x), im_part(x))),
                            tol)


def modulus(x, *, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive semidefinite square root of ``x*x``.

    Defined for arbitrary (not necessarily normal) input. Eigenvalues of
    ``x*x`` that round slightly negative are clamped to zero. Raises
    NotHermitian when ``x*x`` fails :func:`herm_eig`'s test. A lone
    matrix is :func:`_modulus_stack` on a stack of one.
    """
    (result,) = _modulus_stack(as_square_matrix(x)[None], tol=tol)
    if isinstance(result, Exception):
        raise result
    return result


def _modulus_stack(x: np.ndarray, *, tol: Tolerances = DEFAULT_TOL) -> list:
    """``modulus(x[i])`` for each matrix of a validated (k, n, n) stack.

    Entry i is the modulus, bit for bit the lone result, or the error the
    lone call would raise; an error leaves the other entries unchanged.
    The products ``x*x``, the ``eigh`` and the square-root products are
    one stacked call each, one BLAS or LAPACK call per matrix.
    """
    h = dagger(x) @ x
    out = []
    for hi in h:
        try:  # herm_eig's tests
            _require_hermitian(as_square_matrix(hi), tol)
            out.append(None)
        except (ValueError, NotHermitian) as exc:
            out.append(exc)
    ok = [i for i, error in enumerate(out) if error is None]
    if ok:
        w, v = _eigh(h if len(ok) == len(h) else h[ok])
        w = np.clip(w, 0.0, None)
        roots = (v * np.sqrt(w)[:, None, :]) @ dagger(v)
        for i, root in zip(ok, roots):
            out[i] = root
    return out


def commutant_basis(y, *, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Basis of the commutant {Z : YZ = ZY}, as a tuple of matrices
    orthonormal under <A, B> = tr(A* B).

    The map Z |-> YZ - ZY is materialized as the n^2 x n^2 matrix
    ``kron(I, Y) - kron(Y^T, I)`` acting on column-major vec(Z); its
    right singular vectors below the relative rank cutoff span its
    nullspace. The identity always commutes, so the tuple is not empty.
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
    return tuple(row.reshape(n, n, order="F") for row in null_rows.conj())


def in_double_commutant(w, y, *, tol: Tolerances = DEFAULT_TOL,
                        basis: tuple | None = None):
    """Test whether ``w`` commutes with everything commuting with ``y``.

    Returns ``(ok, residual)`` where the residual is the worst relative
    commutator norm over a computed basis of the commutant of ``y``.
    A precomputed ``basis``, as :func:`commutant_basis` returns it, may
    be supplied to amortize the SVD.
    """
    w = as_square_matrix(w)
    y = as_square_matrix(y)
    if basis is None:
        basis = commutant_basis(y, tol=tol)
    nw = frob(w)
    if nw == 0.0:
        return True, 0.0
    worst = 0.0
    for z in basis:
        nz = frob(z)
        if nz == 0.0:
            continue
        worst = max(worst, frob(commutator(w, z)) / (nw * nz))
    return worst <= tol.check, worst
