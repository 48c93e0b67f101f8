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

from .config import (CHECK_TOL, CLUSTER_TOL, COMM_TOL, HERM_TOL, NORM_TOL,
                     RANK_TOL)
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
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
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


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and ``v`` unitary,
    so that ``h @ v == v @ diag(w)`` up to the eigensolver residual.

    Raises
    ------
    NotHermitian
        if ``||h - h*|| > HERM_TOL * ||h||``.
    NoConvergence
        if the underlying iteration fails.
    """
    h = as_square_matrix(h)
    _require_hermitian(h)
    return _eigh(h)


def _require_hermitian(h: np.ndarray) -> None:
    (error,) = _hermitian_errors(h[None])
    if error is not None:
        raise error


def _hermitian_errors(h: np.ndarray) -> list:
    """For each matrix of a (k, n, n) stack, None, or the error
    :func:`herm_eig`'s tests raise on it: ValueError for a non-finite
    entry, else NotHermitian for ``||h - h*|| > HERM_TOL * ||h||``. The
    norms and the test are one call each over the stack."""
    errors: list = [None] * len(h)
    finite = np.isfinite(h).all(axis=(1, 2))
    for i in np.flatnonzero(~finite).tolist():
        errors[i] = ValueError("matrix entries must be finite")
    ok = np.flatnonzero(finite)
    if len(ok) < len(h):
        h = h[ok]
    asymmetry = _frob_stack(h - dagger(h))
    above = asymmetry > HERM_TOL * np.maximum(_frob_stack(h), 1e-300)
    for j in np.flatnonzero(above).tolist():
        errors[ok[j]] = NotHermitian(f"asymmetry {asymmetry[j].item():.3e} "
                                     f"exceeds {HERM_TOL:.1e} * ||H||")
    return errors


def _eigh(h: np.ndarray):
    """``eigh`` of the Hermitian part of a matrix or of each matrix of a
    stack; one LAPACK call per matrix, in one numpy call."""
    try:
        # a complex Hermitian eigh already returns float w and complex v
        return np.linalg.eigh((h + dagger(h)) / 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def simultaneous_diagonalize(a, b) -> np.ndarray:
    """Common eigenbasis of two commuting Hermitian matrices.

    Diagonalizes ``a`` first, then re-diagonalizes the compression of
    ``b`` inside every eigenvalue cluster of ``a``. Returns a unitary
    ``v`` with both ``v* a v`` and ``v* b v`` diagonal. The
    re-diagonalization is that of :func:`~normlog.spectral.normal_eig`.

    Raises
    ------
    NotHermitian
        if ``a`` is not Hermitian, as :func:`herm_eig` tests it.
    NotCommuting
        if ``||ab - ba|| > COMM_TOL * max(1, ||a|| ||b||)``.
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise ValueError("matrices must share a dimension")
    _require_hermitian(a)
    v, (error,) = _common_eigenbases(a[None], b[None])
    if error is not None:
        raise error
    return v[0]


def _frob_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of the matrices of a complex (k, n, n) stack, each
    bit for bit :func:`frob` of the matrix.

    ``frob`` takes one dot product of the real view and one of the
    imaginary view; a stacked ``matmul`` of a row by a column makes the
    same dot call per matrix. (``einsum`` sums in another order.)
    """
    flat = a.reshape(len(a), 1, a.shape[-2] * a.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which rows of two stacks of one shape and dtype hold the same
    bytes. Unlike ``==`` this tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.view(np.uint8) == b.view(np.uint8)).reshape(len(a), -1).all(1)


def _common_eigenbases(a: np.ndarray, b: np.ndarray, norms=None):
    """Common eigenbases of the Hermitian pairs ``(a[i], b[i])`` of two
    (k, n, n) stacks.

    Returns ``(v, errors)``: ``v[i]`` diagonalizes both matrices of pair i
    if ``errors[i]`` is None. Otherwise ``errors[i]`` is NotCommuting, for
    ``||ab - ba|| > COMM_TOL * max(1, ||a|| ||b||)``. With ``norms`` (an
    array), pair i is Re X, Im X of a matrix X with ``||X|| = norms[i]``:
    the error is NotNormal, as :func:`is_normal` tests it, and the
    commutation test does not apply, since its absolute floor would
    reject a nearly Hermitian X whose commutator grows as u ||X||^2.
    Normality does not ensure that ``v[i]`` diagonalizes X: one large
    eigenvalue lets a block whose parts do not commute pass the test.
    :func:`~normlog.spectral.normal_eig` checks that.

    The commutators, the ``eigh`` of the ``a[i]``, the norms, the test
    and the sweep for runs of eigenvalues of ``a[i]`` closer than the
    cluster radius are array code over the whole stack. The compressions
    V_c* b V_c of ``b[i]`` to the multi-column runs are gathered,
    re-diagonalized and rotated back, V_c U, in stacked calls per run
    length, one BLAS or LAPACK call per run, as for a lone pair.
    """
    comm = a @ b - b @ a
    wa, v = _eigh(a)
    residual, norm_a = _frob_stack(comm), _frob_stack(a)
    errors: list = [None] * len(a)
    if norms is None:
        # max(1, .) keeps the bound above rounding noise when either part
        # is near zero (e.g. the Hermitian part of a skew-adjoint input)
        ok = ~(residual > COMM_TOL * np.maximum(1.0, norm_a * _frob_stack(b)))
        for i in np.flatnonzero(~ok).tolist():
            errors[i] = NotCommuting(
                f"commutator norm {residual[i].item():.3e} exceeds "
                f"{COMM_TOL:.1e} * max(1, ||A|| ||B||)")
    else:
        ok = _normality_holds(norms, residual)
        for i in np.flatnonzero(~ok).tolist():
            errors[i] = NotNormal(f"commutator of X with X* has norm "
                                  f"{2 * residual[i].item():.3e}")
    # runs of eigenvalues of a[i] no farther apart than the cluster
    # radius, as (pair, first column, length); every row starts a run, so
    # in the flat (pair, column) order each run ends where the next begins
    radius = CLUSTER_TOL * np.maximum(1.0, norm_a)
    starts = np.ones(wa.shape, dtype=bool)
    starts[:, 1:] = wa[:, 1:] - wa[:, :-1] > radius[:, None]
    at = np.flatnonzero(starts)
    length = np.diff(at, append=wa.size)
    pair, first = np.divmod(at, wa.shape[1])
    keep = (length > 1) & ok[pair]
    pair, first, length = pair[keep], first[keep], length[keep]
    # the compressions of b to the runs of one length share one stacked
    # eigh; the runs of a basis are disjoint column ranges
    for m in sorted(set(length.tolist())):
        same = length == m
        p, cols = pair[same], first[same, None] + np.arange(m)
        block = np.ascontiguousarray(v[p[:, None], :, cols].swapaxes(1, 2))
        _, u = _eigh(dagger(block) @ b[p] @ block)
        v[p[:, None], :, cols] = (block @ u).swapaxes(1, 2)
    return v, errors


def _normality_holds(norms: np.ndarray, comm_norms: np.ndarray) -> np.ndarray:
    """Normality of each X from the arrays of ``||X||`` and
    ``||[Re X, Im X]||``."""
    # ** 2 of Python floats (libm's pow), as the test has always taken it;
    # numpy's ** 2 multiplies, which may round the other way
    squares = np.array([norm ** 2 for norm in norms.tolist()])
    return 2 * comm_norms <= NORM_TOL * np.maximum(squares, 1e-300)


def is_normal(x) -> bool:
    """True iff ``||X*X - XX*|| <= NORM_TOL * ||X||^2``, the left side taken
    as ``2 ||[Re X, Im X]||`` since X*X - XX* = 2i [Re X, Im X]; the test
    :func:`~normlog.spectral.normal_eig` applies."""
    x = as_square_matrix(x)[None]
    comm = commutator(re_part(x), im_part(x))
    return bool(_normality_holds(_frob_stack(x), _frob_stack(comm))[0])


def modulus(x) -> np.ndarray:
    """Positive semidefinite square root of ``x*x``.

    Defined for arbitrary (not necessarily normal) input. Eigenvalues of
    ``x*x`` that round slightly negative are clamped to zero. Raises
    NotHermitian when ``x*x`` fails :func:`herm_eig`'s test. A lone
    matrix is :func:`_modulus_stack` on a stack of one.
    """
    (result,) = _modulus_stack(as_square_matrix(x)[None])
    if isinstance(result, Exception):
        raise result
    return result


def _modulus_stack(x: np.ndarray) -> list:
    """``modulus(x[i])`` for each matrix of a validated (k, n, n) stack.

    Entry i is the modulus, bit for bit the lone result, or the error the
    lone call would raise; an error leaves the other entries unchanged.
    The products ``x*x``, the ``eigh`` and the square-root products are
    one stacked call each, one BLAS or LAPACK call per matrix.
    """
    h = dagger(x) @ x
    out = _hermitian_errors(h)  # herm_eig's tests
    ok = [i for i, error in enumerate(out) if error is None]
    if ok:
        w, v = _eigh(h if len(ok) == len(h) else h[ok])
        w = np.clip(w, 0.0, None)
        roots = (v * np.sqrt(w)[:, None, :]) @ dagger(v)
        for i, root in zip(ok, roots):
            out[i] = root
    return out


def commutant_basis(y) -> tuple:
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
    cutoff = RANK_TOL * (s[0] if s.size else 0.0)
    null_rows = vh[s <= cutoff] if s.size else vh
    return tuple(row.reshape(n, n, order="F") for row in null_rows.conj())


def in_double_commutant(w, y, *, basis: tuple | None = None):
    """Test whether ``w`` commutes with everything commuting with ``y``.

    Returns ``(ok, residual)`` where the residual is the worst relative
    commutator norm over a computed basis of the commutant of ``y``, and
    ``ok`` is ``residual <= CHECK_TOL``. A precomputed ``basis``, as
    :func:`commutant_basis` returns it, may be supplied to amortize the
    SVD.
    """
    w = as_square_matrix(w)
    y = as_square_matrix(y)
    if basis is None:
        basis = commutant_basis(y)
    nw = frob(w)
    if nw == 0.0:
        return True, 0.0
    worst = 0.0
    for z in basis:
        nz = frob(z)
        if nz == 0.0:
            continue
        worst = max(worst, frob(commutator(w, z)) / (nw * nz))
    return worst <= CHECK_TOL, worst
