"""Matrix exponentials and principal logarithms.

Normal matrices get their logarithms through the spectral
decomposition; a scaling-and-squaring Pade kernel computes the
exponential of any matrix, normal or not. ``kurepa_decompose`` splits any
matrix with a normal exponential into a principal normal logarithm
plus 2*pi*i times an integer-spectrum branch weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import INV_TOL, ON_FEATURE_TOL
from .errors import ExpNotNormal, NormLogError, NotNormal, Singular
from .linalg import _frob_stack, as_square_matrix, commutator
from .spectral import SpectralDecomposition, _decompose_stack, normal_eig

__all__ = [
    "KurepaDecomposition",
    "branch_log",
    "exp_general",
    "kurepa_decompose",
    "principal_log",
]

TWO_PI = 2.0 * math.pi


# Pade(13,13) numerator coefficients for exp; theta bounds the scaled norm
# for which the approximant is accurate to double precision.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def exp_general(x) -> np.ndarray:
    """Matrix exponential via scaling and squaring with a Pade(13,13) core
    (Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl., 2005).

    Works for arbitrary square complex input; agrees with the spectral
    exponential ``borel_calculus(normal_eig(x), cmath.exp)`` on normal
    matrices up to rounding. It is :func:`_exp_stack` on a stack of one.

    Accuracy: the s = ceil(log2(||X||_1 / theta_13)) squarings amplify
    the rounding of the Pade step by about 2^s, so an entry's error is
    about 2^s u ||e^X||, however small the entry: ``exp_general(diag(
    -1e10, 0))[1, 1]`` reads 1 - 2.4e-7 (s = 31), not e^0 = 1. Past the
    largest float the result overflows to inf and NaN entries.
    """
    return _exp_stack(as_square_matrix(x)[None])[0]


def _exp_gaps(lhs: np.ndarray, rhs: np.ndarray) -> list:
    """The relative gap ``||lhs - rhs|| / ||lhs||`` of the two sides of an
    exponential equation, for each pair of matrices of two (k, n, n)
    stacks: the build-time self-test and the exponential gate of the
    checks both take it, so a measured gap is the gate's."""
    return (_frob_stack(lhs - rhs)
            / np.maximum(_frob_stack(lhs), 1e-300)).tolist()


def _exp_stack(x: np.ndarray) -> np.ndarray:
    """The exponentials of a validated (k, n, n) complex stack, each bit
    for bit the lone result.

    The matrices are grouped by squaring count; each group runs the
    Pade kernel as one numpy call per step, one BLAS or LAPACK call per
    matrix, so each result is computed as if alone.
    """
    # the 1-norm of each matrix, as np.linalg.norm(x[i], 1) takes it
    norms = np.add.reduce(np.abs(x), axis=1).max(axis=-1).tolist()
    # -1 marks a zero matrix, whose exponential is the identity
    squarings = [-1 if norm == 0.0 else
                 max(0, int(math.ceil(math.log2(norm / _PADE13_THETA))))
                 for norm in norms]
    out = np.empty_like(x)
    for s in sorted(set(squarings)):
        idx = [i for i, si in enumerate(squarings) if si == s]
        out[idx] = _exp_scaled(x[idx], s)
    return out


def _exp_scaled(x: np.ndarray, squarings: int) -> np.ndarray:
    """The Pade kernel on a stack whose matrices share their squaring
    count; -1 stands for zero matrices."""
    n = x.shape[-1]
    if squarings < 0:
        return np.repeat(np.eye(n, dtype=complex)[None], len(x), axis=0)
    a = x / (2.0 ** squarings)
    b = _PADE13_B
    eye = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _principal_scalar_log(lam: complex) -> complex:
    """Scalar log with Im in (-pi, pi]; the cut maps onto +i*pi.

    Arguments within ``ON_FEATURE_TOL`` of -pi (i.e. just below the negative real
    axis, where rounding noise lands) are pulled up to the +i*pi side.
    """
    theta = cmath.phase(lam)
    if theta <= -math.pi + ON_FEATURE_TOL:
        theta = math.pi
    return math.log(abs(lam)) + 1j * theta


def _require_invertible(dec: SpectralDecomposition, scale: float):
    floor = INV_TOL * max(scale, 1e-300)
    for lam in dec.eigenvalues:
        if abs(lam) < floor:
            raise Singular(f"eigenvalue {lam} below invertibility floor "
                           f"{floor:.3e}")


def branch_log(dec_n: SpectralDecomposition) -> np.ndarray:
    """Principal logarithm of an invertible normal matrix, given its
    decomposition: sum Log(lam_j) P_j over the clusters, P_j the
    eigenprojection of cluster j. Raises Singular below the
    invertibility floor.
    """
    _require_invertible(dec_n, dec_n.norm)
    return dec_n.combination([_principal_scalar_log(lam)
                              for lam in dec_n.eigenvalues])


def principal_log(n_mat) -> np.ndarray:
    """Principal logarithm of an invertible normal matrix.

    Every eigenvalue of the result has imaginary part in (-pi, pi];
    negative real eigenvalues map to log|lam| + i*pi. Raises NotNormal
    or Singular when the input fails the preconditions.
    """
    return branch_log(normal_eig(n_mat))


@dataclass(frozen=True, eq=False)  # arrays have no truth value
class KurepaDecomposition:
    """Splitting Y = N0 + 2*pi*i*W with N0 the principal log of e^Y.

    ``W`` commutes with ``N0`` and has spectrum within
    ``integer_spectrum_residual`` of the integers whenever e^Y is
    normal (which construction requires). ``commute_residual`` is the
    relative commutator norm actually measured. Records compare and hash
    by identity.
    """

    n0: np.ndarray
    w: np.ndarray
    commute_residual: float
    integer_spectrum_residual: float

    def reconstruct(self) -> np.ndarray:
        return self.n0 + TWO_PI * 1j * self.w


def kurepa_decompose(y) -> KurepaDecomposition:
    """Decompose Y = N0 + 2*pi*i*W given that e^Y is normal.

    N0 is the principal logarithm of e^Y; W = (Y - N0) / (2*pi*i). The
    branch weight W is generally non-normal, so its eigenvalues come
    from the general eigensolver (the only place one is needed).

    Raises
    ------
    ExpNotNormal
        when e^Y fails the normality test, so no normal logarithm
        structure exists.
    Singular
        when e^Y is numerically singular.
    """
    y = as_square_matrix(y)
    attempts = _decompose_stack(exp_general(y)[None])
    return _unwrap(_kurepa_splits(y[None], attempts)[0])


def _kurepa_splits(y: np.ndarray, attempts) -> list:
    """:func:`kurepa_decompose` of each matrix of a validated (k, n, n)
    stack, given ``attempts[i]``: the decomposition of e^Y as
    ``normal_eig`` returns it, or the NormLogError it raised.

    Entry i is the decomposition, bit for bit the lone one, or the error
    the lone call raises. Past each :func:`branch_log`, the residual
    norms and eigenvalue solves are one stacked call each over the
    entries that split.
    """
    out: list = []
    for attempt in attempts:
        if isinstance(attempt, NotNormal):
            error = ExpNotNormal("exp(Y) is not normal within tolerance")
            error.__cause__ = attempt
            attempt = error
        try:
            out.append(attempt if isinstance(attempt, NormLogError)
                       else branch_log(attempt))
        except Singular as exc:
            out.append(exc)
    ok = [i for i, entry in enumerate(out) if not isinstance(entry, Exception)]
    if not ok:
        return out
    n0 = np.stack([out[i] for i in ok])
    w = (y[ok] - n0) / (TWO_PI * 1j)
    # relative to max(1, ||N0|| ||W||), as the checks' residuals are
    commute = _frob_stack(commutator(n0, w)) / np.maximum(
        1.0, _frob_stack(n0) * _frob_stack(w))
    eigs = np.linalg.eigvals(w)
    # abs() of a complex is hypot; np.rint rounds half to even, as round
    d = eigs - np.rint(eigs.real)
    integer = np.maximum(np.hypot(d.real, d.imag).max(axis=1), 0.0)
    for j, i in enumerate(ok):
        out[i] = KurepaDecomposition(
            n0=n0[j], w=w[j], commute_residual=commute[j].item(),
            integer_spectrum_residual=integer[j].item())
    return out


def _unwrap(entry):
    """``entry``, or raise it if it is an error."""
    if isinstance(entry, Exception):
        raise entry
    return entry
