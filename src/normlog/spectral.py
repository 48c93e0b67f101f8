"""Spectral decompositions of normal matrices and plane-region measures.

A normal matrix is decomposed into one unitary eigenbasis whose columns
are grouped into eigenvalue clusters; the eigenprojection of a cluster
is V_j V_j*, and a projection-valued measure assigns to each plane
:class:`Region` the sum of projections whose eigenvalue lies in it.
Regions carry explicit edge-inclusivity so open/closed strips are
distinguished exactly, with a two-scale tolerance:

* a point within ``ON_FEATURE_TOL`` of an edge or line is treated as
  lying exactly on it (exact constructions survive rounding);
* a point farther than that but within ``BOUNDARY_TOL`` of an excluded
  edge cannot be classified and raises :class:`AmbiguousBoundary`
  rather than letting rounding noise pick a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import (BOUNDARY_TOL, CLUSTER_TOL, COMM_TOL, NORM_TOL,
                     ON_FEATURE_TOL)
from .errors import (AmbiguousBoundary, NormLogError, NotCommuting,
                     SpectrumOutOfRange)
from .linalg import (
    _common_eigenbases,
    _frob_stack,
    as_square_matrix,
    commutator,
    dagger,
    im_part,
    re_part,
)

__all__ = [
    "Rect",
    "Region",
    "SpectralDecomposition",
    "StripProjections",
    "borel_calculus",
    "normal_eig",
    "spectral_measure",
    "strip_interior",
    "strip_projections",
]

class Region:
    """Finite description of a plane subset with decidable membership.

    ``_status`` maps an array of complex points (0-d for one point) to a
    pair ``(yes, maybe)``: ``yes`` where the point is decidedly inside,
    ``maybe`` where it is not decidedly outside. Points with ``maybe``
    but not ``yes`` are ambiguous. Intersections combine both with
    ``&``, unions with ``|``.
    """

    def _status(self, z):
        raise NotImplementedError

    def contains(self, z):
        """Membership with boundary-band safety.

        ``z`` is one point (the result is a bool) or an array of points
        (the result is a bool array of the same shape); a point is a 0-d
        array, so both follow the one rule. Raises AmbiguousBoundary for
        the first point, in input order, that falls in the uncertainty
        band of an excluded edge with no other feature deciding it.
        """
        pts = np.asarray(z, dtype=complex)
        yes, maybe = self._status(pts)
        ambiguous = np.broadcast_to(maybe ^ yes, pts.shape)
        if ambiguous.any():
            raise self._ambiguity(
                complex(pts.ravel()[ambiguous.ravel().argmax()]))
        # a region decided without a feature gives one bool for all points
        return bool(yes) if pts.ndim == 0 else np.full(pts.shape, yes)

    def _ambiguity(self, z) -> AmbiguousBoundary:
        """The error for the point ``z`` in the band of an excluded edge."""
        return AmbiguousBoundary(
            f"point {z} lies within {BOUNDARY_TOL:.1e} of an excluded "
            f"edge of {self!r}")


def _edge_status(x, edge: float, incl: bool, sign: float):
    """``(yes, maybe)`` for the side of one edge where ``sign*(x - edge) > 0``.

    Within ``ON_FEATURE_TOL`` of the edge a point lies on it; farther but
    within ``BOUNDARY_TOL`` it lies on it if the edge is included and is
    ambiguous otherwise; beyond both it is decided by its side.
    """
    d = (x - edge) * sign  # positive on the interior side
    if incl:
        inside = d >= -BOUNDARY_TOL
        return inside, inside
    ad = abs(d)
    return d > BOUNDARY_TOL, ((ad > ON_FEATURE_TOL)
                              & ((ad <= BOUNDARY_TOL) | (d > 0)))


@dataclass(frozen=True)
class Rect(Region):
    """Axis-aligned rectangle, possibly unbounded, with per-edge inclusivity."""

    re_lo: float = -math.inf
    re_hi: float = math.inf
    im_lo: float = -math.inf
    im_hi: float = math.inf
    incl_re_lo: bool = True
    incl_re_hi: bool = True
    incl_im_lo: bool = True
    incl_im_hi: bool = True

    def __post_init__(self):
        if any(math.isnan(e) for e in (self.re_lo, self.re_hi, self.im_lo,
                                       self.im_hi)):
            raise ValueError("rectangle edges must not be NaN")
        if self.re_lo > self.re_hi or self.im_lo > self.im_hi:
            raise ValueError("rectangle bounds must satisfy lo <= hi")

    def _status(self, z):
        yes = maybe = True
        for x, edge, incl, sign in (
                (z.real, self.re_lo, self.incl_re_lo, 1.0),
                (z.real, self.re_hi, self.incl_re_hi, -1.0),
                (z.imag, self.im_lo, self.incl_im_lo, 1.0),
                (z.imag, self.im_hi, self.incl_im_hi, -1.0)):
            if not math.isinf(edge):
                y, m = _edge_status(x, edge, incl, sign)
                yes, maybe = yes & y, maybe & m
        return yes, maybe


def strip_interior() -> Region:
    """Open strip |Im z| < pi."""
    return Rect(im_lo=-math.pi, im_hi=math.pi,
                incl_im_lo=False, incl_im_hi=False)


def _merged(values: np.ndarray) -> np.ndarray:
    """For each row of a (k, m) stack of values, the component labels
    :func:`_components` gives at the merge radius normal_eig takes for a
    matrix with those eigenvalues, ``CLUSTER_TOL * max(1, ||row||)``: the
    1-D norm of each row, since ``axis=`` sums in another order."""
    radius = [CLUSTER_TOL * max(1.0, np.linalg.norm(row)) for row in values]
    return _components(values, np.array(radius))


def _near(dx: np.ndarray, dy: np.ndarray, radius, strict: bool = False):
    """Elementwise ``hypot(dx, dy) <= radius`` (``<`` if ``strict``), as
    ``abs`` of the complex difference compares. ``hypot`` is taken only
    where both parts are within the radius: it is never below either."""
    within = np.less if strict else np.less_equal
    near = within(abs(dx), radius) & within(abs(dy), radius)
    if near.any():
        near[near] = within(np.hypot(dx[near], dy[near]),
                            np.broadcast_to(radius, near.shape)[near])
    return near


def _components(z: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """For each row of a (k, m) stack of points, the smallest index in the
    connected component of each point, where the points of row i within
    ``radius[i]`` of each other are joined (see :func:`_near`).

    Each point takes the smallest label among its neighbours, then the
    label of that label, until no label changes; each step is array
    code over the whole stack.
    """
    near = _near(z.real[:, :, None] - z.real[:, None, :],
                 z.imag[:, :, None] - z.imag[:, None, :], radius[:, None, None])
    m = z.shape[1]
    row = np.arange(len(z))[:, None]
    labels = np.broadcast_to(np.arange(m), z.shape)
    while True:
        new = np.where(near, labels[:, None, :], m).min(axis=2)
        new = new[row, new]
        if (new == labels).all():
            return new
        labels = new


@dataclass(frozen=True, eq=False)  # arrays have no truth value
class SpectralDecomposition:
    """Eigenvalue clusters of a normal matrix in one unitary eigenbasis.

    Cluster j owns the contiguous columns ``bounds[j]:bounds[j + 1]`` of
    ``v`` and has representative eigenvalue ``eigenvalues[j]``; clusters
    are sorted by (Re, Im). Its eigenprojection is V_j V_j*, so the
    projections are Hermitian idempotent, mutually orthogonal and sum to
    the identity, and the matrix is V diag(lam) V*. Eigenvalues in
    different clusters lie more than the merge radius apart; their
    representatives (cluster means) need not. Decompositions compare and
    hash by identity.
    """

    v: np.ndarray
    eigenvalues: tuple
    bounds: tuple

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @cached_property
    def multiplicities(self) -> np.ndarray:
        m = np.subtract(self.bounds[1:], self.bounds[:-1])
        m.flags.writeable = False
        return m

    @cached_property
    def norm(self) -> float:
        """Frobenius norm of the matrix, sqrt(sum_j m_j |lam_j|^2)."""
        return math.sqrt(sum(m * abs(lam) ** 2 for m, lam
                             in zip(self.multiplicities, self.eigenvalues)))

    @cached_property
    def eigenvalue_array(self) -> np.ndarray:
        """The representatives as one complex array, for region membership."""
        return np.array(self.eigenvalues, dtype=complex)

    def projection(self, j: int) -> np.ndarray:
        """Eigenprojection of cluster ``j``."""
        cols = self.v[:, self.bounds[j]:self.bounds[j + 1]]
        return cols @ dagger(cols)

    def select(self, mask) -> np.ndarray:
        """Sum of the eigenprojections of the clusters where ``mask`` holds."""
        mask = np.repeat(np.asarray(mask, dtype=bool), self.multiplicities)
        return _select_stack(self.v[None], mask[None])[0]

    def combination(self, values) -> np.ndarray:
        """Sum of values[j] times the eigenprojection of cluster j."""
        d = np.repeat(np.asarray(values, dtype=complex), self.multiplicities)
        return _combination_stack(self.v[None], d[None])[0]

    def reconstruct(self) -> np.ndarray:
        return self.combination(self.eigenvalues)


@dataclass(frozen=True, eq=False)  # arrays have no truth value
class _Decompositions:
    """The spectral decompositions of a (k, n, n) stack, by column.

    ``v[i]`` is matrix i's eigenbasis, laid out as ``normal_eig`` lays it
    out (column-major: ``vt`` holds the transposes, C-contiguous);
    ``lam[i, j]`` is the representative of column j's cluster and
    ``start[i, j]`` whether j is its first column. A matrix whose
    decomposition raised ``errors[i]`` has a zero basis, zero
    representatives and one cluster per column, so its row adds nothing
    to a stacked product. Entry i, made on request, is the
    :class:`SpectralDecomposition` of matrix i or its error.
    """

    vt: np.ndarray
    lam: np.ndarray
    start: np.ndarray
    errors: list

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int):
        if self.errors[i] is not None:
            return self.errors[i]
        start = self.start[i]
        return SpectralDecomposition(
            v=self.v[i], eigenvalues=tuple(self.lam[i, start].tolist()),
            bounds=tuple(np.flatnonzero(start).tolist()) + (len(start),))

    @property
    def v(self) -> np.ndarray:
        return self.vt.swapaxes(1, 2)

    @cached_property
    def label(self) -> np.ndarray:
        """Each column's cluster index."""
        return np.cumsum(self.start, axis=1) - 1

    def rows(self, idx: list) -> _Decompositions:
        """Entries ``idx`` (a list; one may repeat) as one record."""
        return _Decompositions(self.vt[idx], self.lam[idx], self.start[idx],
                               [self.errors[i] for i in idx])


def _select_stack(v: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """For each basis of a (k, n, n) stack, the sum of the projections
    onto the columns its row of the (k, n) ``masks`` selects: V_S V_S*.

    The bases with the same number of selected columns share one stacked
    product, so each is computed as if alone; none selected gives zero.
    """
    out = np.empty(v.shape, dtype=complex)
    counts = masks.sum(axis=1)
    out[counts == 0] = 0.0
    rows = v.swapaxes(1, 2)  # row j of entry i is column j of v[i]
    for m in set(counts.tolist()) - {0}:
        same = counts == m
        # the selected columns, laid out column-major as v[:, mask] is
        cols = rows[masks & same[:, None]].reshape(-1, m, v.shape[1])
        cols = cols.swapaxes(1, 2)
        out[same] = cols @ dagger(cols)
    return out


def _combination_stack(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V diag(d) V* for each basis of a (k, n, n) stack and its row of
    the (k, n) column weights ``d``, one stacked product."""
    return (v * d[:, None, :]) @ dagger(v)


def _span_distances(v: np.ndarray, labels: np.ndarray,
                    ws: np.ndarray) -> np.ndarray:
    """Relative distance of each matrix of a (k, n, n) stack ``ws`` to the
    span of the projections that group the columns of the unitary
    ``v[i]`` (``v`` holds one basis per matrix, or one for all) by the
    labels ``labels[i]``, each in [0, n).

    The distance is ||M - D|| / ||w||, M = V* w V, D the group means of
    diag(M). The products, the diagonal sums (one ``bincount`` whose bins
    are offset per matrix, so each sums in the same order) and the norms
    are each one call over the stack.
    """
    k, n = labels.shape
    bins = (labels + n * np.arange(k)[:, None]).ravel()
    m = dagger(v) @ ws @ v
    d = np.diagonal(m, axis1=1, axis2=2)
    sums = (np.bincount(bins, d.real.ravel(), k * n)
            + 1j * np.bincount(bins, d.imag.ravel(), k * n))
    counts = np.maximum(np.bincount(bins, minlength=k * n), 1)
    means = (sums / counts).reshape(k, n)
    diag = np.arange(n)
    m[:, diag, diag] -= np.take_along_axis(means, labels, axis=1)
    norms = _frob_stack(ws)
    # a zero w has M - D = 0, and the distance 0.0 alone takes
    return _frob_stack(m) / np.where(norms == 0.0, 1.0, norms)


def normal_eig(x) -> SpectralDecomposition:
    """Spectral decomposition of a normal matrix.

    The commuting Hermitian parts Re(X), Im(X) are diagonalized in a
    common basis; the clusters are the connected components of the graph
    joining eigenvalues within ``CLUSTER_TOL * max(1, ||X||)`` of each
    other, so they do not depend on the order the eigenvalues are found
    in, and each is represented by its mean. This is
    :func:`_decompose_stack` on a stack of one.

    Raises NotNormal when ``X*X != XX*`` beyond tolerance, and
    NotCommuting when X passes that test but the basis found leaves
    ``||V* X V - diag|| > COMM_TOL * n * ||X||``.
    """
    (dec,) = _decompose_stack(as_square_matrix(x)[None])
    if isinstance(dec, NormLogError):
        raise dec
    return dec


def _decompose_stack(x: np.ndarray) -> _Decompositions:
    """The spectral decompositions of a validated (k, n, n) stack, as one
    record: entry i is ``normal_eig(x[i])`` bit for bit, or the
    NormLogError it would raise, and an error leaves the other entries
    unchanged.

    One commutator of the Hermitian parts per matrix decides normality,
    as :func:`~normlog.linalg.is_normal` does. A normal matrix whose
    basis V leaves V* X V off its diagonal by more than ``COMM_TOL * n *
    ||X||`` is NotCommuting: the normality test is relative to
    ``||X||^2``, so one large eigenvalue lets a block whose parts do not
    commute pass it, and ``eigh`` resolves Re(X) eigenvalues just outside
    the merge radius only to about u ||Re(X)|| / gap. A norm that is not
    finite (an overflow) scales no test: its matrix is SpectrumOutOfRange.
    The norms, the commutators, the ``eigh`` of the Re(X), the
    products V* Re(X) V and V* Im(X) V, both tests and the clusters of
    :func:`_clustered` are array code over the whole stack, one BLAS or
    LAPACK call per matrix, so each entry is computed as if alone. A
    failing entry's ``eigh`` is computed and discarded, so an ``eigh``
    that fails to converge on it raises NoConvergence for the whole stack.
    """
    norms = _frob_stack(x)
    finite = np.isfinite(norms)
    if not finite.all():  # decomposed as zero, then marked failed
        x = np.where(finite[:, None, None], x, 0)
        norms = np.where(finite, norms, 0.0)
    re, im = re_part(x), im_part(x)
    v, errors = _common_eigenbases(re, im, norms)
    for i in np.flatnonzero(~finite).tolist():
        errors[i] = SpectrumOutOfRange("the matrix norm is not finite")
    lams, coupling = _diagonal_and_rest(v, re, im)
    # a normal X must be diagonal in its basis: V* X V off its diagonal
    # within COMM_TOL * n * ||X||
    n = x.shape[-1]
    for i in np.flatnonzero(coupling > COMM_TOL * n * norms).tolist():
        if errors[i] is None:
            comm = _frob_stack(commutator(re[i:i + 1], im[i:i + 1]))[0]
            errors[i] = NotCommuting(
                f"X passes the normality test at "
                f"{2 * comm / (NORM_TOL * norms[i] ** 2):.3g} of its bound, "
                f"but the basis found leaves V* X V off its diagonal by "
                f"{coupling[i]:.3e} > {COMM_TOL:.1e} * n * ||X||")
    order, reps, start = _clustered(lams,
                                    CLUSTER_TOL * np.maximum(1.0, norms))
    # the permuted columns laid out as the fancy index v[:, order] lays
    # them out (column-major), which the later products see
    vt = v.swapaxes(1, 2)[np.arange(len(x))[:, None], order]
    failed = np.array([error is not None for error in errors], dtype=bool)
    vt[failed], reps[failed], start[failed] = 0.0, 0.0, True
    return _Decompositions(vt, reps, start, errors)


def _diagonal_and_rest(v: np.ndarray, re: np.ndarray, im: np.ndarray):
    """For each basis V of a stack, the diagonal of V* X V, X = Re + i Im,
    as eigenvalues, and the Frobenius norm of the rest of V* X V."""
    v_star = dagger(v)
    m_re, m_im = v_star @ re @ v, v_star @ im @ v
    lams = (np.diagonal(m_re, axis1=1, axis2=2).real
            + 1j * np.diagonal(m_im, axis1=1, axis2=2).real)
    m_im *= 1j
    m_re += m_im  # V* X V, in place
    n = v.shape[-1]
    m_re[:, range(n), range(n)] = 0.0
    return lams, _frob_stack(m_re)


def _clustered(lams: np.ndarray, radius: np.ndarray) -> tuple:
    """The clusters of each row of ``lams``: the components
    :func:`_components` finds for the radii ``radius``, each represented
    by its mean, ``0 + lam_a + lam_b + ...`` over its members in
    ascending order, over their count, as ``sum`` and ``/`` of numpy
    scalars take it.

    Returns ``(order, reps, start)``: each row's columns ordered by
    cluster (the clusters by (Re, Im) of their means, then by smallest
    index; the members of one ascending), the representative of each
    ordered column and whether it starts its cluster. Each step is one
    call over the whole stack.
    """
    k, n = lams.shape
    # the columns of each row grouped by component, ascending within one;
    # the components in flat (row, column) order, each with its first
    # flat position and size (every row starts a component)
    labels = _components(lams, radius)
    r = np.arange(k)[:, None]
    members = np.argsort(labels, axis=1, kind="stable")
    grouped = labels[r, members]
    starts = np.ones((k, n), dtype=bool)
    starts[:, 1:] = grouped[:, 1:] != grouped[:, :-1]
    row, at = np.nonzero(starts)
    at += row * n
    size = np.diff(np.append(at, k * n))
    values = lams[r, members].ravel()
    means = 0 + values[at]
    for j in range(1, int(size.max())):
        more = size > j
        means[more] = means[more] + values[at[more] + j]
    means /= size
    order = np.lexsort((grouped.ravel()[at], means.imag, means.real, row))
    at, size, means = at[order], size[order], means[order]
    # the sorted clusters' members, concatenated: each row's n columns
    offset = np.cumsum(size) - size
    flat = np.repeat(at - offset, size) + np.arange(k * n)
    start = np.zeros(k * n, dtype=bool)
    start[offset] = True
    return (members.ravel()[flat].reshape(k, n),
            np.repeat(means, size).reshape(k, n), start.reshape(k, n))


def spectral_measure(dec: SpectralDecomposition, omega: Region) -> np.ndarray:
    """Sum of eigenprojections whose eigenvalue lies in ``omega``.

    An empty selection yields the zero matrix. AmbiguousBoundary
    propagates from membership testing.
    """
    return dec.select(omega.contains(dec.eigenvalue_array))


def borel_calculus(dec: SpectralDecomposition,
                   f: Callable[[complex], complex]) -> np.ndarray:
    """Apply a scalar function to a normal matrix: V diag(f(lam)) V*."""
    return dec.combination([f(lam) for lam in dec.eigenvalues])


def _fold_branch(t):
    """Branch index and folded value: t = 2*pi*k + r with r in (-pi, pi],
    of a real number or elementwise of an array.

    Values within ``ON_FEATURE_TOL`` of an odd multiple of pi snap onto it, so
    exactly-placed boundary inputs land on the closed upper endpoint.
    ``np.rint`` rounds half to even, as ``round`` does.
    """
    two_pi = 2.0 * math.pi
    k = np.rint(t / two_pi)
    r = t - two_pi * k
    up = r > math.pi + ON_FEATURE_TOL
    k, r = np.where(up, k + 1, k), np.where(up, r - two_pi, r)
    down = r <= -math.pi + ON_FEATURE_TOL
    return np.where(down, k - 1, k), np.where(down, r + two_pi, r)


def _odd_pi_distance(t):
    """Distance from a real number, or from each entry of an array, to the
    nearest odd multiple of pi."""
    k = (t - math.pi) / (2.0 * math.pi)
    # np.rint rounds half to even, as round does
    k = np.rint(k) if isinstance(k, np.ndarray) else round(k)
    return abs(t - (2 * k + 1) * math.pi)


@dataclass(frozen=True, eq=False)  # masks have no truth value
class StripProjections:
    """The branch window [k_lo, k_hi] of a pair (X, Y).

    Column j of ``x_strip``/``y_strip`` marks the clusters of X/Y in the
    open strip (2k-1)pi < Im z < (2k+1)pi, k = k_lo + j, and column j of
    ``x_line``/``y_line`` those on the line Im z = (2k+1)pi. ``p(k)`` and
    ``q(k)`` are the strip projections of X and Y, ``e(k)`` and ``f(k)``
    the line projections; each raises KeyError for k outside the window.

    :func:`strip_projections` admits only Im z in
    [(2k_lo+1)pi, (2k_hi+1)pi], which the open strip k_lo lies below, so
    column 0 of ``x_strip`` and ``y_strip`` is always empty and ``p(k_lo)``
    and ``q(k_lo)`` are zero: a window holding strip k needs k_lo <= k - 1.
    """

    dec_x: SpectralDecomposition
    dec_y: SpectralDecomposition
    k_lo: int
    k_hi: int
    x_strip: np.ndarray
    x_line: np.ndarray
    y_strip: np.ndarray
    y_line: np.ndarray

    def _column(self, mask: np.ndarray, k: int) -> np.ndarray:
        if not self.k_lo <= k <= self.k_hi:
            raise KeyError(f"branch {k} outside the window "
                           f"[{self.k_lo}, {self.k_hi}]")
        return mask[:, k - self.k_lo]

    def p(self, k: int) -> np.ndarray:
        return self.dec_x.select(self._column(self.x_strip, k))

    def q(self, k: int) -> np.ndarray:
        return self.dec_y.select(self._column(self.y_strip, k))

    def e(self, k: int) -> np.ndarray:
        return self.dec_x.select(self._column(self.x_line, k))

    def f(self, k: int) -> np.ndarray:
        return self.dec_y.select(self._column(self.y_line, k))

    def difference(self) -> np.ndarray:
        """The sum of 2k*pi*i (P_k - Q_k) + (2k+1)*pi*i (E_k - F_k) over
        the window, as V_x diag(w_x) V_x* - V_y diag(w_y) V_y*: a cluster
        weighs 2k*pi*i in open strip k, (2k+1)*pi*i on line k and 0
        elsewhere, and no projection is formed."""
        return (self.dec_x.combination(_window_weights(
                    self.x_strip, self.x_line, self.k_lo, self.k_hi))
                - self.dec_y.combination(_window_weights(
                    self.y_strip, self.y_line, self.k_lo, self.k_hi)))


def _window_weights(strip: np.ndarray, line: np.ndarray, k_lo: int,
                    k_hi: int) -> np.ndarray:
    """The weight of each point classified by ``strip`` and ``line``
    (masks with one trailing column per branch of the window): 2k*pi*i
    in open strip k, (2k+1)*pi*i on line k, 0 elsewhere."""
    k = np.arange(k_lo, k_hi + 1)
    return strip @ (2 * k * math.pi * 1j) + line @ ((2 * k + 1) * math.pi * 1j)


def strip_projections(dec_x: SpectralDecomposition,
                      dec_y: SpectralDecomposition,
                      k_lo: int, k_hi: int) -> StripProjections:
    """Classify the clusters of X and Y over a branch window.

    Raises SpectrumOutOfRange for an eigenvalue outside
    (2*k_lo+1)pi <= Im z <= (2*k_hi+1)pi, within the boundary band (X
    checked before Y), then AmbiguousBoundary as the first ambiguous
    strip measure would, k ascending and X before Y within each k. The
    lowest strip, k_lo, lies below that range and is always empty; pass
    k_lo <= k - 1 to classify strip k.
    """
    if k_hi < k_lo:
        raise ValueError("k_hi must be >= k_lo")
    (x_strip, x_line), (y_strip, y_line), (error,) = _classify_window(
        dec_x.eigenvalue_array[None], dec_y.eigenvalue_array[None],
        k_lo, k_hi)
    if error is not None:
        raise error
    return StripProjections(dec_x, dec_y, k_lo, k_hi,
                            x_strip[0], x_line[0], y_strip[0], y_line[0])


def _classify_window(lam_x: np.ndarray, lam_y: np.ndarray, k_lo: int,
                     k_hi: int):
    """Classify each row of a (k, m) stack of points of X and of Y over
    the branch window [k_lo, k_hi], as :func:`strip_projections` does.

    Returns ``((x_strip, x_line), (y_strip, y_line), errors)``. Column j
    of the (k, m, k_hi - k_lo + 1) masks marks, for k = k_lo + j, the
    points in the open strip (2k-1)pi < Im z < (2k+1)pi, by the rule of
    a :class:`Rect` with those open edges, and those on the line
    Im z = (2k+1)pi, within ``BOUNDARY_TOL`` of it, in one pass over all
    branches; ``errors[i]`` is None,
    or the error :func:`strip_projections` raises for row i. The range
    test reads the signed distance to the window's lowest line that the
    strips read, so a point in range is never decidedly inside strip
    k_lo, below that line.
    """
    # the odd lines (2j+1)pi, j = k_lo-1..k_hi: strip k lies between lines
    # k-1 and k
    lines = np.array([(2 * j + 1) * math.pi
                      for j in range(k_lo - 1, k_hi + 1)])
    errors: list = [None] * len(lam_x)
    classes, ambiguous = [], []
    for name, lam in (("X", lam_x), ("Y", lam_y)):
        im = lam.imag[..., None]
        above, maybe_above = _edge_status(im, lines[:-1], False, 1.0)
        below, maybe_below = _edge_status(im, lines[1:], False, -1.0)
        in_strip = above & below
        classes.append((in_strip, abs(im - lines[1:]) <= BOUNDARY_TOL))
        ambiguous.append((maybe_above & maybe_below) ^ in_strip)
        in_range = (_edge_status(im[..., 0], lines[1], True, 1.0)[0]
                    & _edge_status(im[..., 0], lines[-1], True, -1.0)[0])
        for i in np.flatnonzero(~in_range.all(axis=1)).tolist():
            if errors[i] is None:
                errors[i] = SpectrumOutOfRange(
                    f"eigenvalue {complex(lam[i, in_range[i].argmin()])} of "
                    f"{name} outside Im in [{lines[1]:.6f}, {lines[-1]:.6f}]")
    # the first ambiguous strip measure: k ascending, X before Y within k
    hits = np.stack([a.any(axis=1) for a in ambiguous], axis=2)
    hits = hits.reshape(len(lam_x), -1)
    for i in np.flatnonzero(hits.any(axis=1)).tolist():
        if errors[i] is None:
            j, side = divmod(int(hits[i].argmax()), 2)
            z = (lam_x, lam_y)[side][i, ambiguous[side][i, :, j].argmax()]
            strip = Rect(im_lo=float(lines[j]), im_hi=float(lines[j + 1]),
                         incl_im_lo=False, incl_im_hi=False)
            errors[i] = strip._ambiguity(complex(z))
    return classes[0], classes[1], errors
