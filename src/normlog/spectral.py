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

from .config import BOUNDARY_TOL, CLUSTER_TOL, ON_FEATURE_TOL, STACK_ENTRIES
from .errors import AmbiguousBoundary, NormLogError, SpectrumOutOfRange
from .linalg import (
    _as_square_stack,
    _cluster_slices,
    _common_eigenbases,
    _frob_stack,
    as_square_matrix,
    dagger,
    im_part,
    re_part,
)

__all__ = [
    "HLine",
    "Points",
    "Rect",
    "Region",
    "SpectralDecomposition",
    "StripProjections",
    "borel_calculus",
    "normal_eig",
    "normal_eig_stack",
    "odd_line",
    "open_branch_strip",
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
            self._ambiguous(complex(pts.ravel()[ambiguous.ravel().argmax()]))
        # a region decided without a feature gives one bool for all points
        return bool(yes) if pts.ndim == 0 else np.full(pts.shape, yes)

    def _ambiguous(self, z):
        raise AmbiguousBoundary(
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


@dataclass(frozen=True)
class HLine(Region):
    """The horizontal line Im z = c (always an included feature)."""

    c: float

    def __post_init__(self):
        if math.isnan(self.c):
            raise ValueError("line level must not be NaN")

    def _status(self, z):
        on = abs(z.imag - self.c) <= BOUNDARY_TOL
        return on, on


@dataclass(frozen=True)
class Points(Region):
    """Finite point set with a match radius."""

    points: tuple
    radius: float = 1e-9

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError("match radius must be a non-negative number")

    def _status(self, z):
        near = False
        for p in self.points:
            d = z - complex(p)
            # hypot, not a complex abs: numpy's may differ from abs(complex)
            near = near | (np.hypot(d.real, d.imag) <= self.radius)
        return near, near


def strip_interior() -> Region:
    """Open strip |Im z| < pi."""
    return Rect(im_lo=-math.pi, im_hi=math.pi,
                incl_im_lo=False, incl_im_hi=False)


def open_branch_strip(k: int) -> Region:
    """Open strip (2k-1)pi < Im z < (2k+1)pi."""
    return Rect(im_lo=(2 * k - 1) * math.pi, im_hi=(2 * k + 1) * math.pi,
                incl_im_lo=False, incl_im_hi=False)


def odd_line(k: int) -> Region:
    """The line Im z = (2k+1)pi."""
    return HLine((2 * k + 1) * math.pi)


def _merge(values, radius: float) -> list[list[int]]:
    """Connected components of the graph joining the complex numbers in
    the list ``values`` that lie within ``radius`` of each other.

    The indices are sorted by Re and split wherever consecutive values
    lie more than ``radius`` apart, then each run likewise by Im; no edge
    crosses such a gap, so only values left in one run are compared
    pairwise. The components depend on the values alone, not on their
    order. Each lists its indices in ascending order, and components are
    ordered by their smallest index. Plain Python, because most calls
    are at n <= 4, where numpy's per-call overhead exceeds the loop.
    """
    re = [z.real for z in values]
    im = [z.imag for z in values]
    groups = []
    for run in _runs(range(len(values)), re, radius):
        if len(run) == 1:
            groups.append(run)
            continue
        for sub in _runs(run, im, radius):
            groups += _components(sub, values, radius)
    for g in groups:
        g.sort()
    groups.sort(key=lambda g: g[0])
    return groups


def _runs(indices, coord: list, radius: float) -> list[list[int]]:
    """``indices`` sorted by ``coord``, split where consecutive coordinates
    differ by more than ``radius``."""
    order = sorted(indices, key=coord.__getitem__)
    return [order[sl]
            for sl in _cluster_slices([coord[i] for i in order], radius)]


def _components(indices: list, zs: list, radius: float) -> list[list[int]]:
    """Connected components of ``indices`` under ``abs(zs[i] - zs[j]) <= radius``."""
    if len(indices) == 1:
        return [indices]
    unseen = set(indices)
    groups = []
    for i in indices:
        if i not in unseen:
            continue
        unseen.discard(i)
        group, stack = [i], [i]
        while stack:
            z = zs[stack.pop()]
            near = [j for j in unseen if abs(zs[j] - z) <= radius]
            unseen.difference_update(near)
            group += near
            stack += near
        groups.append(group)
    return groups


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

    @cached_property
    def _max_abs_imag(self) -> float:
        """The largest |Im lam| of the representatives, which the strip
        gates compare with pi."""
        return float(np.abs(self.eigenvalue_array.imag).max())

    def projection(self, j: int) -> np.ndarray:
        """Eigenprojection of cluster ``j``."""
        cols = self.v[:, self.bounds[j]:self.bounds[j + 1]]
        return cols @ dagger(cols)

    def _projection_blocks(self):
        """Every cluster's eigenprojection, bit for bit ``projection(j)``,
        in blocks ``(js, stack)``: ``stack[i]`` is the projection of cluster
        ``js[i]``. A block holds clusters of one multiplicity, at most
        max(1, STACK_ENTRIES // n^2) of them, and its products are one
        stacked call."""
        starts = self.bounds[:-1]
        size = max(1, STACK_ENTRIES // self.n ** 2)
        for m in sorted(set(self.multiplicities.tolist())):
            same = np.flatnonzero(self.multiplicities == m)
            for lo in range(0, len(same), size):
                js = same[lo:lo + size]
                cols = np.stack([self.v[:, starts[j]:starts[j] + m]
                                 for j in js])
                yield js, cols @ dagger(cols)

    def select(self, mask) -> np.ndarray:
        """Sum of the eigenprojections of the clusters where ``mask`` holds."""
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return np.zeros((self.n, self.n), dtype=self.v.dtype)
        cols = self.v[:, np.repeat(mask, self.multiplicities)]
        return cols @ dagger(cols)

    def combination(self, values) -> np.ndarray:
        """Sum of values[j] times the eigenprojection of cluster j."""
        d = np.repeat(np.asarray(values, dtype=complex), self.multiplicities)
        return (self.v * d) @ dagger(self.v)

    def reconstruct(self) -> np.ndarray:
        return self.combination(self.eigenvalues)

    def bicommutant_distance(self, w, key=None) -> float:
        """Relative distance from ``w`` to the double commutant {X}''.

        {X}'' is the span of the eigenprojections, whose members are
        diagonal and constant per cluster in the eigenbasis: the distance
        is ||M - D|| / ||w||, M = V* w V, D the cluster means of diag(M).
        With ``key``, clusters whose key(lam) merge as normal_eig would
        merge them share one projection, which gives the distance to
        {key(X)}''.
        """
        w = as_square_matrix(w)
        return self._bicommutant_distances(w[None], key)[0]

    def _bicommutant_distances(self, ws: np.ndarray, key=None) -> list:
        """``bicommutant_distance`` of each matrix of a (k, n, n) stack, bit
        for bit: the products V* w V, the diagonal sums (one ``bincount``
        whose bins are offset per matrix, so each sums in the same order)
        and the norms are each one call over the stack."""
        group = np.arange(len(self.eigenvalues))
        if key is not None:
            values = [complex(key(lam)) for lam in self.eigenvalues]
            scale = np.linalg.norm(np.repeat(values, self.multiplicities))
            for gi, g in enumerate(_merge(values,
                                          CLUSTER_TOL * max(1.0, scale))):
                group[g] = gi
        labels = np.repeat(group, self.multiplicities)
        size = labels.max() + 1
        bins = (labels + size * np.arange(len(ws))[:, None]).ravel()
        m = dagger(self.v) @ ws @ self.v
        d = np.diagonal(m, axis1=1, axis2=2)
        total = len(ws) * size
        sums = (np.bincount(bins, d.real.ravel(), total)
                + 1j * np.bincount(bins, d.imag.ravel(), total))
        means = sums.reshape(len(ws), size) / np.bincount(labels)
        diag = np.arange(self.n)
        m[:, diag, diag] -= means[:, labels]
        norms = _frob_stack(ws)
        # a zero w has M - D = 0, and the distance 0.0 alone takes
        return (_frob_stack(m) / np.where(norms == 0.0, 1.0, norms)).tolist()


def normal_eig(x) -> SpectralDecomposition:
    """Spectral decomposition of a normal matrix.

    The commuting Hermitian parts Re(X), Im(X) are diagonalized in a
    common basis; the clusters are the connected components of the graph
    joining eigenvalues within ``CLUSTER_TOL * max(1, ||X||)`` of each
    other, so they do not depend on the order the eigenvalues are found
    in, and each is represented by its mean. This is
    :func:`normal_eig_stack` on a stack of one.

    Raises NotNormal when ``X*X != XX*`` beyond tolerance.
    """
    (dec,) = _decompose_stack(as_square_matrix(x)[None])
    if isinstance(dec, NormLogError):
        raise dec
    return dec


def normal_eig_stack(xs) -> list:
    """Spectral decompositions of a stack of n x n matrices.

    ``xs`` is a sequence of matrices or a (k, n, n) array. Entry i of the
    result is ``normal_eig(xs[i])``, bit for bit, or the NormLogError it
    would raise; an error leaves the other entries unchanged.
    """
    return _decompose_stack(_as_square_stack(xs))


def _decompose_stack(x: np.ndarray) -> list:
    """The decompositions of :func:`normal_eig_stack`, of a validated stack.

    One commutator of the Hermitian parts per matrix decides normality,
    as :func:`~normlog.linalg.is_normal` does, then their commutation.
    The norms, the commutators, the ``eigh`` of the Re(X), the diagonal
    products V* Re(X) V and V* Im(X) V, both tests and the first sweep of
    :func:`_merge` (eigenvalues sorted by Re, split at gaps wider than the
    merge radius) are array code over the whole stack, one BLAS or LAPACK
    call per matrix, so each entry is computed as if alone. A matrix whose
    sweep leaves only single eigenvalues has one cluster per eigenvalue,
    ordered by Re, and its representatives, order and bounds come from
    the sweep's arrays; only the others run :func:`_merge` and take the
    cluster means. A failing entry's ``eigh`` is computed and discarded,
    so an ``eigh`` that fails to converge on it raises NoConvergence for
    the whole stack.
    """
    re, im = re_part(x), im_part(x)
    norms = _frob_stack(x)
    v, errors = _common_eigenbases(re, im, norms)
    v_star = dagger(v)
    lams = (np.diagonal(v_star @ re @ v, axis1=1, axis2=2).real
            + 1j * np.diagonal(v_star @ im @ v, axis1=1, axis2=2).real)
    radius = CLUSTER_TOL * np.maximum(1.0, norms)
    single = _isolated(lams, radius)
    # a lone eigenvalue's mean is 0 + lam, which turns -0.0 into 0.0
    reps = lams + 0
    order = np.lexsort((reps.imag, reps.real), axis=1)
    reps = np.take_along_axis(reps, order, axis=1)
    # the permuted columns laid out as the fancy index v[:, order] lays
    # them out (column-major), which the later products see
    cols = np.take_along_axis(v.swapaxes(1, 2), order[:, :, None],
                              axis=1).swapaxes(1, 2)
    bounds = tuple(range(x.shape[-1] + 1))
    out = []
    for i, error in enumerate(errors):
        if error is not None:
            out.append(error)
        elif single[i]:
            out.append(SpectralDecomposition(
                v=cols[i], eigenvalues=tuple(reps[i].tolist()), bounds=bounds))
        else:
            out.append(_clustered(v[i], lams[i], radius[i].item()))
    return out


def _isolated(lams: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Which rows of ``lams`` :func:`_merge`'s two sweeps split into single
    values, for the radii ``radius``: sorted by Re, split at gaps wider
    than the radius, then each run likewise by Im. Every component is
    then a single value; a row with a longer run may still have only
    single components, which :func:`_merge` finds."""
    order = np.argsort(lams.real, axis=1)
    re = np.take_along_axis(lams.real, order, axis=1)
    gap = radius[:, None]
    run = np.zeros(lams.shape)
    np.cumsum(np.diff(re, axis=1) > gap, axis=1, out=run[:, 1:])
    im = np.take_along_axis(lams.imag, order, axis=1)
    within = np.lexsort((im, run), axis=1)
    run = np.take_along_axis(run, within, axis=1)
    im = np.take_along_axis(im, within, axis=1)
    near = (np.diff(run, axis=1) == 0) & ~(np.diff(im, axis=1) > gap)
    return ~near.any(axis=1)


def _clustered(v: np.ndarray, lams: np.ndarray,
               radius: float) -> SpectralDecomposition:
    """The decomposition with eigenbasis ``v`` and eigenvalues ``lams``
    whose clusters are the components :func:`_merge` finds, each
    represented by its mean."""
    groups = _merge(lams.tolist(), radius)
    reps = [complex(sum(lams[j] for j in g) / len(g)) for g in groups]
    order = sorted(range(len(groups)),
                   key=lambda g: (reps[g].real, reps[g].imag))
    groups = [groups[g] for g in order]
    return SpectralDecomposition(
        v=v[:, [j for g in groups for j in g]],
        eigenvalues=tuple(reps[g] for g in order),
        bounds=tuple(np.cumsum([0] + [len(g) for g in groups]).tolist()))


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


def _fold_branch(t: float) -> tuple[int, float]:
    """Branch index and folded value: t = 2*pi*k + r with r in (-pi, pi].

    Values within ``ON_FEATURE_TOL`` of an odd multiple of pi snap onto it, so
    exactly-placed boundary inputs land on the closed upper endpoint.
    """
    two_pi = 2.0 * math.pi
    k = round(t / two_pi)
    r = t - two_pi * k
    if r > math.pi + ON_FEATURE_TOL:
        k += 1
        r -= two_pi
    if r <= -math.pi + ON_FEATURE_TOL:
        k -= 1
        r += two_pi
    return k, r


def _odd_pi_distance(t: float) -> float:
    """Distance from a real number to the nearest odd multiple of pi."""
    k = round((t - math.pi) / (2.0 * math.pi))
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
        k = np.arange(self.k_lo, self.k_hi + 1)
        strip_w, line_w = 2 * k * math.pi * 1j, (2 * k + 1) * math.pi * 1j
        return (self.dec_x.combination(self.x_strip @ strip_w
                                       + self.x_line @ line_w)
                - self.dec_y.combination(self.y_strip @ strip_w
                                         + self.y_line @ line_w))


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
    lo_line = (2 * k_lo + 1) * math.pi
    hi_line = (2 * k_hi + 1) * math.pi
    for name, dec in (("X", dec_x), ("Y", dec_y)):
        im = dec.eigenvalue_array.imag
        outside = ~((lo_line - BOUNDARY_TOL <= im)
                    & (im <= hi_line + BOUNDARY_TOL))
        if outside.any():
            raise SpectrumOutOfRange(
                f"eigenvalue {dec.eigenvalues[outside.argmax()]} of {name} "
                f"outside Im in [{lo_line:.6f}, {hi_line:.6f}]")
    # the odd lines (2j+1)pi, j = k_lo-1..k_hi: strip k lies between lines
    # k-1 and k, and line k is odd_line(k)
    lines = np.array([(2 * j + 1) * math.pi
                      for j in range(k_lo - 1, k_hi + 1)])
    x_strip, x_line, x_ambiguous = _branch_classes(dec_x, lines)
    y_strip, y_line, y_ambiguous = _branch_classes(dec_y, lines)
    for j in range(k_hi - k_lo + 1):
        for dec, ambiguous in ((dec_x, x_ambiguous), (dec_y, y_ambiguous)):
            if ambiguous[:, j].any():
                open_branch_strip(k_lo + j)._ambiguous(
                    complex(dec.eigenvalue_array[ambiguous[:, j].argmax()]))
    return StripProjections(dec_x, dec_y, k_lo, k_hi,
                            x_strip, x_line, y_strip, y_line)


def _branch_classes(dec: SpectralDecomposition, lines: np.ndarray):
    """Masks ``(in_strip, on_line, ambiguous)`` with one column per branch.

    Column j classifies the clusters against open_branch_strip(k_lo + j),
    which lies between ``lines[j]`` and ``lines[j + 1]``, and against
    odd_line(k_lo + j) at ``lines[j + 1]``, by the rules of those regions
    in one pass over all branches.
    """
    im = dec.eigenvalue_array.imag[:, None]
    above, maybe_above = _edge_status(im, lines[:-1], False, 1.0)
    below, maybe_below = _edge_status(im, lines[1:], False, -1.0)
    in_strip = above & below
    on_line = abs(im - lines[1:]) <= BOUNDARY_TOL
    return in_strip, on_line, (maybe_above & maybe_below) ^ in_strip
