"""Spectral decompositions of normal matrices and plane-region measures.

A normal matrix is decomposed into one unitary eigenbasis whose columns
are grouped into eigenvalue clusters; the eigenprojection of a cluster
is V_j V_j*, and a projection-valued measure assigns to each plane
:class:`Region` the sum of projections whose eigenvalue lies in it.
Regions carry explicit edge-inclusivity so open/closed strips are
distinguished exactly, with a two-scale tolerance:

* a point within ``tol.on_feature`` of an edge or line is treated as
  lying exactly on it (exact constructions survive rounding);
* a point farther than that but within ``tol.boundary`` of an excluded
  edge cannot be classified and raises :class:`AmbiguousBoundary`
  rather than letting rounding noise pick a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AmbiguousBoundary,
    NormLogError,
    OutOfFoldRange,
    SpectrumOutOfRange,
)
from .linalg import (
    _as_square_stack,
    _cluster_slices,
    _common_eigenbases,
    as_square_matrix,
    dagger,
    frob,
    im_part,
    re_part,
)

__all__ = [
    "HLine",
    "Points",
    "Rect",
    "Region",
    "RegionUnion",
    "SpectralDecomposition",
    "StripProjections",
    "borel_calculus",
    "fold_scalar",
    "normal_eig",
    "normal_eig_stack",
    "odd_line",
    "open_branch_strip",
    "spectral_measure",
    "strip_boundary",
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

    def _status(self, z, tol: Tolerances):
        raise NotImplementedError

    def contains(self, z, *, tol: Tolerances = DEFAULT_TOL):
        """Membership with boundary-band safety.

        ``z`` is one point (the result is a bool) or an array of points
        (the result is a bool array of the same shape); a point is a 0-d
        array, so both follow the one rule. Raises AmbiguousBoundary for
        the first point, in input order, that falls in the uncertainty
        band of an excluded edge with no other feature deciding it.
        """
        pts = np.asarray(z, dtype=complex)
        yes, maybe = self._status(pts, tol)
        ambiguous = np.broadcast_to(maybe ^ yes, pts.shape)
        if ambiguous.any():
            self._ambiguous(complex(pts.ravel()[ambiguous.ravel().argmax()]), tol)
        # a region decided without a feature gives one bool for all points
        return bool(yes) if pts.ndim == 0 else np.full(pts.shape, yes)

    def _ambiguous(self, z, tol: Tolerances):
        raise AmbiguousBoundary(
            f"point {z} lies within {tol.boundary:.1e} of an excluded "
            f"edge of {self!r}")


def _edge_status(x, edge: float, incl: bool, sign: float, tol: Tolerances):
    """``(yes, maybe)`` for the side of one edge where ``sign*(x - edge) > 0``.

    Within ``tol.on_feature`` of the edge a point lies on it; farther but
    within ``tol.boundary`` it lies on it if the edge is included and is
    ambiguous otherwise; beyond both it is decided by its side.
    """
    d = (x - edge) * sign  # positive on the interior side
    far = max(tol.on_feature, tol.boundary)
    if incl:
        inside = d >= -far
        return inside, inside
    ad = abs(d)
    return d > far, (ad > tol.on_feature) & ((ad <= tol.boundary) | (d > 0))


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

    def _status(self, z, tol):
        yes = maybe = True
        for x, edge, incl, sign in (
                (z.real, self.re_lo, self.incl_re_lo, 1.0),
                (z.real, self.re_hi, self.incl_re_hi, -1.0),
                (z.imag, self.im_lo, self.incl_im_lo, 1.0),
                (z.imag, self.im_hi, self.incl_im_hi, -1.0)):
            if not math.isinf(edge):
                y, m = _edge_status(x, edge, incl, sign, tol)
                yes, maybe = yes & y, maybe & m
        return yes, maybe


@dataclass(frozen=True)
class HLine(Region):
    """The horizontal line Im z = c (always an included feature)."""

    c: float

    def __post_init__(self):
        if math.isnan(self.c):
            raise ValueError("line level must not be NaN")

    def _status(self, z, tol):
        on = abs(z.imag - self.c) <= tol.boundary
        return on, on


@dataclass(frozen=True)
class Points(Region):
    """Finite point set with a match radius."""

    points: tuple
    radius: float = 1e-9

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError("match radius must be a non-negative number")

    def _status(self, z, tol):
        near = False
        for p in self.points:
            d = z - complex(p)
            # hypot, not a complex abs: numpy's may differ from abs(complex)
            near = near | (np.hypot(d.real, d.imag) <= self.radius)
        return near, near


@dataclass(frozen=True)
class RegionUnion(Region):
    members: tuple

    def _status(self, z, tol):
        yes = maybe = False
        for m in self.members:
            y, mb = m._status(z, tol)
            yes, maybe = yes | y, maybe | mb
        return yes, maybe


def strip_interior() -> Region:
    """Open strip |Im z| < pi."""
    return Rect(im_lo=-math.pi, im_hi=math.pi,
                incl_im_lo=False, incl_im_hi=False)


def strip_boundary() -> Region:
    """The two lines Im z = +/- pi."""
    return RegionUnion((HLine(math.pi), HLine(-math.pi)))


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
        m = np.diff(self.bounds)
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

    def bicommutant_distance(self, w, key=None, *,
                             tol: Tolerances = DEFAULT_TOL) -> float:
        """Relative distance from ``w`` to the double commutant {X}''.

        {X}'' is the span of the eigenprojections, whose members are
        diagonal and constant per cluster in the eigenbasis: the distance
        is ||M - D|| / ||w||, M = V* w V, D the cluster means of diag(M).
        With ``key``, clusters whose key(lam) merge as normal_eig would
        merge them share one projection, which gives the distance to
        {key(X)}''.
        """
        w = as_square_matrix(w)
        nw = frob(w)
        if nw == 0.0:
            return 0.0
        group = np.arange(len(self.eigenvalues))
        if key is not None:
            values = [complex(key(lam)) for lam in self.eigenvalues]
            scale = np.linalg.norm(np.repeat(values, self.multiplicities))
            for gi, g in enumerate(_merge(values, tol.cluster * max(1.0, scale))):
                group[g] = gi
        labels = np.repeat(group, self.multiplicities)
        m = dagger(self.v) @ w @ self.v
        d = np.diag(m)
        means = ((np.bincount(labels, d.real) + 1j * np.bincount(labels, d.imag))
                 / np.bincount(labels))
        return frob(m - np.diag(means[labels])) / nw

    def validate(self, x=None) -> dict[str, float]:
        """Residuals of the decomposition invariants (not thresholded)."""
        projs = [self.projection(j) for j in range(len(self.eigenvalues))]
        res = {"idempotent": max(frob(p @ p - p) for p in projs),
               "hermitian": max(frob(p - dagger(p)) for p in projs),
               "orthogonal": max((frob(p @ q) for i, p in enumerate(projs)
                                  for q in projs[i + 1:]), default=0.0),
               "resolution": frob(self.v @ dagger(self.v) - np.eye(self.n))}
        if x is not None:
            res["reconstruction"] = frob(self.reconstruct() - x)
        return res


def normal_eig(x, *, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral decomposition of a normal matrix.

    The commuting Hermitian parts Re(X), Im(X) are diagonalized in a
    common basis; the clusters are the connected components of the graph
    joining eigenvalues within ``tol.cluster * max(1, ||X||)`` of each
    other, so they do not depend on the order the eigenvalues are found
    in, and each is represented by its mean. This is
    :func:`normal_eig_stack` on a stack of one.

    Raises NotNormal when ``X*X != XX*`` beyond tolerance.
    """
    (dec,) = _decompose_stack(as_square_matrix(x)[None], tol)
    if isinstance(dec, NormLogError):
        raise dec
    return dec


def normal_eig_stack(xs, *, tol: Tolerances = DEFAULT_TOL) -> list:
    """Spectral decompositions of a stack of n x n matrices.

    ``xs`` is a sequence of matrices or a (k, n, n) array. Entry i of the
    result is ``normal_eig(xs[i])``, bit for bit, or the NormLogError it
    would raise; an error leaves the other entries unchanged.
    """
    return _decompose_stack(_as_square_stack(xs), tol)


def _decompose_stack(x: np.ndarray, tol: Tolerances) -> list:
    """The decompositions of :func:`normal_eig_stack`, of a validated stack.

    One commutator of the Hermitian parts per matrix decides normality,
    as :func:`~normlog.linalg.is_normal` does, then their commutation.
    The commutators, the ``eigh`` of the Re(X) and the diagonal products
    V* Re(X) V and V* Im(X) V are each one numpy call over the whole
    stack, one BLAS or LAPACK call per matrix, so each entry is computed
    as if alone; the tests and the clustering run per matrix. A failing
    entry's ``eigh`` is computed and discarded, so an ``eigh`` that fails
    to converge on it raises NoConvergence for the whole stack.
    """
    re, im = re_part(x), im_part(x)
    norms = [frob(xi) for xi in x]
    v, errors = _common_eigenbases(re, im, tol, norms)
    v_star = dagger(v)
    lams = (np.diagonal(v_star @ re @ v, axis1=1, axis2=2).real
            + 1j * np.diagonal(v_star @ im @ v, axis1=1, axis2=2).real)
    out = []
    for vi, li, norm, error in zip(v, lams, norms, errors):
        if error is not None:
            out.append(error)
            continue
        groups = _merge(li.tolist(), tol.cluster * max(1.0, norm))
        reps = [complex(sum(li[j] for j in g) / len(g)) for g in groups]
        order = sorted(range(len(groups)),
                       key=lambda g: (reps[g].real, reps[g].imag))
        groups = [groups[g] for g in order]
        out.append(SpectralDecomposition(
            v=vi[:, [j for g in groups for j in g]],
            eigenvalues=tuple(reps[g] for g in order),
            bounds=tuple(np.cumsum([0] + [len(g) for g in groups]).tolist())))
    return out


def spectral_measure(dec: SpectralDecomposition, omega: Region, *,
                     tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Sum of eigenprojections whose eigenvalue lies in ``omega``.

    An empty selection yields the zero matrix. AmbiguousBoundary
    propagates from membership testing.
    """
    return dec.select(omega.contains(dec.eigenvalue_array, tol=tol))


def borel_calculus(dec: SpectralDecomposition,
                   f: Callable[[complex], complex]) -> np.ndarray:
    """Apply a scalar function to a normal matrix: V diag(f(lam)) V*."""
    return dec.combination([f(lam) for lam in dec.eigenvalues])


def _fold_branch(t: float, eps_on: float) -> tuple[int, float]:
    """Branch index and folded value: t = 2*pi*k + r with r in (-pi, pi].

    Values within ``eps_on`` of an odd multiple of pi snap onto it, so
    exactly-placed boundary inputs land on the closed upper endpoint.
    """
    two_pi = 2.0 * math.pi
    k = round(t / two_pi)
    r = t - two_pi * k
    if r > math.pi + eps_on:
        k += 1
        r -= two_pi
    if r <= -math.pi + eps_on:
        k -= 1
        r += two_pi
    return k, r


def _odd_pi_distance(t: float) -> float:
    """Distance from a real number to the nearest odd multiple of pi."""
    k = round((t - math.pi) / (2.0 * math.pi))
    return abs(t - (2 * k + 1) * math.pi)


def fold_scalar(t: float, k_lo: int, k_hi: int, *,
                tol: Tolerances = DEFAULT_TOL) -> float:
    """Sawtooth fold t -> t - 2*k*pi onto (-pi, pi].

    The branch index k is the unique integer with
    t in ((2k-1)pi, (2k+1)pi]; it must lie in [k_lo - 1, k_hi], else
    OutOfFoldRange is raised.
    """
    k, r = _fold_branch(float(t), tol.on_feature)
    if k < k_lo - 1 or k > k_hi:
        raise OutOfFoldRange(
            f"t={t} folds with branch index {k}, outside [{k_lo - 1}, {k_hi}]")
    return r


@dataclass(frozen=True, eq=False)  # masks have no truth value
class StripProjections:
    """The branch window [k_lo, k_hi] of a pair (X, Y).

    Column j of ``x_strip``/``y_strip`` marks the clusters of X/Y in the
    open strip (2k-1)pi < Im z < (2k+1)pi, k = k_lo + j, and column j of
    ``x_line``/``y_line`` those on the line Im z = (2k+1)pi. ``p(k)`` and
    ``q(k)`` are the strip projections of X and Y, ``e(k)`` and ``f(k)``
    the line projections; each raises KeyError for k outside the window.
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
                      dec_y: SpectralDecomposition, k_lo: int, k_hi: int, *,
                      tol: Tolerances = DEFAULT_TOL) -> StripProjections:
    """Classify the clusters of X and Y over a branch window.

    Raises SpectrumOutOfRange for an eigenvalue outside
    (2*k_lo+1)pi <= Im z <= (2*k_hi+1)pi, within the boundary band (X
    checked before Y), then AmbiguousBoundary as the first ambiguous
    strip measure would, k ascending and X before Y within each k.
    """
    if k_hi < k_lo:
        raise ValueError("k_hi must be >= k_lo")
    lo_line = (2 * k_lo + 1) * math.pi
    hi_line = (2 * k_hi + 1) * math.pi
    for name, dec in (("X", dec_x), ("Y", dec_y)):
        im = dec.eigenvalue_array.imag
        outside = ~((lo_line - tol.boundary <= im) & (im <= hi_line + tol.boundary))
        if outside.any():
            raise SpectrumOutOfRange(
                f"eigenvalue {dec.eigenvalues[outside.argmax()]} of {name} "
                f"outside Im in [{lo_line:.6f}, {hi_line:.6f}]")
    # the odd lines (2j+1)pi, j = k_lo-1..k_hi: strip k lies between lines
    # k-1 and k, and line k is odd_line(k)
    lines = np.array([(2 * j + 1) * math.pi
                      for j in range(k_lo - 1, k_hi + 1)])
    x_strip, x_line, x_ambiguous = _branch_classes(dec_x, lines, tol)
    y_strip, y_line, y_ambiguous = _branch_classes(dec_y, lines, tol)
    for j in range(k_hi - k_lo + 1):
        for dec, ambiguous in ((dec_x, x_ambiguous), (dec_y, y_ambiguous)):
            if ambiguous[:, j].any():
                open_branch_strip(k_lo + j)._ambiguous(
                    complex(dec.eigenvalue_array[ambiguous[:, j].argmax()]), tol)
    return StripProjections(dec_x, dec_y, k_lo, k_hi,
                            x_strip, x_line, y_strip, y_line)


def _branch_classes(dec: SpectralDecomposition, lines: np.ndarray,
                    tol: Tolerances):
    """Masks ``(in_strip, on_line, ambiguous)`` with one column per branch.

    Column j classifies the clusters against open_branch_strip(k_lo + j),
    which lies between ``lines[j]`` and ``lines[j + 1]``, and against
    odd_line(k_lo + j) at ``lines[j + 1]``, by the rules of those regions
    in one pass over all branches.
    """
    im = dec.eigenvalue_array.imag[:, None]
    above, maybe_above = _edge_status(im, lines[:-1], False, 1.0, tol)
    below, maybe_below = _edge_status(im, lines[1:], False, -1.0, tol)
    in_strip = above & below
    on_line = abs(im - lines[1:]) <= tol.boundary
    return in_strip, on_line, (maybe_above & maybe_below) ^ in_strip
