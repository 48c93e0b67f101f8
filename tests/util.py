"""Shared seeded builders and reference checks for the test suite."""

import math
from dataclasses import dataclass

import numpy as np

from normlog.config import BOUNDARY_TOL, CHECK_TOL, CLUSTER_TOL, COMM_TOL
from normlog.errors import ConstructionFailed, NotCommuting, NotNormal
from normlog.harness import Family, mix64, random_unitary
from normlog.harness.generators import _build, _first_failure
from normlog.linalg import (_eigh, _frob_stack, _normality_holds,
                            as_square_matrix, dagger, frob, im_part, re_part)
from normlog.logs import TWO_PI, _exp_gaps, exp_general
from normlog.report import CheckReport
from normlog.checks import _interior_region_family
from normlog.spectral import (Rect, Region, SpectralDecomposition,
                              _Decompositions, _decompose_stack, _edge_status,
                              _fold_branch, _merged, _odd_pi_distance,
                              _span_distances, borel_calculus, normal_eig,
                              spectral_measure)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Stream:
    """One seed's stream of the counter hash, one draw at a time: the
    reference for the stacked draws of ``normlog.harness.rng``, and the
    source of the tests' own seeded matrices. ``normal`` takes libm's
    log, cos and sin, so the library's Gaussians, which take numpy's,
    equal it up to their rounding."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0
        self._spare_normal = None

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


def gaussian_matrix(stream, n):
    """The n x n matrix of complex(normal(), normal()) / sqrt(2), drawn
    row-major from ``stream`` one scalar at a time."""
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = complex(stream.normal(), stream.normal()) / math.sqrt(2)
    return out


def random_hermitian(n, seed, scale=1.0):
    g = gaussian_matrix(Stream(seed), n)
    return scale * (g + dagger(g)) / 2


def random_normal_matrix(n, seed, re_range=2.0, im_range=2.0, min_gap=1e-4):
    """Random normal matrix with eigenvalues in a centered box.

    Eigenvalues are pairwise separated by ``min_gap`` so decompositions
    cluster them the intended way.
    """
    stream = Stream(seed)
    eigs = []
    while len(eigs) < n:
        z = complex(stream.uniform(-re_range, re_range),
                    stream.uniform(-im_range, im_range))
        if all(abs(z - w) >= min_gap for w in eigs):
            eigs.append(z)
    u = random_unitary(n, stream.subseed())
    return u @ np.diag(eigs) @ dagger(u), eigs, u


def validate_decomposition(dec, x=None):
    """Residuals of the invariants of a spectral decomposition, not
    thresholded: each eigenprojection is idempotent and Hermitian, they
    are mutually orthogonal, the eigenbasis is unitary and, given ``x``,
    it reconstructs ``x``."""
    projs = [dec.projection(j) for j in range(len(dec.eigenvalues))]
    res = {"idempotent": max(frob(p @ p - p) for p in projs),
           "hermitian": max(frob(p - dagger(p)) for p in projs),
           "orthogonal": max((frob(p @ q) for i, p in enumerate(projs)
                              for q in projs[i + 1:]), default=0.0),
           "resolution": frob(dec.v @ dagger(dec.v) - np.eye(dec.n))}
    if x is not None:
        res["reconstruction"] = frob(dec.reconstruct() - x)
    return res


# --- Per-pair oracle: regions, decompositions and builds one pair at a time
#
# The library's checks classify and measure a whole chunk in array code;
# these per-pair forms of the same rules are the reference the tests
# compare them with.

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


def open_branch_strip(k: int) -> Region:
    """Open strip (2k-1)pi < Im z < (2k+1)pi."""
    return Rect(im_lo=(2 * k - 1) * math.pi, im_hi=(2 * k + 1) * math.pi,
                incl_im_lo=False, incl_im_hi=False)


def odd_line(k: int) -> Region:
    """The line Im z = (2k+1)pi."""
    return HLine((2 * k + 1) * math.pi)


def normal_eig_stack(xs) -> list:
    """Spectral decompositions of a stack of n x n matrices.

    ``xs`` is a sequence of matrices or a (k, n, n) array. Entry i of the
    result is ``normal_eig(xs[i])``, bit for bit, or the NormLogError it
    would raise; an error leaves the other entries unchanged.
    """
    return list(_decompose_stack(np.stack([as_square_matrix(x) for x in xs])))


def bicommutant_distance(dec, w, key=None) -> float:
    """Relative distance from ``w`` to the double commutant {X}'' of the
    matrix that ``dec`` decomposes.

    {X}'' is the span of the eigenprojections, whose members are
    diagonal and constant per cluster in the eigenbasis: the distance
    is ||M - D|| / ||w||, M = V* w V, D the cluster means of diag(M).
    With ``key``, clusters whose key(lam) merge as normal_eig would
    merge them share one projection, which gives the distance to
    {key(X)}''.
    """
    w = as_square_matrix(w)[None]
    return _span_distances(dec.v[None], _group_labels(dec, key)[None],
                           w).item()


def _group_labels(dec, key=None) -> np.ndarray:
    """Each column's group: its cluster's index, or with ``key`` the
    smallest column of the group of clusters whose key(lam) merge as
    normal_eig would merge them."""
    if key is None:
        return np.repeat(np.arange(len(dec.eigenvalues)),
                         dec.multiplicities)
    values = [complex(key(lam)) for lam in dec.eigenvalues]
    return _merged(np.repeat(values, dec.multiplicities)[None])[0]


def make_pairs(specs) -> list:
    """``make_pair(spec)`` for each spec, built as one chunk.

    The specs that differ only in their seed are built together (see
    ``generators._build``); every result is bit for bit the lone one.
    When specs fail, the first of them in chunk order raises what its
    lone call would.
    """
    return [built[:3] for built in _make_pairs(specs)]


def _make_pairs(specs) -> list:
    """:func:`make_pairs`, with the self-test's e^Y of each pair as a
    fourth entry (see ``generators._build``)."""
    specs = list(specs)
    groups: dict = {}  # (family, n, params) -> (first spec, chunk indices)
    for i, spec in enumerate(specs):
        key = (spec.family, spec.n, tuple(sorted(spec.params.items())))
        groups.setdefault(key, (spec, []))[1].append(i)
    out: list = [None] * len(specs)
    for spec, idx in groups.values():
        for i, built in zip(idx, _build(spec, [specs[i].seed for i in idx])):
            out[i] = built
    return _first_failure(out)


def verify_pushforward(dec, f, omega):
    """Check that the measure of f(X) pulls back through f.

    Compares the projection of f(X) onto ``omega`` (computed from a fresh
    decomposition of f(X)) against the sum of projections of X whose
    eigenvalue maps into ``omega``; passes within ``CHECK_TOL * n``.
    """
    dec_f = normal_eig(borel_calculus(dec, f))
    left = spectral_measure(dec_f, omega)
    right = dec.select(omega.contains([complex(f(lam))
                                       for lam in dec.eigenvalues]))
    residual = frob(left - right)
    bound = CHECK_TOL * dec.n
    return CheckReport(check_name="pushforward", passed=residual <= bound,
                       hypothesis_met=True,
                       residuals={"pushforward": residual},
                       tolerances={"pushforward": bound})


# --- Scalar oracle: the per-instance build and clustering -----------------
#
# A copy of the builders, rejection loops and clustering as they ran one
# instance, one draw and one cluster at a time, before the chunk's draws,
# conjugations and cluster bookkeeping became array code. The stacked
# code must reproduce them bit for bit.

_PI = math.pi
_RE_RANGE = 1.5
_PM_PI = np.diag([1j * _PI, -1j * _PI])
_ODD_PI_SET_RADIUS = 0.15
# candidates a rejection loop may draw before it gives up
_EIG_TRIES = 10000
_REAL_TRIES = 20000


def _jittered_grid(stream, count, lo, hi, jitter=0.25):
    slot = (hi - lo) / count
    vals = [lo + (i + 0.5 + jitter * (2.0 * stream.unit() - 1.0)) * slot
            for i in range(count)]
    for i in range(count - 1, 0, -1):  # Fisher-Yates on the stream
        j = stream.integer(0, i)
        vals[i], vals[j] = vals[j], vals[i]
    return vals


def _interior_eigs(stream, count, im_margin=0.05, min_gap=1e-3):
    vals = []
    tries = 0
    while len(vals) < count:
        tries += 1
        if tries > _EIG_TRIES:
            raise ConstructionFailed("could not place interior eigenvalues")
        z = complex(stream.uniform(-_RE_RANGE, _RE_RANGE),
                    stream.uniform(-_PI + im_margin, _PI - im_margin))
        if all(abs(z - w) >= min_gap for w in vals):
            vals.append(z)
    return vals


def _conj_by(u, d):
    return u @ d @ dagger(u)


def _block_diag(a, b):
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _interior_pair(spec, stream):
    eigs = _interior_eigs(stream, spec.n)
    u = yield (spec.n, stream.subseed())
    x = _conj_by(u, np.diag(eigs))
    return x, x.copy(), {}


def _boundary_flip_pair(spec, stream):
    p = spec.params
    n = spec.n
    side = 1.0 if p.get("side", 1) >= 0 else -1.0
    n_boundary = int(p.get("boundary", 0)) or stream.integer(1, max(1, n // 2))
    n_boundary = min(n_boundary, n)
    seg = _RE_RANGE - 0.2
    res = [0.2 + u if u < seg else -(0.2 + (u - seg))
           for u in _jittered_grid(stream, n_boundary, 0.0, 2.0 * seg)]
    lam_x = [complex(a, side * _PI) for a in res]
    if p.get("conjugate_pair") and n_boundary >= 2:
        lam_x[1] = lam_x[0].conjugate()
    lam_x += _interior_eigs(stream, n - n_boundary)
    lam_y = list(lam_x)
    flipped = [j for j in range(n_boundary) if stream.integer(0, 1)]
    if not flipped:
        flipped = [0]
    for j in flipped:
        lam_y[j] = lam_x[j].conjugate()
    u = yield (n, stream.subseed())
    return (_conj_by(u, np.diag(lam_x)), _conj_by(u, np.diag(lam_y)),
            {"flipped": len(flipped), "boundary": n_boundary})


def _distinct_projection_pair(spec, stream):
    n = spec.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    d = _block_diag(_PM_PI, np.diag(_interior_eigs(stream, n - 2)))
    w = yield (n, stream.subseed())
    eye_int = np.eye(n - 2, dtype=complex)
    u = w @ _block_diag((yield (2, stream.subseed())), eye_int)
    v = w @ _block_diag((yield (2, stream.subseed())), eye_int)
    return _conj_by(u, d), _conj_by(v, d), {"block": 2}


def _shifted_branch_pair(spec, stream):
    p = spec.params
    k_lo = int(p.get("k_lo", -1))
    k_hi = int(p.get("k_hi", 1))
    if k_hi < k_lo + 1:
        raise ConstructionFailed("window must span at least one strip")
    z = _interior_eigs(stream, spec.n, im_margin=0.1)
    kx = [stream.integer(k_lo + 1, k_hi) for _ in range(spec.n)]
    ky = [stream.integer(k_lo + 1, k_hi) for _ in range(spec.n)]
    lam_x = [w + TWO_PI * 1j * k for w, k in zip(z, kx)]
    lam_y = [w + TWO_PI * 1j * k for w, k in zip(z, ky)]
    u = yield (spec.n, stream.subseed())
    return (_conj_by(u, np.diag(lam_x)), _conj_by(u, np.diag(lam_y)),
            {"k_lo": k_lo, "k_hi": k_hi})


def _upper_shear(stream, n, cond_cap=100.0):
    for _ in range(100):
        t = np.eye(n, dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                t[i, j] = stream.uniform(-1.0, 1.0)
        if np.linalg.cond(t) <= cond_cap:
            return t
    raise ConstructionFailed("could not draw a well-conditioned shear")


def _non_normal_log_pair(spec, stream):
    n = spec.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    reals = _jittered_grid(stream, n - 2, -2.0, 2.0) if n > 2 else []
    d_real = np.diag([complex(r) for r in reals])
    t = _upper_shear(stream, 2)
    y_block = t @ _PM_PI @ np.linalg.inv(t)
    w = yield (n, stream.subseed())
    x = _conj_by(w, _block_diag(_PM_PI, d_real))
    y = _conj_by(w, _block_diag(y_block, d_real))
    return x, y, {"block": 2}


def _congruence_free_reals(stream, count, span=8.0, margin=0.15):
    if count:
        margin = min(margin, 0.6 * _PI / count)
    vals = []
    tries = 0
    while len(vals) < count:
        tries += 1
        if tries > _REAL_TRIES:
            raise ConstructionFailed("could not place congruence-free values")
        v = stream.uniform(-span, span)
        if _odd_pi_distance(v) < _ODD_PI_SET_RADIUS:
            continue
        ok = True
        for w in vals:
            gap = abs(v - w)
            if gap < margin:
                ok = False
                break
            k = round(gap / TWO_PI)
            if k != 0 and abs(gap - TWO_PI * k) < margin:
                ok = False
                break
        if ok:
            vals.append(v)
    return vals


def _fold_diag(values):
    return np.diag(1j * _fold_branch(np.array(values, dtype=float))[1])


def _self_adjoint_congruence_free(spec, stream):
    n = spec.n
    distinct = n - 1 if (n >= 4 and stream.integer(0, 1)) else n
    vals = _congruence_free_reals(stream, distinct)
    if distinct < n:
        vals.append(vals[0])
    if spec.params.get("violate") and n >= 2:
        vals[1] = vals[0] + TWO_PI
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in vals]))
    y = _conj_by(u, _fold_diag(vals))
    return x, y, {"values": len(set(vals))}


def _odd_pi_eigenvalue(spec, stream):
    violate = spec.params.get("violate")
    n = spec.n
    k_odd = stream.integer(-1, 1)
    v_odd = (2 * k_odd + 1) * _PI
    mult = 2 if n >= 3 else 1
    rest = _congruence_free_reals(stream, n - mult)
    if violate:
        if n - mult < 1:
            raise ConstructionFailed("violation variant needs a spare slot")
        k2 = k_odd + 1
        rest[0] = (2 * k2 + 1) * _PI
    values = [v_odd] * mult + rest
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in values]))
    if mult == 2 and not violate:
        vb = yield (2, stream.subseed())
        y_core = _block_diag(_conj_by(vb, _PM_PI), _fold_diag(rest))
    else:
        y_core = _fold_diag(values)
    y = _conj_by(u, y_core)
    return x, y, {"odd_value": v_odd, "mult": mult}


_SCALAR_BUILDERS = {
    "InteriorPair": (_interior_pair, False),
    "BoundaryFlipPair": (_boundary_flip_pair, False),
    "DistinctProjectionPair": (_distinct_projection_pair, False),
    "ShiftedBranchPair": (_shifted_branch_pair, False),
    "NonNormalLogPair": (_non_normal_log_pair, False),
    "SelfAdjointCongruenceFree": (_self_adjoint_congruence_free, True),
    "OddPiEigenvalue": (_odd_pi_eigenvalue, True),
}


def scalar_make_pair(spec):
    """``make_pair(spec)`` built one draw, one unitary and one conjugation
    at a time; raises the ConstructionFailed ``make_pair`` raises."""
    family = Family(spec.family).value
    builder, skew = _SCALAR_BUILDERS[family]
    running = builder(spec, Stream(spec.seed))
    reply = None
    while True:
        try:
            size, seed = running.send(reply)
        except StopIteration as done:
            x, y, extra = done.value
            break
        reply = random_unitary(size, seed)
    left = exp_general(1j * x if skew else x)
    right = left if not skew and x.tobytes() == y.tobytes() else exp_general(y)
    (residual,) = _exp_gaps(left[None], right[None])
    if residual > 1e-10:
        raise ConstructionFailed(
            f"{spec.family} self-test residual {residual:.3e} for "
            f"n={spec.n} seed={spec.seed}")
    metadata = {"family": family, "n": spec.n, "seed": spec.seed,
                "params": dict(spec.params),
                "equation": "exp(iX)=exp(Y)" if skew else "exp(X)=exp(Y)",
                "self_test_residual": residual}
    metadata.update(extra)
    return x, y, metadata


def _cluster_slices(values, radius):
    slices = []
    start = 0
    for j in range(1, len(values)):
        if values[j] - values[j - 1] > radius:
            slices.append(slice(start, j))
            start = j
    slices.append(slice(start, len(values)))
    return slices


def scalar_merge(values, radius):
    """Connected components of the values within ``radius`` of each
    other: sorted by Re and split at wider gaps, each run likewise by Im,
    then a search per remaining run; indices ascending within a
    component, components by their smallest index."""
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


def _runs(indices, coord, radius):
    order = sorted(indices, key=coord.__getitem__)
    return [order[sl]
            for sl in _cluster_slices([coord[i] for i in order], radius)]


def _components(indices, zs, radius):
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


def scalar_normal_eig(x, merge=scalar_merge):
    """``normal_eig(x)`` as one matrix was decomposed alone: ``eigh`` of
    Re X, each run of close eigenvalues re-resolved by the ``eigh`` of the
    compression of Im X, clusters by ``merge`` with their means, sorted by
    (Re, Im). Returns the decomposition, or the NormLogError type: a
    normal X whose basis V leaves V* X V off its diagonal by more than
    COMM_TOL * n * ||X|| is NotCommuting."""
    x = np.asarray(x, dtype=complex)[None]
    re, im = re_part(x), im_part(x)
    norms = _frob_stack(x)
    wa, v = _eigh(re)
    residual, norm_a = _frob_stack(re @ im - im @ re), _frob_stack(re)
    if not _normality_holds(norms, residual)[0]:
        return NotNormal
    vi = v[0]
    for sl in _cluster_slices(wa[0], CLUSTER_TOL * max(1.0, norm_a[0])):
        if sl.stop - sl.start > 1:
            block = vi[:, sl]
            _, u = _eigh((dagger(block) @ im[0] @ block)[None])
            vi[:, sl] = vi[:, sl] @ u[0]
    v_star = dagger(v)
    m = (v_star @ re @ v)[0], (v_star @ im @ v)[0]
    off = m[0] + 1j * m[1]
    if frob(off - np.diag(np.diag(off))) > COMM_TOL * len(vi) * norms[0]:
        return NotCommuting
    lams = np.diagonal(m[0]).real + 1j * np.diagonal(m[1]).real
    radius = (CLUSTER_TOL * np.maximum(1.0, norms))[0].item()
    return scalar_clustered(vi, lams, radius, merge)


def scalar_clustered(v, lams, radius, merge=scalar_merge):
    """The decomposition with eigenbasis ``v`` and eigenvalues ``lams``
    whose clusters are the groups ``merge`` finds, each represented by
    its mean, ``sum`` over numpy scalars divided by the count."""
    groups = merge(lams.tolist(), radius)
    reps = [complex(sum(lams[j] for j in g) / len(g)) for g in groups]
    order = sorted(range(len(groups)),
                   key=lambda g: (reps[g].real, reps[g].imag))
    groups = [groups[g] for g in order]
    return SpectralDecomposition(
        v=v[:, [j for g in groups for j in g]],
        eigenvalues=tuple(reps[g] for g in order),
        bounds=tuple(np.cumsum([0] + [len(g) for g in groups]).tolist()))


def record_of(dec):
    """The stacked record of one decomposition, by column, as the checks
    read a chunk's: its basis, each column's representative and the
    first column of each cluster."""
    start = np.zeros(dec.n, dtype=bool)
    start[list(dec.bounds[:-1])] = True
    return _Decompositions(
        dec.v.T[None],
        np.repeat(dec.eigenvalue_array, dec.multiplicities)[None],
        start[None], [None])


def all_slot_interior_measures(cols_x, cols_y, idx, scales):
    """``checks._interior_measures`` with the disc and square masks of
    every one of a pair's 2n region slots evaluated, then the regions'
    rows picked: the reference for the evaluation of the regions alone."""
    lam_x, lam_y = cols_x.lam[idx], cols_y.lam[idx]
    family = _interior_region_family(lam_x, lam_y, cols_x.start[idx], scales)
    regions = np.concatenate(family[3:], axis=1)
    mx, my = (_all_slot_masks(z, family) for z in (lam_x, lam_y))
    g = dagger(cols_y.v[idx]) @ cols_x.v[idx]
    e = g.real ** 2 + g.imag ** 2
    counts = regions.sum(axis=1)
    order = np.argsort(~regions, axis=1, kind="stable")[:, :, None]
    out = np.zeros(len(idx))
    for r in set(counts.tolist()) - {0}:
        same = counts == r
        fx, fy = (np.take_along_axis(m[same], order[same, :r], axis=1)
                  .astype(float) for m in (mx, my))
        mass = ((((1.0 - fy) @ e[same]) * fx).sum(axis=2)
                + ((fy @ e[same]) * (1.0 - fx)).sum(axis=2))
        out[same] = np.sqrt(mass.max(axis=1))
    return out


def _all_slot_masks(z, family):
    centres, radius, half = family[:3]
    d = z[:, None, :] - centres[:, :, None]
    discs = np.hypot(d.real, d.imag) <= radius[:, None, None]
    c, h, re, im = centres[:, :, None], half[:, :, None], z.real, z.imag
    squares = True
    for x, edge, sign in ((re, c.real - h, 1.0), (re, c.real + h, -1.0),
                          (im, c.imag - h, 1.0), (im, c.imag + h, -1.0)):
        squares = squares & _edge_status(x[:, None, :], edge, True, sign)[0]
    return np.concatenate((discs, squares), axis=1)


def _residual_bits(row: dict) -> dict:
    return {key: float(value).hex() for key, value in row["residuals"].items()}


def moved_rows(old: dict, new: dict) -> list:
    """Each row of two suite reports (``run_suite``'s, or as ``normlog
    suite --report`` writes them) whose verdict, note or residual bits
    moved, or that one report lacks: ``(label, n, seed, check, what)``,
    in the order of ``old``'s rows, then ``new``'s."""
    rows = [{(r["family"], r["n"], r["seed"], r["check"]): r
             for r in report["results"]} for report in (old, new)]
    out = []
    for key in {**rows[0], **rows[1]}:
        if key not in rows[0] or key not in rows[1]:
            out.append((*key, "only in " + ("new" if key in rows[1]
                                            else "old")))
            continue
        a, b = rows[0][key], rows[1][key]
        moved = [what for what, same in (
            ("verdict", (a["passed"], a["hypothesis_met"])
             == (b["passed"], b["hypothesis_met"])),
            ("note", a["notes"] == b["notes"]),
            ("residual bits", _residual_bits(a) == _residual_bits(b)))
            if not same]
        if moved:
            out.append((*key, ", ".join(moved)))
    return out
