"""Instance families for the identity checks.

Every family constructs a pair (X, Y) satisfying its defining
exponential equation by design, then re-verifies that equation
numerically before returning (``ConstructionFailed`` on violation, so a
generator bug can never masquerade as an identity failure).

A family's builder is a generator: it draws every scalar and subseed of
its instance from the instance's stream, and yields a ``(size, subseed)``
request for each Haar unitary, which is sent back in. ``make_pairs``
drives the builders of a chunk together, so the unitaries and self-test
exponentials of the whole chunk are computed in stacks.

Boundary eigenvalues are placed with imaginary part exactly ``+/-pi``
(no rounding), keeping line membership unambiguous downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import ConstructionFailed
from ..linalg import dagger, frob
from ..logs import TWO_PI, exp_stack
from ..spectral import _fold_branch, _odd_pi_distance
from .rng import Stream, unitary_stack

__all__ = ["Family", "InstanceSpec", "make_pair", "make_pairs"]

_SELF_TEST_TOL = 1e-10
_PI = math.pi


class Family(str, Enum):
    INTERIOR_PAIR = "InteriorPair"
    BOUNDARY_FLIP_PAIR = "BoundaryFlipPair"
    DISTINCT_PROJECTION_PAIR = "DistinctProjectionPair"
    SHIFTED_BRANCH_PAIR = "ShiftedBranchPair"
    NON_NORMAL_LOG_PAIR = "NonNormalLogPair"
    SELF_ADJOINT_CONGRUENCE_FREE = "SelfAdjointCongruenceFree"
    ODD_PI_EIGENVALUE = "OddPiEigenvalue"


@dataclass(frozen=True)
class InstanceSpec:
    family: Family
    n: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _jittered_grid(stream: Stream, count: int, lo: float, hi: float,
                   jitter: float = 0.25) -> list[float]:
    """Reals on an even grid over [lo, hi] with per-slot jitter.

    Separation is at least ``(1 - 2*jitter)`` of a slot width by
    construction, so packing never stalls. Values come back in a
    shuffled order to avoid sortedness artifacts.
    """
    slot = (hi - lo) / count
    vals = [lo + (i + 0.5 + jitter * (2.0 * stream.unit() - 1.0)) * slot
            for i in range(count)]
    for i in range(count - 1, 0, -1):  # Fisher-Yates on the stream
        j = stream.integer(0, i)
        vals[i], vals[j] = vals[j], vals[i]
    return vals


def _interior_eigs(stream: Stream, count: int, re_range: float,
                   im_margin: float, min_gap: float = 1e-3) -> list[complex]:
    vals: list[complex] = []
    tries = 0
    while len(vals) < count:
        tries += 1
        if tries > 10000:
            raise ConstructionFailed("could not place interior eigenvalues")
        z = complex(stream.uniform(-re_range, re_range),
                    stream.uniform(-_PI + im_margin, _PI - im_margin))
        if all(abs(z - w) >= min_gap for w in vals):
            vals.append(z)
    return vals


def _conj_by(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    return u @ d @ dagger(u)


def _interior_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    eigs = _interior_eigs(stream, spec.n, p.get("re_range", 1.5),
                          p.get("im_margin", 0.05))
    u = yield (spec.n, stream.subseed())
    x = _conj_by(u, np.diag(eigs))
    return x, x.copy(), {}


def _boundary_flip_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    side = 1.0 if p.get("side", 1) >= 0 else -1.0
    n_boundary = int(p.get("boundary", 0)) or stream.integer(1, max(1, n // 2))
    n_boundary = min(n_boundary, n)
    re_range = p.get("re_range", 1.5)

    # real parts kept away from 0 so boundary points avoid the corners
    # +/- i*pi; the grid spans both signs of [0.2, re_range]
    seg = re_range - 0.2
    res = [0.2 + u if u < seg else -(0.2 + (u - seg))
           for u in _jittered_grid(stream, n_boundary, 0.0, 2.0 * seg)]
    lam_x = [complex(a, side * _PI) for a in res]
    if p.get("conjugate_pair") and n_boundary >= 2:
        lam_x[1] = lam_x[0].conjugate()
    interior = _interior_eigs(stream, n - n_boundary, re_range,
                              p.get("im_margin", 0.05))
    lam_x += interior

    lam_y = list(lam_x)
    flipped = [j for j in range(n_boundary) if stream.integer(0, 1)]
    if not flipped:
        flipped = [0]
    for j in flipped:
        lam_y[j] = lam_x[j].conjugate()

    u = yield (n, stream.subseed())
    return (_conj_by(u, np.diag(lam_x)), _conj_by(u, np.diag(lam_y)),
            {"flipped": len(flipped), "boundary": n_boundary})


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _distinct_projection_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    pairs = max(1, int(p.get("pairs", 1)))
    block = min(2 * pairs, n - (n % 2 == 1))  # even block size <= n
    boundary = [1j * _PI if j % 2 == 0 else -1j * _PI for j in range(block)]
    interior = _interior_eigs(stream, n - block, p.get("re_range", 1.5),
                              p.get("im_margin", 0.05))
    d = np.diag(boundary + interior)

    w = yield (n, stream.subseed())
    eye_int = np.eye(n - block, dtype=complex)
    u = w @ _block_diag((yield (block, stream.subseed())), eye_int)
    v = w @ _block_diag((yield (block, stream.subseed())), eye_int)
    return _conj_by(u, d), _conj_by(v, d), {"block": block}


def _shifted_branch_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    k_lo = int(p.get("k_lo", -1))
    k_hi = int(p.get("k_hi", 1))
    if k_hi < k_lo + 1:
        raise ConstructionFailed("window must span at least one strip")
    z = _interior_eigs(stream, spec.n, p.get("re_range", 1.5),
                       p.get("im_margin", 0.1))
    kx = [stream.integer(k_lo + 1, k_hi) for _ in range(spec.n)]
    ky = [stream.integer(k_lo + 1, k_hi) for _ in range(spec.n)]
    lam_x = [w + TWO_PI * 1j * k for w, k in zip(z, kx)]
    lam_y = [w + TWO_PI * 1j * k for w, k in zip(z, ky)]
    u = yield (spec.n, stream.subseed())
    return (_conj_by(u, np.diag(lam_x)), _conj_by(u, np.diag(lam_y)),
            {"k_lo": k_lo, "k_hi": k_hi})


def _upper_shear(stream: Stream, n: int, cond_cap: float = 100.0) -> np.ndarray:
    """I + strictly upper triangular noise, condition number capped."""
    for _ in range(100):
        t = np.eye(n, dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                t[i, j] = stream.uniform(-1.0, 1.0)
        if np.linalg.cond(t) <= cond_cap:
            return t
    raise ConstructionFailed("could not draw a well-conditioned shear")


def _non_normal_log_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    pairs = max(1, int(p.get("pairs", 1)))
    block = min(2 * pairs, n - (n % 2 == 1))
    d_block = np.diag([1j * _PI if j % 2 == 0 else -1j * _PI
                       for j in range(block)])
    reals = _jittered_grid(stream, n - block, -2.0, 2.0) if n > block else []
    d_real = np.diag([complex(r) for r in reals])

    t = _upper_shear(stream, block)
    y_block = t @ d_block @ np.linalg.inv(t)
    w = yield (n, stream.subseed())
    x = _conj_by(w, _block_diag(d_block, d_real))
    y = _conj_by(w, _block_diag(y_block, d_real))
    return x, y, {"block": block}


_ODD_PI_SET_RADIUS = 0.15


def _congruence_free_reals(stream: Stream, count: int, span: float,
                           margin: float = 0.15) -> list[float]:
    """Reals with pairwise gaps away from 2*pi*Z (k != 0) and each value
    away from every odd multiple of pi.

    Every placed value shadows ~margin/pi of the whole line for later
    ones (its 2*pi translates), so the margin must shrink once
    count*margin approaches pi or placement becomes infeasible.
    """
    if count:
        margin = min(margin, 0.6 * _PI / count)
    vals: list[float] = []
    tries = 0
    while len(vals) < count:
        tries += 1
        if tries > 20000:
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


def _fold_diag(values: list[float]) -> np.ndarray:
    return np.diag([1j * _fold_branch(v, 1e-12)[1] for v in values])


def _self_adjoint_congruence_free(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    span = p.get("span", 8.0)
    distinct = n - 1 if (n >= 4 and stream.integer(0, 1)) else n
    vals = _congruence_free_reals(stream, distinct, span)
    if distinct < n:
        vals.append(vals[0])  # one repeated eigenvalue for a fatter cluster
    if p.get("violate") and n >= 2:
        vals[1] = vals[0] + TWO_PI  # exact congruence collision
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in vals]))
    y = _conj_by(u, _fold_diag(vals))
    return x, y, {"values": len(set(vals))}


def _odd_pi_eigenvalue(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    k_odd = stream.integer(-1, 1)
    v_odd = (2 * k_odd + 1) * _PI
    mult = int(p.get("mult", 2 if n >= 3 else 1))
    mult = max(1, min(mult, n))
    rest = _congruence_free_reals(stream, n - mult, p.get("span", 8.0))
    if p.get("violate"):
        if n - mult < 1:
            raise ConstructionFailed("violation variant needs a spare slot")
        k2 = k_odd + 1
        rest[0] = (2 * k2 + 1) * _PI  # a second odd-pi point

    values = [v_odd] * mult + rest
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in values]))

    if mult >= 2 and not p.get("violate"):
        # a log of -I on the odd-pi eigenspace in its own random basis:
        # Y is then not a function of X, yet must still commute with it
        signs = np.diag([1j * _PI if j % 2 == 0 else -1j * _PI
                         for j in range(mult)])
        vb = yield (mult, stream.subseed())
        y_block = _conj_by(vb, signs)
        y_core = _block_diag(y_block, _fold_diag(rest))
    else:
        y_core = _fold_diag(values)
    y = _conj_by(u, y_core)
    return x, y, {"odd_value": v_odd, "mult": mult}


_BUILDERS = {
    Family.INTERIOR_PAIR: (_interior_pair, False),
    Family.BOUNDARY_FLIP_PAIR: (_boundary_flip_pair, False),
    Family.DISTINCT_PROJECTION_PAIR: (_distinct_projection_pair, False),
    Family.SHIFTED_BRANCH_PAIR: (_shifted_branch_pair, False),
    Family.NON_NORMAL_LOG_PAIR: (_non_normal_log_pair, False),
    Family.SELF_ADJOINT_CONGRUENCE_FREE: (_self_adjoint_congruence_free, True),
    Family.ODD_PI_EIGENVALUE: (_odd_pi_eigenvalue, True),
}


def make_pair(spec: InstanceSpec):
    """Build (X, Y, metadata) for an instance spec.

    The metadata records the family's defining equation
    (``exp(X)=exp(Y)`` or ``exp(iX)=exp(Y)``) and the measured residual
    of its self-test; a residual above 1e-10 raises ConstructionFailed.
    It is :func:`make_pairs` on a chunk of one.
    """
    return make_pairs([spec])[0]


def make_pairs(specs) -> list:
    """``make_pair(spec)`` for each spec, built as one chunk.

    Each builder draws from its own stream in its own order, and hands
    back a ``(size, subseed)`` request wherever it needs a Haar unitary;
    the pending requests of one size are served by one
    :func:`~normlog.harness.rng.unitary_stack` call. Both sides of every
    self-test equation are then exponentiated as stacks, one per matrix
    size. Every result is bit for bit the lone one. When specs fail, the
    first of them in chunk order raises what its lone call would.
    """
    specs = list(specs)
    skews, running = [], []
    for spec in specs:
        builder, skew = _BUILDERS[Family(spec.family)]
        skews.append(skew)
        running.append(builder(spec, Stream(spec.seed)))
    built: list = [None] * len(specs)  # (x, y, extra), or ConstructionFailed
    # what each unfinished builder is sent next: None starts it
    replies: dict = dict.fromkeys(range(len(specs)))
    while replies:
        requests = {}
        for i, reply in replies.items():
            try:
                requests[i] = running[i].send(reply)
            except StopIteration as done:
                built[i] = done.value
            except ConstructionFailed as exc:  # raised below, in chunk order
                built[i] = exc
        replies = {}
        for size in sorted({size for size, _ in requests.values()}):
            wanted = [i for i, (s, _) in requests.items() if s == size]
            unitaries = unitary_stack(size, [requests[i][1] for i in wanted])
            replies.update(zip(wanted, unitaries))

    residuals = {}
    ok = [i for i, b in enumerate(built) if not isinstance(b, ConstructionFailed)]
    for n in sorted({built[i][0].shape[0] for i in ok}):
        group = [i for i in ok if built[i][0].shape[0] == n]
        lhs = np.stack([built[i][0] for i in group])
        for j, i in enumerate(group):
            if skews[i]:  # iX, as 1j * x computes it
                np.multiply(1j, lhs[j], out=lhs[j])
        lhs = exp_stack(lhs)
        rhs = exp_stack(np.stack([built[i][1] for i in group]))
        for i, left, right in zip(group, lhs, rhs):
            residuals[i] = frob(left - right) / max(frob(left), 1e-300)

    out = []
    for i, spec in enumerate(specs):
        if isinstance(built[i], ConstructionFailed):
            raise built[i]
        x, y, extra = built[i]
        if residuals[i] > _SELF_TEST_TOL:
            raise ConstructionFailed(
                f"{spec.family} self-test residual {residuals[i]:.3e} for "
                f"n={spec.n} seed={spec.seed}")
        metadata = {
            "family": Family(spec.family).value,
            "n": spec.n,
            "seed": spec.seed,
            "params": dict(spec.params),
            "equation": "exp(iX)=exp(Y)" if skews[i] else "exp(X)=exp(Y)",
            "self_test_residual": residuals[i],
        }
        metadata.update(extra)
        out.append((x, y, metadata))
    return out
