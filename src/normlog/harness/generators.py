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

A family reads only the parameters ``_BUILDERS`` declares for it, and
:class:`InstanceSpec` rejects any other key.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import ConstructionFailed
from ..linalg import _same_bytes, dagger
from ..logs import TWO_PI, _exp_gaps, _exp_stack
from ..spectral import _fold_branch, _odd_pi_distance
from .rng import Stream, _unitary_stack

__all__ = ["Family", "InstanceSpec", "make_pair", "make_pairs"]

_SELF_TEST_TOL = 1e-10
_PI = math.pi
# the real-part range of interior eigenvalues
_RE_RANGE = 1.5
# the 2 x 2 diagonal of a log of -I with one eigenvalue on each line
# Im z = +/-pi
_PM_PI = np.diag([1j * _PI, -1j * _PI])


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
        """Raises ValueError for an unknown family, an ``n`` that is not
        an integer >= 1, or a parameter the family does not read or whose
        value is not an integer (``violate`` and ``conjugate_pair`` also
        take a boolean)."""
        family = Family(self.family)
        _require_int(self.n, "n")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _require_keys(self.params, _BUILDERS[family][2],
                      f"{family.value} params")
        for key, value in self.params.items():
            _require_int(value, f"{family.value} param {key!r}",
                         flag=key in _FLAGS)


# the family parameters that are on/off switches
_FLAGS = ("violate", "conjugate_pair")


def _require_keys(obj, known, what: str) -> None:
    """Raises ValueError unless ``obj`` is a dict whose keys are all in
    ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(known), key=str)
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}; expected "
                         f"names from {list(known)}")


def _require_int(value, what: str, flag: bool = False) -> None:
    """Raises ValueError unless ``value`` is an integer, or, with
    ``flag``, an integer or a boolean."""
    if not isinstance(value, numbers.Integral) or (
            isinstance(value, bool) and not flag):
        kind = "an integer or a boolean" if flag else "an integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")


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


def _interior_eigs(stream: Stream, count: int, im_margin: float = 0.05,
                   min_gap: float = 1e-3) -> list[complex]:
    vals: list[complex] = []
    tries = 0
    while len(vals) < count:
        tries += 1
        if tries > 10000:
            raise ConstructionFailed("could not place interior eigenvalues")
        z = complex(stream.uniform(-_RE_RANGE, _RE_RANGE),
                    stream.uniform(-_PI + im_margin, _PI - im_margin))
        if all(abs(z - w) >= min_gap for w in vals):
            vals.append(z)
    return vals


def _conj_by(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    return u @ d @ dagger(u)


def _interior_pair(spec: InstanceSpec, stream: Stream):
    eigs = _interior_eigs(stream, spec.n)
    u = yield (spec.n, stream.subseed())
    x = _conj_by(u, np.diag(eigs))
    return x, x.copy(), {}


def _boundary_flip_pair(spec: InstanceSpec, stream: Stream):
    p = spec.params
    n = spec.n
    side = 1.0 if p.get("side", 1) >= 0 else -1.0
    n_boundary = int(p.get("boundary", 0)) or stream.integer(1, max(1, n // 2))
    n_boundary = min(n_boundary, n)

    # real parts kept away from 0 so boundary points avoid the corners
    # +/- i*pi; the grid spans both signs of [0.2, _RE_RANGE]
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


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def _distinct_projection_pair(spec: InstanceSpec, stream: Stream):
    n = spec.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    d = _block_diag(_PM_PI, np.diag(_interior_eigs(stream, n - 2)))

    w = yield (n, stream.subseed())
    eye_int = np.eye(n - 2, dtype=complex)
    u = w @ _block_diag((yield (2, stream.subseed())), eye_int)
    v = w @ _block_diag((yield (2, stream.subseed())), eye_int)
    return _conj_by(u, d), _conj_by(v, d), {"block": 2}


def _shifted_branch_pair(spec: InstanceSpec, stream: Stream):
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


_ODD_PI_SET_RADIUS = 0.15


def _congruence_free_reals(stream: Stream, count: int, span: float = 8.0,
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
    return np.diag(1j * _fold_branch(np.array(values, dtype=float))[1])


def _self_adjoint_congruence_free(spec: InstanceSpec, stream: Stream):
    n = spec.n
    distinct = n - 1 if (n >= 4 and stream.integer(0, 1)) else n
    vals = _congruence_free_reals(stream, distinct)
    if distinct < n:
        vals.append(vals[0])  # one repeated eigenvalue for a fatter cluster
    if spec.params.get("violate") and n >= 2:
        vals[1] = vals[0] + TWO_PI  # exact congruence collision
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in vals]))
    y = _conj_by(u, _fold_diag(vals))
    return x, y, {"values": len(set(vals))}


def _odd_pi_eigenvalue(spec: InstanceSpec, stream: Stream):
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
        rest[0] = (2 * k2 + 1) * _PI  # a second odd-pi point

    values = [v_odd] * mult + rest
    u = yield (n, stream.subseed())
    x = _conj_by(u, np.diag([complex(v) for v in values]))

    if mult == 2 and not violate:
        # a log of -I on the odd-pi eigenspace in its own random basis:
        # Y is then not a function of X, yet must still commute with it
        vb = yield (2, stream.subseed())
        y_core = _block_diag(_conj_by(vb, _PM_PI), _fold_diag(rest))
    else:
        y_core = _fold_diag(values)
    y = _conj_by(u, y_core)
    return x, y, {"odd_value": v_odd, "mult": mult}


# family -> (builder, whether its equation is exp(iX)=exp(Y), the
# parameters it reads)
_BUILDERS = {
    Family.INTERIOR_PAIR: (_interior_pair, False, ()),
    Family.BOUNDARY_FLIP_PAIR: (_boundary_flip_pair, False,
                                ("side", "boundary", "conjugate_pair")),
    Family.DISTINCT_PROJECTION_PAIR: (_distinct_projection_pair, False, ()),
    Family.SHIFTED_BRANCH_PAIR: (_shifted_branch_pair, False,
                                 ("k_lo", "k_hi")),
    Family.NON_NORMAL_LOG_PAIR: (_non_normal_log_pair, False, ()),
    Family.SELF_ADJOINT_CONGRUENCE_FREE: (_self_adjoint_congruence_free, True,
                                          ("violate",)),
    Family.ODD_PI_EIGENVALUE: (_odd_pi_eigenvalue, True, ("violate",)),
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
    the pending requests of one size are served by one stacked draw.
    Both sides of every self-test equation are then exponentiated as
    stacks, one per matrix size. Every result is bit for bit the lone
    one. When specs fail, the first of them in chunk order raises what
    its lone call would.
    """
    return [built[:3] for built in _make_pairs(specs, False)]


def _make_pairs(specs, keep_exp_y: bool) -> list:
    """:func:`make_pairs`, with the self-test's e^Y of each pair as a
    fourth entry if ``keep_exp_y``, else None: bit for bit
    ``exp_general(y)``. A Y byte-equal to its pair's left side (an
    InteriorPair's X) reuses that exponential."""
    specs = list(specs)
    skews, running = [], []
    for spec in specs:
        builder, skew, _ = _BUILDERS[Family(spec.family)]
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
            unitaries = _unitary_stack(size, [requests[i][1] for i in wanted])
            replies.update(zip(wanted, unitaries))

    residuals, exp_ys = {}, {}
    ok = [i for i, b in enumerate(built) if not isinstance(b, ConstructionFailed)]
    for n in sorted({built[i][0].shape[0] for i in ok}):
        group = [i for i in ok if built[i][0].shape[0] == n]
        lhs = np.stack([built[i][0] for i in group])
        for j, i in enumerate(group):
            if skews[i]:  # iX, as 1j * x computes it
                np.multiply(1j, lhs[j], out=lhs[j])
        lhs = _exp_stack(lhs)
        shared = [not skews[i] and _same_bytes(built[i][0], built[i][1])
                  for i in group]
        rest = [built[i][1] for i, same in zip(group, shared) if not same]
        rhs = iter(_exp_stack(np.stack(rest)) if rest else ())
        rights = [left if same else next(rhs) for left, same in zip(lhs, shared)]
        residuals.update(zip(group, _exp_gaps(lhs, np.stack(rights))))
        for i, right in zip(group, rights):
            exp_ys[i] = right if keep_exp_y else None

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
        out.append((x, y, metadata, exp_ys[i]))
    return out
