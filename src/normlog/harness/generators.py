"""Instance families for the identity checks.

Every family constructs a pair (X, Y) satisfying its defining
exponential equation by design, then re-verifies that equation
numerically before returning (``ConstructionFailed`` on violation, so a
generator bug can never masquerade as an identity failure).

A family's builder makes all instances of one spec that differ only in
their seed at once, one row per instance, in array code: each scalar
draw is hashed for every row's stream together (each row keeps its own
counter, so its draws come in the order a lone build takes them), the
rejection loops test every row's candidates together, and the Haar
unitaries, diagonals and conjugations U D U* are stacks. Every instance
is bit for bit its lone build; ``make_pair`` is the stack of one.

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
from ..linalg import _same_rows, dagger
from ..logs import TWO_PI, _exp_gaps, _exp_stack
from ..spectral import _fold_branch, _near, _odd_pi_distance
from .rng import _Streams, _unitary_stack, _units

__all__ = ["Family", "InstanceSpec", "make_pair"]

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
        an integer >= 1, a ``seed`` that is not an integer, or a
        parameter the family does not read or whose value is not an
        integer (``violate`` and ``conjugate_pair`` also take a
        boolean)."""
        family = Family(self.family)
        _require_int(self.n, "n")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _require_int(self.seed, "seed")
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


def _diag(d: np.ndarray) -> np.ndarray:
    """``np.diag`` of each row of a (k, m) stack."""
    k, m = d.shape
    out = np.zeros((k, m, m), dtype=complex)
    out[:, np.arange(m), np.arange(m)] = d
    return out


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block diagonal matrices with blocks ``a`` and ``b``, each a
    stack or one matrix for all (at least one a stack)."""
    n, m = a.shape[-1], b.shape[-1]
    k = len(a) if a.ndim == 3 else len(b)
    out = np.zeros((k, n + m, n + m), dtype=complex)
    out[:, :n, :n] = a
    out[:, n:, n:] = b
    return out


def _conj_by(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """U D U* for each matrix of the stacks, one gemm per matrix as for a
    lone pair."""
    return u @ d @ dagger(u)


def _fold_diag(values: np.ndarray) -> np.ndarray:
    """The diagonal matrices of i times each real folded into (-pi, pi]."""
    return _diag(1j * _fold_branch(values)[1])


class _Rows:
    """The instances of one spec that a builder makes together, one row
    per seed: their streams, and the error of each row that failed (its
    later steps compute on, and are discarded)."""

    def __init__(self, spec: InstanceSpec, seeds):
        self.n, self.params = spec.n, spec.params
        self.streams = _Streams(seeds)
        self.errors: list = [None] * len(seeds)

    def __len__(self) -> int:
        return len(self.errors)

    def unitaries(self, n: int) -> np.ndarray:
        """One Haar unitary per row, from the row's next subseed."""
        return _unitary_stack(n, self.streams.u64()[:, 0])


def _jittered_grid(rows: _Rows, counts: np.ndarray, lo: float, hi: float,
                   jitter: float = 0.25) -> np.ndarray:
    """Row i: ``counts[i]`` reals on an even grid over [lo, hi] with
    per-slot jitter (so at least ``1 - 2*jitter`` slot widths apart), in
    columns ``:counts[i]``, shuffled against sortedness artifacts: a row
    draws its jitters, then one integer per Fisher-Yates swap."""
    m = int(counts.max(initial=0))
    z = rows.streams.peek(max(0, 2 * m - 1))
    rows.streams.advance(np.maximum(0, 2 * counts - 1))
    slot = (hi - lo) / np.maximum(counts, 1)
    vals = lo + ((np.arange(m) + 0.5 + jitter * (2.0 * _units(z[:, :m]) - 1.0))
                 * slot[:, None])
    # swap t of row i exchanges slot counts[i] - 1 - t with slot j
    t = np.arange(max(0, m - 1))
    span = np.maximum(counts[:, None] - t, 1)
    draws = np.take_along_axis(z, counts[:, None] + t, axis=1)
    js = (draws % span.astype(np.uint64)).tolist()
    out = vals.tolist()
    for row, count, j_row in zip(out, counts.tolist(), js):
        for i, j in zip(range(count - 1, 0, -1), j_row):
            row[i], row[j] = row[j], row[i]
    return np.array(out).reshape(vals.shape)


# candidates a rejection loop draws for a row before the row fails
_EIG_TRIES = 10000
_REAL_TRIES = 20000


def _place(rows: _Rows, counts: np.ndarray, width: int, candidates, clash,
           tries: int, what: str) -> np.ndarray:
    """Rejection sampling on every row at once, bit for bit the loop that
    draws one candidate at a time: row i draws candidates of ``width``
    raw draws each, and accepts one that ``candidates`` admits and that
    does not ``clash`` with a value it accepted before, until it holds
    ``counts[i]`` values (columns ``:counts[i]``); after ``tries``
    candidates it fails with "could not place ``what``".

    ``candidates(z)`` maps (r, b, width) raw draws to (r, b) values and
    the mask it admits; ``clash(a, b, idx)`` compares broadcast values of
    the rows ``idx``. Each round tests a batch of candidates per open row
    against its accepted values and against each other in array code,
    and takes only the draws up to the last candidate it accepts.
    """
    k = len(rows)
    m = int(counts.max(initial=0))
    out = None
    filled = np.zeros(k, dtype=np.int64)
    drawn = np.zeros(k, dtype=np.int64)
    idx = np.flatnonzero(counts > 0)
    while len(idx):
        need = counts[idx] - filled[idx]
        # half again the candidates the values still wanted have taken
        per = max(1.0, drawn[idx].sum() / max(1, filled[idx].sum()))
        b = min(int(need.max() * per * 1.5) + 4, 4 * m + 16)
        z = rows.streams.peek(b * width, idx).reshape(len(idx), b, width)
        vals, ok = candidates(z)
        if out is None:
            out = np.zeros((k, m), dtype=vals.dtype)
        if b > tries - drawn[idx].max():
            ok &= np.arange(b) < (tries - drawn[idx])[:, None]
        f = int(filled[idx].max())
        if f:
            old = clash(vals[:, :, None], out[idx, None, :f], idx)
            old &= np.arange(f) < filled[idx, None, None]
            ok &= ~old.any(axis=2)
        pair = clash(vals[:, :, None], vals[:, None, :], idx)
        pair &= np.tri(b, k=-1, dtype=bool)  # candidate c against j < c
        # the loop's verdicts, settled in rounds: a candidate is accepted
        # once every admissible earlier one it clashes with is rejected,
        # and rejected once one of them is accepted
        open_ = ok & (pair & ok[:, None, :]).any(axis=2)
        ok &= ~open_
        while open_.any():
            beaten = (pair & ok[:, None, :]).any(axis=2)
            alive = beaten | (pair & open_[:, None, :]).any(axis=2)
            ok |= open_ & ~alive
            open_ &= alive & ~beaten
        cum = np.cumsum(ok, axis=1)
        done = cum[:, -1] >= need
        used = np.where(done, (cum >= need[:, None]).argmax(axis=1) + 1,
                        np.minimum(b, tries - drawn[idx]))
        take = ok & (cum <= need[:, None])
        r, c = np.nonzero(take)
        out[idx[r], filled[idx[r]] + cum[r, c] - 1] = vals[r, c]
        filled[idx] += take.sum(axis=1)
        drawn[idx] += used
        rows.streams.advance(used * width, idx)
        short = ~done & (drawn[idx] >= tries)
        for i in idx[short].tolist():  # a row keeps its first error
            rows.errors[i] = rows.errors[i] or ConstructionFailed(
                f"could not place {what}")
        idx = idx[~done & ~short]
    return np.zeros((k, m)) if out is None else out


def _interior_eigs(rows: _Rows, counts, im_margin: float = 0.05,
                   min_gap: float = 1e-3) -> np.ndarray:
    """Row i: ``counts[i]`` points of the box |Re z| <= 1.5,
    |Im z| <= pi - im_margin, pairwise at least ``min_gap`` apart."""
    def candidates(z):  # complex(uniform(re...), uniform(im...))
        u = _units(z)
        vals = (re_lo + (re_hi - re_lo) * u[..., 0]).astype(complex)
        vals.imag = im_lo + (im_hi - im_lo) * u[..., 1]
        return vals, np.ones(z.shape[:2], dtype=bool)

    def clash(a, b, idx):  # closer than min_gap, as abs() of a - b
        return _near(a.real - b.real, a.imag - b.imag, min_gap, strict=True)

    re_lo, re_hi = -_RE_RANGE, _RE_RANGE
    im_lo, im_hi = -_PI + im_margin, _PI - im_margin
    counts = np.broadcast_to(counts, (len(rows),))
    return _place(rows, counts, 2, candidates, clash, _EIG_TRIES,
                  "interior eigenvalues")


def _interior_pair(rows: _Rows):
    eigs = _interior_eigs(rows, rows.n)
    x = _conj_by(rows.unitaries(rows.n), _diag(eigs))
    return x, x.copy(), [{}] * len(rows)


def _boundary_flip_pair(rows: _Rows):
    p, n, k = rows.params, rows.n, len(rows)
    side = 1.0 if p.get("side", 1) >= 0 else -1.0
    fixed = int(p.get("boundary", 0))
    if fixed < 0:
        raise ValueError(f"boundary must be >= 0, got {fixed}")
    n_boundary = np.minimum(
        np.full(k, fixed) if fixed else
        rows.streams.integer(1, max(1, n // 2))[:, 0], n)

    # real parts kept away from 0 so boundary points avoid the corners
    # +/- i*pi; the grid spans both signs of [0.2, _RE_RANGE]
    seg = _RE_RANGE - 0.2
    grid = _jittered_grid(rows, n_boundary, 0.0, 2.0 * seg)
    res = np.where(grid < seg, 0.2 + grid, -(0.2 + (grid - seg)))
    on_line = res.astype(complex)
    on_line.imag = side * _PI
    if p.get("conjugate_pair") and on_line.shape[1] >= 2:
        pair = n_boundary >= 2
        on_line[pair, 1] = on_line[pair, 0].conj()
    inner = _interior_eigs(rows, n - n_boundary)
    # row i: its n_boundary[i] line points, then its interior eigenvalues
    col = np.arange(n)
    on = col < n_boundary[:, None]
    lam_x = np.empty((k, n), dtype=complex)
    lam_x[on] = on_line[col[:on_line.shape[1]] < n_boundary[:, None]]
    lam_x[~on] = inner[col[:inner.shape[1]] < (n - n_boundary)[:, None]]

    m = int(n_boundary.max(initial=0))
    flips = (rows.streams.peek(m) % np.uint64(2)).astype(bool)
    rows.streams.advance(n_boundary)
    flips &= col[:m] < n_boundary[:, None]
    flips[~flips.any(axis=1), 0] = True  # none flipped: flip the first
    lam_y = lam_x.copy()
    lam_y[:, :m] = np.where(flips, lam_x[:, :m].conj(), lam_x[:, :m])

    u = rows.unitaries(n)
    return (_conj_by(u, _diag(lam_x)), _conj_by(u, _diag(lam_y)),
            [{"flipped": f, "boundary": b} for f, b in
             zip(flips.sum(axis=1).tolist(), n_boundary.tolist())])


def _distinct_projection_pair(rows: _Rows):
    n = rows.n
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    d = _block_diag(_PM_PI, _diag(_interior_eigs(rows, n - 2)))
    w = rows.unitaries(n)
    eye_int = np.eye(n - 2, dtype=complex)
    u = w @ _block_diag(rows.unitaries(2), eye_int)
    v = w @ _block_diag(rows.unitaries(2), eye_int)
    return _conj_by(u, d), _conj_by(v, d), [{"block": 2}] * len(rows)


def _shifted_branch_pair(rows: _Rows):
    p, n = rows.params, rows.n
    k_lo = int(p.get("k_lo", -1))
    k_hi = int(p.get("k_hi", 1))
    if k_hi < k_lo + 1:
        raise ConstructionFailed("window must span at least one strip")
    z = _interior_eigs(rows, n, im_margin=0.1)
    kx = rows.streams.integer(k_lo + 1, k_hi, n)
    ky = rows.streams.integer(k_lo + 1, k_hi, n)
    u = rows.unitaries(n)
    return (_conj_by(u, _diag(z + TWO_PI * 1j * kx)),
            _conj_by(u, _diag(z + TWO_PI * 1j * ky)),
            [{"k_lo": k_lo, "k_hi": k_hi}] * len(rows))


def _non_normal_log_pair(rows: _Rows):
    n, k = rows.n, len(rows)
    if n < 2:
        raise ConstructionFailed("family needs n >= 2")
    reals = _jittered_grid(rows, np.full(k, n - 2), -2.0, 2.0)
    d_real = _diag(reals.astype(complex))
    # the shear T = [[1, a], [0, 1]], |a| < 1: its condition number is at
    # most (3 + sqrt(5)) / 2, so it is never redrawn
    t = np.repeat(np.eye(2, dtype=complex)[None], k, axis=0)
    t[:, 0, 1] = rows.streams.uniform(-1.0, 1.0)[:, 0]
    y_block = t @ _PM_PI @ np.linalg.inv(t)
    w = rows.unitaries(n)
    x = _conj_by(w, _block_diag(_PM_PI, d_real))
    y = _conj_by(w, _block_diag(y_block, d_real))
    return x, y, [{"block": 2}] * k


_ODD_PI_SET_RADIUS = 0.15


def _congruence_free_reals(rows: _Rows, counts, span: float = 8.0,
                           margin: float = 0.15) -> np.ndarray:
    """Row i: ``counts[i]`` reals with pairwise gaps away from 2*pi*Z
    (k != 0) and each value away from every odd multiple of pi.

    Every placed value shadows ~margin/pi of the whole line for later
    ones (its 2*pi translates), so the margin must shrink once
    count*margin approaches pi or placement becomes infeasible.
    """
    def candidates(z):  # uniform(-span, span), away from odd pi
        v = -span + (span - -span) * _units(z[..., 0])
        return v, ~(_odd_pi_distance(v) < _ODD_PI_SET_RADIUS)

    def clash(a, b, idx):
        gap = abs(a - b)
        k = np.rint(gap / TWO_PI)
        near = margins[idx, None, None]
        return (gap < near) | ((k != 0) & (abs(gap - TWO_PI * k) < near))

    counts = np.broadcast_to(counts, (len(rows),))
    margins = np.where(counts > 0, np.minimum(
        margin, 0.6 * _PI / np.maximum(counts, 1)), margin)
    return _place(rows, counts, 1, candidates, clash, _REAL_TRIES,
                  "congruence-free values")


def _self_adjoint_congruence_free(rows: _Rows):
    n, k = rows.n, len(rows)
    distinct = (n - rows.streams.integer(0, 1)[:, 0] if n >= 4
                else np.full(k, n))
    placed = _congruence_free_reals(rows, distinct)
    vals = np.zeros((k, n))
    vals[:, :placed.shape[1]] = placed
    # one repeated eigenvalue for a fatter cluster
    repeat = distinct < n
    vals[repeat, n - 1] = vals[repeat, 0]
    if rows.params.get("violate") and n >= 2:
        vals[:, 1] = vals[:, 0] + TWO_PI  # exact congruence collision
    u = rows.unitaries(n)
    return (_conj_by(u, _diag(vals.astype(complex))),
            _conj_by(u, _fold_diag(vals)),
            [{"values": len(set(row))} for row in vals.tolist()])


def _odd_pi_eigenvalue(rows: _Rows):
    violate = rows.params.get("violate")
    n = rows.n
    k_odd = rows.streams.integer(-1, 1)[:, 0]
    v_odd = (2 * k_odd + 1) * _PI
    mult = 2 if n >= 3 else 1
    rest = _congruence_free_reals(rows, n - mult)
    if violate:
        if n - mult < 1:
            raise ConstructionFailed("violation variant needs a spare slot")
        rest[:, 0] = (2 * (k_odd + 1) + 1) * _PI  # a second odd-pi point
    values = np.concatenate((np.repeat(v_odd[:, None], mult, axis=1), rest),
                            axis=1)
    u = rows.unitaries(n)
    x = _conj_by(u, _diag(values.astype(complex)))
    if mult == 2 and not violate:
        # a log of -I on the odd-pi eigenspace in its own random basis:
        # Y is then not a function of X, yet must still commute with it
        y_core = _block_diag(_conj_by(rows.unitaries(2), _PM_PI),
                             _fold_diag(rest))
    else:
        y_core = _fold_diag(values)
    return (x, _conj_by(u, y_core),
            [{"odd_value": v, "mult": mult} for v in v_odd.tolist()])


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
    It is :func:`_build` at the one seed.
    """
    return _first_failure(_build(spec, [spec.seed]))[0][:3]


def _first_failure(built: list) -> list:
    """``built``, unless an entry is an error: then the first one raises."""
    for entry in built:
        if isinstance(entry, ConstructionFailed):
            raise entry
    return built


def _build(spec: InstanceSpec, seeds) -> list:
    """The instances of a validated ``spec`` at each of the ``seeds``: each
    entry is ``(x, y, metadata, exp_y)``, or the ConstructionFailed its
    lone build raises.

    The family's builder makes all of them at once: each scalar draw is
    hashed for every instance's stream in one array operation, each
    rejection loop tests every instance's candidates together, and the
    Haar unitaries, diagonals and conjugations U D U* are stacks, one
    LAPACK or BLAS call per matrix. Both sides of every self-test are
    then exponentiated as stacks. ``exp_y`` is the self-test's e^Y, bit
    for bit ``exp_general(y)``; a Y byte-equal to its X (an
    InteriorPair's), as :func:`~normlog.linalg._same_rows` compares
    them, reuses X's exponential.
    """
    family = Family(spec.family)
    builder, skew, _ = _BUILDERS[family]
    rows = _Rows(spec, seeds)
    try:
        x, y, extras = builder(rows)
    except ConstructionFailed as exc:  # the family cannot build this spec
        return [exc] * len(seeds)
    ok = [i for i, error in enumerate(rows.errors) if error is None]
    out = list(rows.errors)
    if not ok:
        return out
    x, y = (x, y) if len(ok) == len(seeds) else (x[ok], y[ok])
    lhs = _exp_stack(1j * x if skew else x)  # iX, as 1j * x computes it
    shared = _same_rows(x, y) & (not skew)
    rhs = lhs
    if not shared.all():
        rhs = lhs.copy()
        rhs[~shared] = _exp_stack(y[~shared])
    for j, (i, residual) in enumerate(zip(ok, _exp_gaps(lhs, rhs))):
        if residual > _SELF_TEST_TOL:
            out[i] = ConstructionFailed(
                f"{spec.family} self-test residual {residual:.3e} for "
                f"n={spec.n} seed={seeds[i]}")
            continue
        metadata = {"family": family.value, "n": spec.n, "seed": seeds[i],
                    "params": dict(spec.params), "equation": (
                        "exp(iX)=exp(Y)" if skew else "exp(X)=exp(Y)"),
                    "self_test_residual": residual, **extras[i]}
        out[i] = (x[j], y[j], metadata, rhs[j])
    return out
