"""Identity checks for pairs of matrix logarithms.

Each ``check_<name>`` verifies one consequence of the exponential
equation (exp(X) = exp(Y), or exp(iX) = exp(Y) for self-adjoint X) once
over a chunk of :class:`PairAnalysis` of one dimension: its gates are
boolean arrays over the chunk, its residuals stacked numpy calls, bit
for bit what each pair gives alone. It returns one entry per pair, a
:class:`CheckReport` or the pair's error; on one pair it returns the
report or raises. Preconditions act as hypothesis gates, named in the
order a check tests them: an instance violating one is reported with
``hypothesis_met=False`` and is never marked passed.

All residuals are relative, normalized by operand norms with a
``max(1, .)`` guard against tiny denominators.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, wraps

import numpy as np

from .config import (BOUNDARY_TOL, CHECK_TOL, CLUSTER_TOL, GATE_TOL, HERM_TOL,
                     INTEGER_TOL, STACK_ENTRIES)
from .errors import (ExpNotNormal, NormLogError, NotNormal, Singular,
                     SpectrumOutOfRange)
from .linalg import (_frob_stack, _modulus_stack, _same_bytes,
                     as_square_matrix, commutant_basis, commutator, dagger,
                     in_double_commutant, modulus, re_part)
from .logs import TWO_PI, _exp_gaps, _kurepa_splits, _unwrap, exp_general
from .report import CheckReport
from .spectral import (_classify_window, _combination_stack, _edge_status,
                       _fold_branch, _isolated, _odd_pi_distance,
                       _select_stack, _span_distances, _window_weights,
                       normal_eig_stack)

# The check registry: ``check_<name>`` exists for every name here.
CHECK_NAMES = (
    "real_part", "spectral_agreement", "modulus_equal", "modulus_commute",
    "square_commute", "corollary_cases", "difference_formula",
    "congruence_free", "double_commutant", "one_boundary_eigenvalue",
    "y_in_bicommutant_of_exp", "kurepa",
)

__all__ = ["CHECK_NAMES", "PairAnalysis", "decompose_pairs", "run_check",
           "run_checks", *(f"check_{name}" for name in CHECK_NAMES)]

_FINITE_DIM_NOTE = ("verified on finite-dimensional input; the unbounded "
                    "self-adjoint case is outside this toolkit's scope")


def _rel(values, denominators) -> np.ndarray:
    return values / np.maximum(1.0, denominators)


def _stack(arrays) -> np.ndarray:  # one array becomes a view, not a copy
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


# Each exponential equation and the PairAnalysis property measuring it.
_EQUATIONS = {"exp(X)=exp(Y)": "exp_residual",
              "exp(iX)=exp(Y)": "exp_i_residual"}


class _Stacked:
    """A fact of :class:`PairAnalysis` that ``compute(chunk)`` gives for a
    whole chunk; a pair keeps its value (or error, raised on reading)."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, pair, owner=None):
        if pair is None:
            return self
        return _unwrap(_facts(_Chunk([pair]), self.name)[0])


def _facts(chunk, name: str) -> list:
    """Each pair's fact ``name``, computed at once for those lacking it."""
    missing = [p for p in chunk.pairs if name not in vars(p)]
    if missing:
        sub = chunk if len(missing) == len(chunk) else _Chunk(missing)
        for pair, value in zip(missing, vars(PairAnalysis)[name].compute(sub)):
            vars(pair)[name] = value
    return [vars(p)[name] for p in chunk.pairs]


class PairAnalysis:
    """One instance (X, Y) and the facts its checks share.

    Each fact is computed on first use and kept for the life of the
    object, so the checks run on one pair never repeat a decomposition
    or an exponential.
    ``check_tol`` is the pass/fail threshold of its checks; every other
    threshold is a constant of :mod:`normlog.config`. ``[k_lo, k_hi]`` is
    the branch window of :func:`check_difference_formula`.

    ``exp_gap`` is ``(equation, residual)``: the relative gap of
    ``"exp(X)=exp(Y)"`` or ``"exp(iX)=exp(Y)"`` already measured on these
    same arrays, as :func:`~normlog.harness.make_pair`'s self-test does.
    The matching exponential gate then reads it instead of evaluating
    the exponentials again. A residual read from a file must not be
    passed here.
    """

    def __init__(self, x, y, *, check_tol: float = CHECK_TOL,
                 k_lo: int = -1, k_hi: int = 0, exp_gap=None):
        self.x = as_square_matrix(x)
        self.y = as_square_matrix(y)
        self.check_tol = check_tol
        self.k_lo = k_lo
        self.k_hi = k_hi
        if exp_gap is not None:
            equation, residual = exp_gap
            if equation not in _EQUATIONS:
                raise ValueError(f"unknown equation {equation!r}; expected "
                                 f"one of {sorted(_EQUATIONS)}")
            # seeds the cached property that measures this equation
            self.__dict__[_EQUATIONS[equation]] = residual

    # normal_eig(x), or the NormLogError it raised; normal_eig tests
    # normality first, so NotNormal is exactly is_normal's verdict
    @cached_property
    def _attempt_x(self):
        return normal_eig_stack(self.x[None])[0]

    @cached_property
    def _attempt_y(self):
        return normal_eig_stack(self.y[None])[0]

    @property
    def normal_x(self) -> bool:
        return not isinstance(self._attempt_x, NotNormal)

    @property
    def normal_y(self) -> bool:
        return not isinstance(self._attempt_y, NotNormal)

    norm_x = _Stacked(lambda c: _frob_stack(c.x).tolist())
    norm_y = _Stacked(lambda c: _frob_stack(c.y).tolist())
    # relative norm of XY - YX
    commutator_residual = _Stacked(lambda c: _rel(
        _frob_stack(commutator(c.x, c.y)),
        c.array("norm_x") * c.array("norm_y")).tolist())
    # relative norm of Re(X) - Re(Y)
    real_part_residual = _Stacked(lambda c: _rel(
        _frob_stack(re_part(c.x) - re_part(c.y)), c.array("norm_x")).tolist())
    hermitian_x = _Stacked(lambda c: (
        _frob_stack(c.x - dagger(c.x))
        <= HERM_TOL * np.maximum(1.0, c.array("norm_x"))).tolist())
    # the report of check_congruence_free; NotNormal when X is not normal
    congruence = _Stacked(lambda c: _congruence_reports(c))

    @property
    def dec_x(self):
        """Spectral decomposition of X; raises NotNormal if X is not normal,
        or the error its decomposition raised."""
        return _unwrap(self._attempt_x)

    @property
    def dec_y(self):
        """Spectral decomposition of Y; raises NotNormal if Y is not normal,
        or the error its decomposition raised."""
        return _unwrap(self._attempt_y)

    @cached_property
    def exp_y(self) -> np.ndarray:
        return exp_general(self.y)

    # normal_eig(e^Y), or the NormLogError it raised: what kurepa splits
    @cached_property
    def _attempt_exp_y(self):
        return normal_eig_stack(self.exp_y[None])[0]

    @cached_property
    def exp_residual(self) -> float:
        """Relative gap between exp(X) and exp(Y)."""
        return _exp_gaps(exp_general(self.x)[None], self.exp_y[None])[0]

    @cached_property
    def exp_i_residual(self) -> float:
        """Relative gap between exp(iX) and exp(Y)."""
        return _exp_gaps(exp_general(1j * self.x)[None], self.exp_y[None])[0]

    @cached_property
    def modulus_x(self) -> np.ndarray:
        return modulus(self.x)

    @cached_property
    def modulus_y(self) -> np.ndarray:
        return modulus(self.y)


# The stacked facts each check reads: check name -> PairAnalysis
# attributes. A normality gate reads a decomposition attempt.
_XY = ("_attempt_x", "_attempt_y")
_READS = {
    "real_part": _XY,
    "spectral_agreement": _XY,
    "modulus_equal": _XY + ("modulus_x", "modulus_y"),
    "modulus_commute": ("_attempt_x", "modulus_x"),
    "square_commute": ("_attempt_x",),
    "corollary_cases": _XY,
    "difference_formula": _XY,
    "congruence_free": ("_attempt_x",),
    "double_commutant": _XY,
    "one_boundary_eigenvalue": _XY,
    "y_in_bicommutant_of_exp": _XY,
    "kurepa": ("_attempt_exp_y",),
}
# The operand of each stacked fact, a PairAnalysis attribute.
_OPERANDS = {"_attempt_x": "x", "_attempt_y": "y", "_attempt_exp_y": "exp_y",
             "modulus_x": "x", "modulus_y": "y"}


def decompose_pairs(pairs, checks=()) -> None:
    """Decompose, in one stacked call, exactly the operands the named
    ``checks`` read (X, Y, or e^Y for ``kurepa``), and take the moduli
    they read in one more.

    The results seed each pair's facts, as ``exp_gap`` seeds its
    exponential gate, so its checks read them instead of computing them
    on first use; each is bit for bit what a lone pair would compute. A
    pair's operands that are byte-equal (an InteriorPair's X and Y) are
    analysed once and their facts share the result. A fact no named
    check reads is left to be computed on first use; a modulus whose
    computation failed is not seeded, so reading it raises as on a lone
    pair. The pairs must share their dimension.
    """
    facts = sorted({fact for name in checks for fact in _READS.get(name, ())})
    for prefix, analyse in (("_attempt", normal_eig_stack),
                            ("modulus", _modulus_stack)):
        seeds, operands, slots = [], [], []
        for pair in pairs:
            own = []  # the pair's operands so far, with their stack slots
            for fact in facts:
                if not fact.startswith(prefix):
                    continue
                m = getattr(pair, _OPERANDS[fact])
                slot = next((s for o, s in own if _same_bytes(o, m)), None)
                if slot is None:
                    slot = len(operands)
                    operands.append(m)
                    own.append((m, slot))
                seeds.append((pair, fact))
                slots.append(slot)
        if not seeds:
            continue
        results = analyse(np.stack(operands))
        for (pair, fact), slot in zip(seeds, slots):
            # a failed modulus is not seeded, so reading it raises
            if prefix == "_attempt" or not isinstance(results[slot], Exception):
                pair.__dict__[fact] = results[slot]


class _Columns:
    """One operand's decompositions over a chunk, by column: ``v[i]`` is
    pair i's eigenbasis, column-major as ``normal_eig`` lays it out;
    ``lam[i, j]``, ``label[i, j]`` and ``start[i, j]`` are the
    representative and index of column j's cluster and whether j is its
    first column. A pair whose decomposition raised ``errors[i]`` has
    zero rows."""

    def __init__(self, attempts, n: int):
        self.errors = [a if isinstance(a, NormLogError) else None
                       for a in attempts]
        self._bases, reps, labels = [], [], []
        for a in attempts:
            if isinstance(a, NormLogError) or len(a.eigenvalues) == n:
                failed = isinstance(a, NormLogError)
                self._bases.append(np.zeros((n, n)) if failed else a.v.T)
                reps += [0j] * n if failed else a.eigenvalues
                labels += range(n)
                continue
            self._bases.append(a.v.T)
            for j, (lam, m) in enumerate(zip(a.eigenvalues,
                                             a.multiplicities.tolist())):
                reps += [lam] * m
                labels += [j] * m
        k = len(attempts)
        self.lam = np.array(reps, dtype=complex).reshape(k, n)
        self.label = np.array(labels).reshape(k, n)
        self.start = np.ones((k, n), dtype=bool)
        self.start[:, 1:] = self.label[:, 1:] != self.label[:, :-1]

    @cached_property
    def v(self) -> np.ndarray:
        return _stack([b.astype(complex, copy=False)
                       for b in self._bases]).swapaxes(1, 2)


class _Chunk:
    """Pairs of one dimension checked together, and their shared stacks."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        if len({p.x.shape for p in self.pairs}) > 1:
            raise ValueError("the pairs of a chunk must share their dimension")
        self.n = self.pairs[0].x.shape[0] if self.pairs else 0
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def x(self) -> np.ndarray:
        return _stack([p.x for p in self.pairs])

    @cached_property
    def y(self) -> np.ndarray:
        return _stack([p.y for p in self.pairs])

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def array(self, name: str) -> np.ndarray:
        return self._cached(name, lambda: np.array(_facts(self, name)))

    def columns(self, side: str) -> _Columns:  # side "x" or "y"
        return self._cached(side, lambda: _Columns(
            [getattr(p, f"_attempt_{side}") for p in self.pairs], self.n))

    def lines(self, side: str) -> tuple:
        """The projections onto the lines Im z = pi and -pi, stacked."""
        cols = self.columns(side)
        return self._cached(f"lines {side}", lambda: tuple(
            _select_stack(cols.v, mask) for mask in _on_lines(cols.lam)))


def _on_lines(lam: np.ndarray) -> tuple:
    """The points on the lines Im z = pi and -pi, by ``HLine``'s rule."""
    return (abs(lam.imag - math.pi) <= BOUNDARY_TOL,
            abs(lam.imag + math.pi) <= BOUNDARY_TOL)


class _Unmet(Exception):
    """A check's own hypothesis fails; the message is the skip note."""


def _fail(name: str, note: str, residuals=None, tolerances=None) -> CheckReport:
    return CheckReport(check_name=name, passed=False, hypothesis_met=False,
                       residuals=residuals or {}, tolerances=tolerances or {},
                       notes=note)


class _Run:
    """One check over a chunk: each pair's entry once decided, and
    ``open``, the pairs every hypothesis so far held for."""

    def __init__(self, name: str, chunk: _Chunk):
        self.name, self.chunk = name, chunk
        self.entries: list = [None] * len(chunk)
        self.gaps: dict = {}
        self.open = np.arange(len(chunk))

    @property
    def pairs(self) -> list:
        return [self.chunk.pairs[i] for i in self.open.tolist()]

    def take(self, a: np.ndarray) -> np.ndarray:  # the open pairs' rows
        return a if len(self.open) == len(self.chunk) else a[self.open]

    def array(self, name: str) -> np.ndarray:
        return self.take(self.chunk.array(name))

    def gate(self, i: int) -> tuple:
        """Pair i's tested exponential gap, which its report keeps."""
        if i not in self.gaps:
            return {}, {}
        return {"exp_gate": self.gaps[i]}, {"exp_gate": GATE_TOL}

    def end(self, outcomes) -> None:
        """End each open pair whose outcome is an :class:`_Unmet` (a skip)
        or another error (its entry)."""
        done = np.array([o is not None for o in outcomes], dtype=bool)
        for j in np.flatnonzero(done).tolist():
            i, outcome = int(self.open[j]), outcomes[j]
            self.entries[i] = (_fail(self.name, str(outcome), *self.gate(i))
                               if isinstance(outcome, _Unmet) else outcome)
        self.open = self.open[~done]

    def skip(self, unmet: np.ndarray, note) -> None:
        """Skip the open pairs where ``unmet`` holds: note, or note(j)."""
        if unmet.any():
            self.end([_Unmet(note if isinstance(note, str) else note(j))
                      if u else None for j, u in enumerate(unmet.tolist())])

    def columns(self, side: str) -> _Columns:
        """The columns of X or of Y, ending the pairs that failed them."""
        cols = self.chunk.columns(side)
        self.end([cols.errors[i] for i in self.open.tolist()])
        return cols

    def rows(self, found: dict, bounds=None, notes="") -> list:
        """The open pairs' rows: residual arrays, their bounds (a list or
        a value; the check threshold by default) and notes (one or a
        list)."""
        k = len(self.open)
        tol = [p.check_tol for p in self.pairs]
        limits = [(bounds or {}).get(key, tol) for key in found]
        limits = [b if isinstance(b, list) else [b] * k for b in limits]
        values = [np.asarray(v).tolist() for v in found.values()]
        notes = notes if isinstance(notes, list) else [notes] * k
        return [(dict(zip(found, r)), dict(zip(found, b)), note)
                for r, b, note in zip(zip(*values), zip(*limits), notes)]


def _in_strip(lam: np.ndarray) -> np.ndarray:
    """Whether each row of points lies in the closed strip |Im z| <= pi."""
    return np.abs(lam.imag).max(axis=-1) <= math.pi + BOUNDARY_TOL


def _strip_of(run: _Run, side: str) -> np.ndarray:
    return _in_strip(run.take(run.columns(side).lam))


def _both_in_strip(run: _Run) -> np.ndarray:
    # X outside the strip skips the pair before Y is read
    run.skip(~_strip_of(run, "x"), _GATES["strip"][1])
    return _strip_of(run, "y")


def _exp_holds(run: _Run, fact: str) -> np.ndarray:
    gaps = [getattr(pair, fact) for pair in run.pairs]
    run.gaps.update(zip(run.open.tolist(), gaps))
    return np.array(gaps) <= GATE_TOL


def _each(run: _Run, test) -> np.ndarray:
    return np.array([test(pair) for pair in run.pairs], dtype=bool)


# Hypothesis gates: name -> (test on the open pairs of a run, note of the
# skipped report). A strip gate reads a decomposition, so a normality gate
# must precede it.
_GATES = {
    "normal": (lambda r: _each(r, lambda p: p.normal_x and p.normal_y),
               "inputs must both be normal"),
    "normal_x": (lambda r: _each(r, lambda p: p.normal_x),
                 "X must be normal"),
    "normal_y": (lambda r: _each(r, lambda p: p.normal_y),
                 "Y must be normal"),
    "hermitian_x": (lambda r: r.array("hermitian_x"),
                    "X must be self-adjoint"),
    "strip": (_both_in_strip,
              "spectra must lie in the closed strip |Im z| <= pi"),
    "strip_x": (lambda r: _strip_of(r, "x"),
                "spectrum of X must lie in |Im z| <= pi"),
    "strip_y": (lambda r: _strip_of(r, "y"),
                "spectrum of Y must lie in |Im z| <= pi"),
    "exp": (lambda r: _exp_holds(r, "exp_residual"),
            "exponentials differ; hypothesis not met"),
    "exp_i": (lambda r: _exp_holds(r, "exp_i_residual"),
              "exp(iX) and exp(Y) differ; hypothesis not met"),
}


def _chunkwise(check):
    """Let ``check(chunk)`` take a list of pairs, or one pair, for which
    it returns the report or raises."""
    @wraps(check)
    def call(pairs):
        if isinstance(pairs, PairAnalysis):
            return _unwrap(check(_Chunk([pairs]))[0])
        return check(pairs if isinstance(pairs, _Chunk) else _Chunk(pairs))
    return call


def _gated(*steps):
    """Declare a check's hypotheses, tested in order over the chunk: a
    ``_GATES`` name, or a step that skips or ends pairs itself. The body
    then returns the rows (:meth:`_Run.rows`) of the pairs left; a report
    passes when every residual is within its tolerance."""
    def decorate(body):
        name = body.__name__.removeprefix("check_")

        @_chunkwise
        @wraps(body)
        def check(chunk: _Chunk) -> list:
            run = _Run(name, chunk)
            for step in steps + (body,):
                if not len(run.open):
                    break
                if step is body:
                    for i, (found, bounds, notes) in zip(run.open.tolist(),
                                                         body(run)):
                        residuals, tols = run.gate(i)
                        residuals.update(found)
                        tols.update(bounds)
                        run.entries[i] = CheckReport(
                            check_name=name, hypothesis_met=True,
                            passed=all(residuals[k] <= tols[k]
                                       for k in residuals),
                            residuals=residuals, tolerances=tols, notes=notes)
                elif step in _GATES:
                    test, note = _GATES[step]
                    run.skip(~test(run), note)
                else:
                    step(run)
            return run.entries
        return check
    return decorate


def run_check(name: str, pair: PairAnalysis) -> CheckReport:
    """Run the registered check ``name`` on a pair: the chunk of one.

    ``check_<name>`` is looked up in this module when called, so a
    rebinding of it (such as a tracing wrapper) is the one that runs.
    """
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}")
    return globals()[f"check_{name}"](pair)


def run_checks(names, pairs) -> list:
    """Run each named check once over the chunk ``pairs``: each pair's
    reports, in the order of ``names``. Raises what looping over each
    pair, then each check, would raise first; ``check_<name>`` is looked
    up as :func:`run_check` does."""
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}")
    chunk = _Chunk(pairs)
    columns = [globals()[f"check_{name}"](chunk) for name in names]
    return [[_unwrap(entry) for entry in row] for row in zip(*columns)]


@_gated("normal", "exp")
def check_real_part(run: _Run):
    """Re(X) = Re(Y) whenever X, Y are normal with equal exponentials."""
    return run.rows({"real_part": run.array("real_part_residual")})


def _interior_region_family(lam_x: np.ndarray, lam_y: np.ndarray,
                            start: np.ndarray, scales: np.ndarray):
    """Regions isolating each interior eigenvalue of X, per row of the
    (k, n) column stacks: ``(centres, radius, half, disc, rect)``. Row i
    has the disc ``Points((centres[i, j],), radius[i])`` where
    ``disc[i, j]`` (j starts a cluster of X off the strip boundary) and
    the closed square ``Rect`` of half-width ``half[i, j]`` where
    ``rect[i, j]``, with edges clear of every eigenvalue and the strip
    boundary."""
    margin = 10 * BOUNDARY_TOL
    radius = CLUSTER_TOL * np.maximum(1.0, scales)
    # gaps[i, j]: distance from eigenvalue j of X to the nearest one of X
    # or Y farther than the merge radius (1.0 if there is none)
    d = lam_x[:, :, None] - np.concatenate((lam_x, lam_y), axis=1)[:, None, :]
    dist = np.hypot(d.real, d.imag)  # equals abs() of each complex difference
    far = dist > radius[:, None, None]
    gaps = np.where(far.any(axis=2), np.where(far, dist, np.inf).min(axis=2),
                    1.0)
    room = math.pi - np.abs(lam_x.imag)
    disc = (room > margin) & start  # boundary eigenvalues are not targets
    half = np.minimum(np.minimum(gaps / 3.0, room / 2.0), 0.5)
    return lam_x, radius, half, disc, disc & (half > margin)


def _isolating_masks(z: np.ndarray, family) -> np.ndarray:
    """Membership of each row of points ``z`` (k, m) in its row's regions
    by the rules of ``Points`` and ``Rect``, as (k, 2n, m) masks: disc
    slots, then square slots. Square edges are included, so no point is
    ambiguous."""
    centres, radius, half = family[:3]
    d = z[:, None, :] - centres[:, :, None]
    discs = np.hypot(d.real, d.imag) <= radius[:, None, None]
    c, h, re, im = centres[:, :, None], half[:, :, None], z.real, z.imag
    squares = True
    for x, edge, sign in ((re, c.real - h, 1.0), (re, c.real + h, -1.0),
                          (im, c.imag - h, 1.0), (im, c.imag + h, -1.0)):
        squares = squares & _edge_status(x[:, None, :], edge, True, sign)[0]
    return np.concatenate((discs, squares), axis=1)


def _interior_measures(cols_x: _Columns, cols_y: _Columns, idx: np.ndarray,
                       scales: np.ndarray) -> np.ndarray:
    """For each pair ``idx[j]``, the largest ||E_X(O) - E_Y(O)||_F over its
    isolating family, or 0.0 when the family is empty; no projection is
    formed.

    For orthogonal projections P and Q,
    ||P - Q||^2 = ||(I - Q)P||^2 + ||(I - P)Q||^2 (Stewart & Sun, 1990,
    ch. I.5). The bases V_x and V_y must be unitary, as ``normal_eig``
    builds them from ``eigh``. Then, with E_ij = |(V_y* V_x)_ij|^2 and
    S, S' the eigenvector columns of X and of Y that O selects, the first
    term is the sum of E_ij over j in S, i not in S', and the second the
    sum over i in S', j not in S. Every term is non-negative, so nothing
    cancels, unlike the trace form k_x + k_y - 2||V_y,S'* V_x,S||^2.
    Pairs with equally many regions share products, each as if alone.
    """
    lam_x, lam_y = cols_x.lam[idx], cols_y.lam[idx]
    family = _interior_region_family(lam_x, lam_y, cols_x.start[idx], scales)
    regions = np.concatenate(family[3:], axis=1)
    # 0/1 membership of each eigenvector column, one row per region slot
    mx, my = _isolating_masks(lam_x, family), _isolating_masks(lam_y, family)
    g = dagger(cols_y.v[idx]) @ cols_x.v[idx]
    e = g.real ** 2 + g.imag ** 2
    counts = regions.sum(axis=1)
    # each row's regions first, discs before squares, each in column order
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


@_gated("normal", "strip", "exp")
def check_spectral_agreement(run: _Run):
    """Spectral measures of X and Y agree inside the open strip, their
    boundary-line projections have equal sums, and the real parts match,
    exactly when the exponentials coincide (both directions reported).

    ``interior_measure`` is the largest ||E_X(O) - E_Y(O)||_F over
    regions O isolating each interior eigenvalue, taken from the overlap
    matrix V_y* V_x (see :func:`_interior_measures`).
    """
    chunk = run.chunk
    interior = _interior_measures(chunk.columns("x"), chunk.columns("y"),
                                  run.open, run.array("norm_x"))
    (top_x, bottom_x), (top_y, bottom_y) = chunk.lines("x"), chunk.lines("y")
    boundary = _frob_stack(run.take(top_x + bottom_x)
                           - run.take(top_y + bottom_y))
    names = ("interior_measure", "boundary_sum", "real_part")
    return run.rows(dict(zip(names, (interior, boundary,
                                     run.array("real_part_residual")))),
                    dict.fromkeys(names, [p.check_tol * chunk.n
                                          for p in run.pairs]),
                    "equality of exponentials re-verified against the "
                    "measure/real-part conditions (converse direction "
                    "included)")


def _read_moduli(*names: str):  # a failed modulus ends its pair
    def step(run: _Run) -> None:
        values, errors = [], []
        for pair in run.pairs:
            try:
                values.append([getattr(pair, name) for name in names])
                errors.append(None)
            except NormLogError as exc:
                errors.append(exc)
        run.end(errors)
        run.moduli = [_stack(m) for m in zip(*values)]
    return step


@_gated("normal", "strip", "exp", _read_moduli("modulus_x", "modulus_y"))
def check_modulus_equal(run: _Run):
    """|X| = |Y| for normal X, Y with spectra in the strip and e^X = e^Y."""
    mx, my = run.moduli
    return run.rows({"modulus": _rel(_frob_stack(mx - my),
                                     run.array("norm_x"))})


@_gated("normal_x", "strip_x", "exp", _read_moduli("modulus_x"))
def check_modulus_commute(run: _Run):
    """|X| commutes with Y for normal X (spectrum in the strip) and any
    bounded Y with e^X = e^Y."""
    (mx,) = run.moduli
    r = _rel(_frob_stack(commutator(mx, run.take(run.chunk.y))),
             run.array("norm_x") * run.array("norm_y"))
    return run.rows({"modulus_commutator": r})


def _no_boundary_conjugates(run: _Run) -> None:
    """Skip the pairs whose X has a conjugate pair on the strip boundary,
    away from the corners +/- i*pi."""
    lam = run.take(run.chunk.columns("x").lam)
    radius = CLUSTER_TOL * np.maximum(1.0, run.array("norm_x"))
    boundary = ~(math.pi - np.abs(lam.imag) > BOUNDARY_TOL)
    corner = ((np.hypot(lam.real, lam.imag - math.pi) <= BOUNDARY_TOL)
              | (np.hypot(lam.real, lam.imag + math.pi) <= BOUNDARY_TOL))
    d = lam.conj()[:, :, None] - lam[:, None, :]
    conjugate = (np.hypot(d.real, d.imag) <= radius[:, None, None]).any(axis=2)
    hit = boundary & ~corner & conjugate
    run.skip(hit.any(axis=1),
             lambda j: (f"conjugate pair on the strip boundary at "
                        f"{complex(lam[j, hit[j].argmax()]):.6g}; "
                        f"hypothesis not met"))


@_gated("normal_x", "strip_x", "exp", _no_boundary_conjugates)
def check_square_commute(run: _Run):
    """X^2 commutes with Y when the boundary spectrum of X (apart from
    the two corner points +/- i*pi) is free of conjugate pairs."""
    x, y = run.take(run.chunk.x), run.take(run.chunk.y)
    # ** 2 of Python floats (libm's pow), as the lone residual took it
    squares = np.array([v ** 2 for v in run.array("norm_x").tolist()])
    r = _rel(_frob_stack(commutator(x @ x, y)), squares * run.array("norm_y"))
    return run.rows({"square_commutator": r})


def _window(run: _Run) -> None:
    """Classify the spectra over each pair's window as
    ``strip_projections`` does (outside: skip; ambiguous: raise), keeping
    X's and Y's column weights."""
    cols_x, cols_y = run.columns("x"), run.columns("y")
    windows = [(p.k_lo, p.k_hi) for p in run.pairs]
    outcomes: list = [None] * len(windows)
    run.weights = np.zeros((2,) + cols_x.lam.shape, dtype=complex)
    for k_lo, k_hi in set(windows):
        same = [j for j, w in enumerate(windows) if w == (k_lo, k_hi)]
        if k_hi < k_lo:
            for j in same:
                outcomes[j] = ValueError("k_hi must be >= k_lo")
            continue
        idx = run.open[same]
        (x_strip, x_line), (y_strip, y_line), errors = _classify_window(
            cols_x.lam[idx], cols_y.lam[idx], k_lo, k_hi)
        run.weights[0, idx] = _window_weights(x_strip, x_line, k_lo, k_hi)
        run.weights[1, idx] = _window_weights(y_strip, y_line, k_lo, k_hi)
        for j, error in zip(same, errors):
            outcomes[j] = (_Unmet(f"spectrum outside branch window "
                                  f"[{k_lo}, {k_hi}]: {error}")
                           if isinstance(error, SpectrumOutOfRange) else error)
    run.end(outcomes)


@_gated("normal", "exp", _window)
def check_difference_formula(run: _Run):
    """X - Y equals the weighted sum of strip and boundary-line
    projections over the pair's branch window [k_lo, k_hi],
    ``strip_projections(...).difference()``. A spectrum outside the
    window fails the hypothesis; an ambiguous one raises."""
    chunk, take = run.chunk, run.take
    diff = (_combination_stack(take(chunk.columns("x").v), take(run.weights[0]))
            - _combination_stack(take(chunk.columns("y").v),
                                 take(run.weights[1])))
    r = _rel(_frob_stack((take(chunk.x) - take(chunk.y)) - diff),
             run.array("norm_x"))
    pairs = run.pairs
    return run.rows({"difference": r},
                    {"difference": [p.check_tol * chunk.n for p in pairs]},
                    [f"branch window [{p.k_lo}, {p.k_hi}]" for p in pairs])


def _one_line_empty(run: _Run) -> None:
    top, bottom = _on_lines(run.take(run.chunk.columns("x").lam))
    run.skip(top.any(axis=1) & bottom.any(axis=1),
             "spectrum of X meets both boundary lines; no case applies")


@_gated("normal", "strip", "exp", _one_line_empty)
def check_corollary_cases(run: _Run):
    """Vanishing boundary-line projections of X force commutation:
    no spectrum on Im z = pi gives XY = YX with X - Y = -2*pi*i*F1, the
    mirror case on Im z = -pi gives X - Y = +2*pi*i*F{-1}, and both
    together force X = Y."""
    chunk, take = run.chunk, run.take
    empty = [(~m.any(axis=1)).tolist()
             for m in _on_lines(take(chunk.columns("x").lam))]
    f1, fm1 = (take(f) for f in chunk.lines("y"))
    xy = take(chunk.x) - take(chunk.y)
    cases = (("difference_top", "top line empty", xy + TWO_PI * 1j * f1),
             ("difference_bottom", "bottom line empty", xy - TWO_PI * 1j * fm1),
             ("equality", "both empty: X = Y", xy))
    norm_x = run.array("norm_x")
    found = [_rel(_frob_stack(m), norm_x).tolist() for _, _, m in cases]
    commutators = run.array("commutator_residual").tolist()
    rows = []
    for j, pair in enumerate(run.pairs):
        top, bottom = empty[0][j], empty[1][j]
        residuals, notes = {"commutator": commutators[j]}, []
        for holds, (key, note, _), values in zip(
                (top, bottom, top and bottom), cases, found):
            if holds:
                notes.append(note)
                residuals[key] = values[j]
        rows.append((residuals, dict.fromkeys(residuals, pair.check_tol),
                     "; ".join(notes)))
    return rows


def _congruence_reports(chunk: _Chunk) -> list:
    """Each pair's congruence report (or X's error): every eigenvalue gap
    against its nearest nonzero multiple of 2*pi, one array."""
    cols = chunk.columns("x")
    gap = abs(cols.lam.real[:, :, None] - cols.lam.real[:, None, :])
    # np.rint rounds half to even, as round does
    k = np.rint(gap / TWO_PI)
    nearest = np.where(k != 0, abs(gap - TWO_PI * k), np.inf).min(axis=(1, 2))
    real = ~(abs(cols.lam.imag) > BOUNDARY_TOL).any(axis=1)
    out = []
    for pair, error, real_x, near in zip(chunk.pairs, cols.errors,
                                         real.tolist(), nearest.tolist()):
        if error or not real_x:
            out.append(error or _fail("congruence_free", "input must be "
                                      "self-adjoint (real spectrum)"))
            continue
        radius = CLUSTER_TOL * max(1.0, pair.dec_x.norm)
        out.append(CheckReport(
            check_name="congruence_free", passed=near > radius,
            hypothesis_met=True,
            residuals={"nearest_congruence": 0.0 if math.isinf(near) else near},
            tolerances={"nearest_congruence": radius},
            notes="passes when every nonzero 2*pi-translate of the spectrum "
                  "stays farther than the cluster radius from the spectrum"))
    return out


@_chunkwise
def check_congruence_free(chunk: _Chunk) -> list:
    """No two eigenvalues of a self-adjoint X differ by a nonzero
    multiple of 2*pi (within the cluster radius). Y is not read.

    The report is computed once per pair and shared with
    :func:`check_double_commutant`, whose hypothesis it is.
    Raises NotNormal when X is not normal.
    """
    return _facts(chunk, "congruence")


def _congruence_free(run: _Run) -> None:  # and a normal Y decomposes
    reports = [_facts(run.chunk, "congruence")[i] for i in run.open.tolist()]
    run.end([r if isinstance(r, Exception) else None for r in reports])
    run.skip(_each(run, lambda p: not p.congruence.passed),
             "spectrum is not 2*pi-congruence-free; hypothesis not met")
    errors = run.chunk.columns("y").errors
    run.end([errors[i] if p.normal_y else None
             for i, p in zip(run.open.tolist(), run.pairs)])


def _projection_distances(cols_x: _Columns, cols_y: _Columns,
                          idx: np.ndarray) -> np.ndarray:
    """For each pair ``idx[j]``, the largest distance of an
    eigenprojection of X to {Y}'', bit for bit ``dec_y.
    bicommutant_distance(dec_x.projection(c))``: stacked calls of one
    multiplicity, at most max(1, STACK_ENTRIES // n^2) projections each.
    """
    n = cols_x.v.shape[1]
    pos, first = np.nonzero(cols_x.start[idx])
    mult = np.diff(np.append(pos * n + first, len(idx) * n))
    worst = np.zeros(len(idx))
    size = max(1, STACK_ENTRIES // n ** 2)
    for m in sorted(set(mult.tolist())):
        same = np.flatnonzero(mult == m)
        for block in (same[lo:lo + size] for lo in range(0, len(same), size)):
            p = idx[pos[block]]
            # the cluster's columns, C-ordered as np.stack lays slices out
            cols = np.ascontiguousarray(cols_x.v[
                p[:, None], :, first[block, None] + np.arange(m)].swapaxes(1, 2))
            d = _span_distances(cols_y.v[p], cols_y.label[p],
                                cols @ dagger(cols))
            np.maximum.at(worst, pos[block], d)
    return worst


@_gated("hermitian_x", "exp_i", _congruence_free)
def check_double_commutant(run: _Run):
    """Every spectral projection of a congruence-free self-adjoint X lies
    in the double commutant of Y when exp(iX) = exp(Y); in particular X
    and Y commute.

    For a normal Y, {Y}'' is the span of Y's eigenprojections, so the
    residual is the distance to that span; a non-normal Y needs the
    commutant basis.
    """
    chunk, pairs = run.chunk, run.pairs
    normal = _each(run, lambda p: p.normal_y)
    worst = np.zeros(len(pairs))
    worst[normal] = _projection_distances(
        chunk.columns("x"), chunk.columns("y"), run.open[normal])
    for j in np.flatnonzero(~normal).tolist():
        y, dec = pairs[j].y, pairs[j].dec_x
        basis = commutant_basis(y)
        worst[j] = max(in_double_commutant(dec.projection(c), y,
                                           basis=basis)[1]
                       for c in range(len(dec.eigenvalues)))
    return run.rows({"double_commutant": worst,
                     "commutator": run.array("commutator_residual")},
                    notes=_FINITE_DIM_NOTE)


def _odd_pi_hits(run: _Run) -> np.ndarray:
    """How many clusters of X lie on an odd multiple of pi."""
    cols = run.columns("x")
    radius = CLUSTER_TOL * np.maximum(1.0, run.array("norm_x"))
    on = _odd_pi_distance(run.take(cols.lam).real) <= radius[:, None]
    return (on & run.take(cols.start)).sum(axis=1)


def _at_most_one_odd_pi(run: _Run) -> None:
    hits = _odd_pi_hits(run)
    run.skip(hits > 1, lambda j: (f"{hits[j]} distinct odd-pi eigenvalues; "
                                  "hypothesis not met"))


@_gated("hermitian_x", "normal_y", "strip_y", "exp_i", _at_most_one_odd_pi)
def check_one_boundary_eigenvalue(run: _Run):
    """X and Y commute when exp(iX) = exp(Y), Y is normal with spectrum
    in the strip, and at most one eigenvalue of the self-adjoint X is an
    odd multiple of pi."""
    return run.rows({"commutator": run.array("commutator_residual")},
                    notes=_FINITE_DIM_NOTE)


def _no_odd_pi(run: _Run) -> None:
    run.skip(_odd_pi_hits(run) > 0, "an eigenvalue of X is an odd multiple "
                                    "of pi; hypothesis not met")


@_gated("hermitian_x", "normal_y", "strip_y", "exp_i", _no_odd_pi)
def check_y_in_bicommutant_of_exp(run: _Run):
    """Y lies in the double commutant of exp(iX) when exp(iX) = exp(Y),
    Y is normal with spectrum in the strip, and no eigenvalue of the
    self-adjoint X is an odd multiple of pi. Also verifies the folded
    form of X reproduces Y (through multiplication by i)."""
    cols = run.chunk.columns("x")
    lam, v, y = run.take(cols.lam), run.take(cols.v), run.take(run.chunk.y)
    # exp(iX) = V diag(e^{i lam}) V*, so {exp(iX)}'' is spanned by sums of
    # the projections of X that share a value e^{i lam}: values that stay
    # apart keep X's clusters, the others merge as normal_eig would merge
    values = np.exp(1j * lam)
    scale = np.sqrt((values.real ** 2 + values.imag ** 2).sum(axis=1))
    apart = _isolated(values, CLUSTER_TOL * np.maximum(1.0, scale))
    labels = run.take(cols.label).copy()
    for j in np.flatnonzero(~apart).tolist():
        labels[j] = run.pairs[j].dec_x._group_labels(
            lambda z: cmath.exp(1j * z))
    folded = _combination_stack(v, 1j * _fold_branch(lam.real)[1])
    return run.rows({"double_commutant": _span_distances(v, labels, y),
                     "fold_identity": _rel(_frob_stack(folded - y),
                                           run.array("norm_y"))},
                    notes=_FINITE_DIM_NOTE)


def _split(run: _Run) -> None:
    """Split each Y; a non-normal or singular e^Y skips, others raise."""
    splits = _kurepa_splits(run.take(run.chunk.y),
                            [p._attempt_exp_y for p in run.pairs])
    run.splits = [s for s in splits if not isinstance(s, Exception)]
    run.end([_Unmet(f"hypothesis not met: {s}")
             if isinstance(s, (ExpNotNormal, Singular))
             else s if isinstance(s, Exception) else None for s in splits])


@_gated(_split)
def check_kurepa(run: _Run):
    """The principal-log splitting of Y reconstructs it, commutes, and
    carries integer branch weights whenever exp(Y) is normal. X is not
    read."""
    splits = run.splits
    n0, w = (_stack([getattr(s, a) for s in splits]) for a in ("n0", "w"))
    r = _rel(_frob_stack((n0 + TWO_PI * 1j * w) - run.take(run.chunk.y)),
             run.array("norm_y"))
    return run.rows(
        {"reconstruction": r,
         "commute": [s.commute_residual for s in splits],
         "integer_spectrum": [s.integer_spectrum_residual for s in splits]},
        {"integer_spectrum": INTEGER_TOL})
