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
from functools import wraps

import numpy as np

from .config import (BOUNDARY_TOL, CHECK_TOL, CLUSTER_TOL, GATE_TOL, HERM_TOL,
                     INTEGER_TOL, STACK_ENTRIES)
from .errors import ExpNotNormal, NotNormal, Singular, SpectrumOutOfRange
from .linalg import (_frob_stack, _modulus_stack, _same_rows,
                     as_square_matrix, commutant_basis, commutator, dagger,
                     in_double_commutant, re_part)
from .logs import TWO_PI, _exp_gaps, _exp_stack, _kurepa_splits, _unwrap
from .report import CheckReport
from .spectral import (_classify_window, _combination_stack,
                       _decompose_stack, _Decompositions, _edge_status,
                       _fold_branch, _merged, _near, _odd_pi_distance,
                       _select_stack, _span_distances, _window_weights)

# The check registry: ``check_<name>`` exists for every name here.
CHECK_NAMES = (
    "real_part", "spectral_agreement", "modulus_equal", "modulus_commute",
    "square_commute", "corollary_cases", "difference_formula",
    "congruence_free", "double_commutant", "one_boundary_eigenvalue",
    "y_in_bicommutant_of_exp", "kurepa",
)

__all__ = ["CHECK_NAMES", "PairAnalysis", "run_check",
           "run_checks", *(f"check_{name}" for name in CHECK_NAMES)]

_FINITE_DIM_NOTE = ("verified on finite-dimensional input; the unbounded "
                    "self-adjoint case is outside this toolkit's scope")


def _rel(values, denominators) -> np.ndarray:
    return values / np.maximum(1.0, denominators)


def _stack(arrays) -> np.ndarray:  # one array becomes a view, not a copy
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class PairAnalysis:
    """One instance (X, Y): the verifier's input.

    A pair holds its operands and settings only. ``check_tol`` is the
    pass/fail threshold of its checks; every other threshold is a
    constant of :mod:`normlog.config`. ``[k_lo, k_hi]`` is the branch
    window of :func:`check_difference_formula`. X and Y of different
    sizes raise ValueError. Every fact its checks share lives on a
    chunk, which computes each once for all its rows (:func:`run_checks`
    makes one per call); a check run on the lone pair reads its own
    chunk of one, made on first use, so checks run one after another
    never repeat a decomposition or an exponential.
    """

    __slots__ = ("x", "y", "check_tol", "k_lo", "k_hi", "_one")

    def __init__(self, x, y, *, check_tol: float = CHECK_TOL,
                 k_lo: int = -1, k_hi: int = 0):
        self.x = as_square_matrix(x)
        self.y = as_square_matrix(y)
        if self.x.shape != self.y.shape:
            raise ValueError(f"X and Y must be of one size, got "
                             f"{len(self.x)}x{len(self.x)} and "
                             f"{len(self.y)}x{len(self.y)}")
        self.check_tol = check_tol
        self.k_lo = k_lo
        self.k_hi = k_hi
        self._one = None

    @property
    def _chunk(self) -> _Chunk:
        if self._one is None:
            self._one = _Chunk.of([self])
        return self._one


def _normal(chunk: _Chunk, side: str) -> np.ndarray:
    # normal_eig tests normality first, so NotNormal in a decomposition
    # row is exactly is_normal's verdict
    return np.array([not isinstance(e, NotNormal)
                     for e in chunk.columns(side).errors], dtype=bool)


# The chunk's scalar facts, each one array over its pairs.
_SCALARS = {
    "normal_x": lambda c: _normal(c, "x"),
    "normal_y": lambda c: _normal(c, "y"),
    "norm_x": lambda c: _frob_stack(c.x),
    "norm_y": lambda c: _frob_stack(c.y),
    "commutator_residual": lambda c: _rel(
        _frob_stack(commutator(c.x, c.y)),
        c.array("norm_x") * c.array("norm_y")),
    "real_part_residual": lambda c: _rel(
        _frob_stack(re_part(c.x) - re_part(c.y)), c.array("norm_x")),
    "hermitian_x": lambda c: (_frob_stack(c.x - dagger(c.x))
                              <= HERM_TOL * np.maximum(1.0, c.array("norm_x"))),
}

# The operands each check reads: those it decomposes (a normality gate
# reads a decomposition) and those whose modulus it takes. Every check
# not listed decomposes X and Y.
_READS = {"modulus_equal": (("x", "y"), ("x", "y")),
          "modulus_commute": (("x",), ("x",)),
          "square_commute": (("x",), ()), "congruence_free": (("x",), ()),
          "kurepa": (("exp_y",), ())}


class _Chunk:
    """Pairs of one dimension checked together, and the one owner of
    their facts: the operand stacks ``x`` and ``y``, each row's check
    threshold ``tols`` and branch window ``windows`` (``(k_lo, k_hi)``),
    and one store of each operand's decompositions (its failed rows'
    errors kept per row) and moduli, each scalar fact, the congruence
    reports, e^Y and each equation's exponential gaps, each computed
    once for all its rows in stacked calls, bit for bit the lone ones.
    ``exp_y`` (each row's e^Y) and ``gaps`` (its ``(equation,
    residual)``), measured on these same arrays as a build's self-test
    does, are kept if every row has one. A residual read from a file
    must not be given."""

    def __init__(self, x, y, tols, windows, exp_y=None, gaps=None):
        self.x, self.y = x, y
        self.n = x.shape[1]
        self.tols, self.windows = list(tols), list(windows)
        self._cache: dict = {}
        self._exp_y = (exp_y if exp_y is not None
                       and all(e is not None for e in exp_y) else None)
        for equation in {eq for eq, _ in gaps or ()}:
            given = [gap for eq, gap in gaps if eq == equation]
            if len(given) == len(self) and None not in given:
                self._cache[equation] = np.array(given)

    @classmethod
    def of(cls, pairs) -> _Chunk:
        """The chunk of a list of :class:`PairAnalysis`, given no facts.
        Pairs of different sizes raise ValueError."""
        n = len(pairs[0].x)
        other = next((len(p.x) for p in pairs if len(p.x) != n), n)
        if other != n:
            raise ValueError(f"the pairs of a chunk must be of one size, "
                             f"got {n}x{n} and {other}x{other}")
        return cls(_stack([p.x for p in pairs]), _stack([p.y for p in pairs]),
                   [p.check_tol for p in pairs],
                   [(p.k_lo, p.k_hi) for p in pairs])

    def __len__(self) -> int:
        return len(self.x)

    # an exponential that overflows holds inf or NaN, and its gap is not
    # finite: the exponential gate skips it, so numpy does not warn
    @property
    @np.errstate(over="ignore", invalid="ignore")
    def exp_y(self) -> np.ndarray:
        return self._cached("exp_y", lambda: _stack(self._exp_y)
                            if self._exp_y else _exp_stack(self.y))

    @np.errstate(over="ignore", invalid="ignore")
    def exp_gaps(self, equation: str) -> np.ndarray:
        return self._cached(equation, lambda: np.array(_exp_gaps(_exp_stack(
            1j * self.x if equation == "exp(iX)=exp(Y)" else self.x),
            self.exp_y)))

    @property
    def congruence(self) -> list:
        return self._cached("congruence", lambda: _congruence_reports(self))

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def array(self, name: str) -> np.ndarray:
        return self._cached(name, lambda: _SCALARS[name](self))

    def analyse(self, decs=(), moduli=()) -> None:
        """Decompose the operands ``decs`` names ("x", "y", "exp_y") and
        take the moduli of those ``moduli`` names ("x", "y") that the
        chunk lacks: one stacked call each, pair-major, each result bit
        for bit what a lone pair computes. A pair's operands that
        :func:`~normlog.linalg._same_rows` finds byte-equal (an
        InteriorPair's X and Y) are analysed once and share the
        result."""
        for kind, sides, analyse in (("columns", decs, _decompose_stack),
                                     ("moduli", moduli, _modulus_stack)):
            sides = sorted({s for s in sides if (kind, s) not in self._cache})
            if not sides:
                continue
            stacks = [getattr(self, side) for side in sides]
            # owner[i, s]: the first of pair i's operands byte-equal to
            # its operand s; the owners alone are analysed
            owner = np.tile(np.arange(len(sides)), (len(self), 1))
            for s in range(1, len(sides)):
                for t in range(s):
                    same = _same_rows(stacks[t], stacks[s])
                    owner[same, s] = owner[same, t]
            own = owner == np.arange(len(sides))
            slots = (np.cumsum(own) - 1).reshape(own.shape)[
                np.arange(len(self))[:, None], owner]
            results = analyse(np.stack(stacks, axis=1)[own])
            for s, side in enumerate(sides):
                rows = slots[:, s].tolist()
                self._cache[kind, side] = (
                    results.rows(rows) if kind == "columns"
                    else [results[r] for r in rows])

    def columns(self, side: str) -> _Decompositions:
        """The decompositions of operand ``side`` ("x", "y" or "exp_y")."""
        if ("columns", side) not in self._cache:
            self.analyse(decs=(side,))
        return self._cache["columns", side]

    def moduli(self, side: str) -> list:
        if ("moduli", side) not in self._cache:
            self.analyse(moduli=(side,))
        return self._cache["moduli", side]

    def lines(self, side: str) -> tuple:
        """The projections onto the lines Im z = pi and -pi, stacked."""
        cols = self.columns(side)
        return self._cached(("lines", side), lambda: tuple(
            _select_stack(cols.v, mask) for mask in _on_lines(cols.lam)))


def _on_lines(lam: np.ndarray) -> tuple:
    """The points within ``BOUNDARY_TOL`` of the lines Im z = pi and -pi."""
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

    def each(self, values: list) -> list:  # the open pairs' entries
        return [values[i] for i in self.open.tolist()]

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

    def columns(self, side: str) -> _Decompositions:
        """The decompositions of X or of Y, ending the pairs that failed
        them."""
        cols = self.chunk.columns(side)
        self.end([cols.errors[i] for i in self.open.tolist()])
        return cols

    def rows(self, found: dict, bounds=None, notes="") -> list:
        """The open pairs' rows: residual arrays, their bounds (a list or
        a value; the check threshold by default) and notes (one or a
        list)."""
        k = len(self.open)
        tol = self.each(self.chunk.tols)
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


def _exp_holds(run: _Run, equation: str) -> np.ndarray:
    gaps = run.take(run.chunk.exp_gaps(equation))
    finite = np.isfinite(gaps)  # a skip keeps no gap that overflowed
    run.skip(~finite, "an exponential is not finite; hypothesis not met")
    gaps = gaps[finite]
    run.gaps.update(zip(run.open.tolist(), gaps.tolist()))
    return gaps <= GATE_TOL


# Hypothesis gates: name -> (test on the open pairs of a run, note of the
# skipped report). A strip gate reads a decomposition, so a normality gate
# must precede it.
_GATES = {
    "normal": (lambda r: r.array("normal_x") & r.array("normal_y"),
               "inputs must both be normal"),
    "normal_x": (lambda r: r.array("normal_x"), "X must be normal"),
    "normal_y": (lambda r: r.array("normal_y"), "Y must be normal"),
    "hermitian_x": (lambda r: r.array("hermitian_x"),
                    "X must be self-adjoint"),
    "strip": (_both_in_strip,
              "spectra must lie in the closed strip |Im z| <= pi"),
    "strip_x": (lambda r: _strip_of(r, "x"),
                "spectrum of X must lie in |Im z| <= pi"),
    "strip_y": (lambda r: _strip_of(r, "y"),
                "spectrum of Y must lie in |Im z| <= pi"),
    "exp": (lambda r: _exp_holds(r, "exp(X)=exp(Y)"),
            "exponentials differ; hypothesis not met"),
    "exp_i": (lambda r: _exp_holds(r, "exp(iX)=exp(Y)"),
              "exp(iX) and exp(Y) differ; hypothesis not met"),
}


def _chunkwise(check):
    """Let ``check(chunk)`` take a list of pairs, or one pair, for which
    it returns the report or raises."""
    @wraps(check)
    def call(pairs):
        if isinstance(pairs, PairAnalysis):
            return _unwrap(check(pairs._chunk)[0])
        if isinstance(pairs, _Chunk):
            return check(pairs)
        return check(_Chunk.of(pairs)) if len(pairs) else []
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
    reports, in the order of ``names``. The chunk's analysis is made
    once: the operands the checks read are first decomposed in one
    stacked call, and their moduli taken in one more
    (:meth:`_Chunk.analyse`). Raises what looping over each pair, then
    each check, would raise first; ``check_<name>`` is looked up as
    :func:`run_check` does."""
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}")
    return _run_checks(names, _Chunk.of(pairs)) if len(pairs) else []


def _run_checks(names, chunk: _Chunk) -> list:
    """:func:`run_checks` over a chunk of known check names."""
    reads = [_READS.get(name, (("x", "y"), ())) for name in names]
    chunk.analyse(*({side for read in reads for side in read[k]}
                    for k in (0, 1)))
    columns = [globals()[f"check_{name}"](chunk) for name in names]
    return [[_unwrap(column[i]) for column in columns]
            for i in range(len(chunk))]


@_gated("normal", "exp")
def check_real_part(run: _Run):
    """Re(X) = Re(Y) whenever X, Y are normal with equal exponentials."""
    return run.rows({"real_part": run.array("real_part_residual")})


def _interior_region_family(lam_x: np.ndarray, lam_y: np.ndarray,
                            start: np.ndarray, scales: np.ndarray):
    """Regions isolating each interior eigenvalue of X, per row of the
    (k, n) column stacks: ``(centres, radius, half, disc, rect)``. Row i
    has the closed disc of radius ``radius[i]`` about ``centres[i, j]``
    where ``disc[i, j]`` (j starts a cluster of X off the strip
    boundary) and the closed square ``Rect`` of half-width ``half[i, j]``
    where ``rect[i, j]``, with edges clear of every eigenvalue and the
    strip boundary."""
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


def _isolating_masks(z: np.ndarray, family, row: np.ndarray,
                     slot: np.ndarray) -> np.ndarray:
    """Membership of the points of row ``row[s]`` of ``z`` (k, m) in region
    slot ``slot[s]`` of that row alone, as an (S, m) mask: a point is in a
    disc if the ``hypot`` of its difference from the centre is at most
    the radius, and in a square by ``Rect``'s rule; slot j < n is the disc
    of column j, slot n + j its square, whose edges are included (no
    point is ambiguous)."""
    centres, radius, half = family[:3]
    n = centres.shape[1]
    out = np.empty((len(slot), z.shape[1]), dtype=bool)
    disc = slot < n
    r, j = row[disc], slot[disc]
    c = centres[r, j][:, None]
    out[disc] = _near(z.real[r] - c.real, z.imag[r] - c.imag, radius[r, None])
    r, j = row[~disc], slot[~disc] - n
    c, h, re, im = (centres[r, j][:, None], half[r, j][:, None],
                    z.real[r], z.imag[r])
    square = True
    for x, edge, sign in ((re, c.real - h, 1.0), (re, c.real + h, -1.0),
                          (im, c.imag - h, 1.0), (im, c.imag + h, -1.0)):
        square = square & _edge_status(x, edge, True, sign)[0]
    out[~disc] = square
    return out


def _interior_measures(cols_x: _Decompositions, cols_y: _Decompositions,
                       idx: np.ndarray, scales: np.ndarray) -> np.ndarray:
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
    # each row's regions, discs before squares, each in column order; 0/1
    # membership of each eigenvector column, one row per region
    row, slot = np.nonzero(np.concatenate(family[3:], axis=1))
    mx, my = (_isolating_masks(z, family, row, slot) for z in (lam_x, lam_y))
    g = dagger(cols_y.v[idx]) @ cols_x.v[idx]
    e = g.real ** 2 + g.imag ** 2
    counts = np.bincount(row, minlength=len(idx))
    first = np.cumsum(counts) - counts
    out = np.zeros(len(idx))
    for r in set(counts.tolist()) - {0}:
        same = counts == r
        at = first[same, None] + np.arange(r)
        fx, fy = mx[at].astype(float), my[at].astype(float)
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
                    dict.fromkeys(names, [tol * chunk.n
                                          for tol in run.each(chunk.tols)]),
                    "equality of exponentials re-verified against the "
                    "measure/real-part conditions (converse direction "
                    "included)")


def _read_moduli(*sides: str):  # a failed modulus ends its pair
    def step(run: _Run) -> None:
        run.chunk.analyse(moduli=sides)
        found = [[run.chunk.moduli(side)[i] for side in sides]
                 for i in run.open.tolist()]
        errors = [next((m for m in ms if isinstance(m, Exception)), None)
                  for ms in found]
        run.end(errors)
        run.moduli = [_stack(m) for m in zip(*(
            ms for ms, error in zip(found, errors) if error is None))]
    return step


@_gated("normal", "strip", "exp", _read_moduli("x", "y"))
def check_modulus_equal(run: _Run):
    """|X| = |Y| for normal X, Y with spectra in the strip and e^X = e^Y."""
    mx, my = run.moduli
    return run.rows({"modulus": _rel(_frob_stack(mx - my),
                                     run.array("norm_x"))})


@_gated("normal_x", "strip_x", "exp", _read_moduli("x"))
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
    windows = run.each(run.chunk.windows)
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
    return run.rows({"difference": r},
                    {"difference": [tol * chunk.n
                                    for tol in run.each(chunk.tols)]},
                    [f"branch window [{k_lo}, {k_hi}]"
                     for k_lo, k_hi in run.each(chunk.windows)])


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
    for j, tol in enumerate(run.each(chunk.tols)):
        top, bottom = empty[0][j], empty[1][j]
        residuals, notes = {"commutator": commutators[j]}, []
        for holds, (key, note, _), values in zip(
                (top, bottom, top and bottom), cases, found):
            if holds:
                notes.append(note)
                residuals[key] = values[j]
        rows.append((residuals, dict.fromkeys(residuals, tol),
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
    for i, (error, real_x, near) in enumerate(zip(cols.errors, real.tolist(),
                                                  nearest.tolist())):
        if error or not real_x:
            out.append(error or _fail("congruence_free", "input must be "
                                      "self-adjoint (real spectrum)"))
            continue
        radius = CLUSTER_TOL * max(1.0, cols[i].norm)
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

    The reports are computed once per chunk and shared with
    :func:`check_double_commutant`, whose hypothesis they are.
    Raises NotNormal when X is not normal.
    """
    return list(chunk.congruence)


def _congruence_free(run: _Run) -> None:  # and a normal Y decomposes
    reports = run.each(run.chunk.congruence)
    run.end([r if isinstance(r, Exception) else None for r in reports])
    run.skip(np.array([not r.passed for r in reports
                       if not isinstance(r, Exception)]),
             "spectrum is not 2*pi-congruence-free; hypothesis not met")
    errors = run.chunk.columns("y").errors
    run.end([None if isinstance(errors[i], NotNormal) else errors[i]
             for i in run.open.tolist()])


def _projection_distances(cols_x: _Decompositions, cols_y: _Decompositions,
                          idx: np.ndarray) -> np.ndarray:
    """For each pair ``idx[j]``, the largest distance of an
    eigenprojection of X to {Y}'', the span of Y's eigenprojections (see
    :func:`_span_distances`): stacked calls of one multiplicity, at most
    max(1, STACK_ENTRIES // n^2) projections each.
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
    chunk = run.chunk
    normal = run.array("normal_y")
    worst = np.zeros(len(run.open))
    worst[normal] = _projection_distances(
        chunk.columns("x"), chunk.columns("y"), run.open[normal])
    for j, i in zip(np.flatnonzero(~normal).tolist(),
                    run.open[~normal].tolist()):
        y, dec = chunk.y[i], chunk.columns("x")[i]
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
    # the projections of X that share a value e^{i lam}, as cmath.exp
    # gives them: the values merge as normal_eig would merge them
    values = [cmath.exp(1j * z) for z in lam.ravel().tolist()]
    labels = _merged(np.array(values).reshape(lam.shape))
    folded = _combination_stack(v, 1j * _fold_branch(lam.real)[1])
    return run.rows({"double_commutant": _span_distances(v, labels, y),
                     "fold_identity": _rel(_frob_stack(folded - y),
                                           run.array("norm_y"))},
                    notes=_FINITE_DIM_NOTE)


def _split(run: _Run) -> None:
    """Split each Y; a non-normal, singular or overflowed e^Y skips."""
    decs = run.chunk.columns("exp_y")
    splits = _kurepa_splits(run.take(run.chunk.y),
                            [decs[i] for i in run.open.tolist()])
    run.splits = [s for s in splits if not isinstance(s, Exception)]
    run.end([_Unmet(f"hypothesis not met: {s}")
             if isinstance(s, (ExpNotNormal, Singular, SpectrumOutOfRange))
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
