"""Identity checks for pairs of matrix logarithms.

Each ``check_<name>`` verifies one consequence of the exponential
equation (exp(X) = exp(Y), or exp(iX) = exp(Y) for self-adjoint X) on a
concrete instance and returns a :class:`CheckReport`. Every check takes
one :class:`PairAnalysis`, which computes the facts the checks share
(normality, norms, spectral decompositions, exponentials, moduli) at
most once per pair. Preconditions act as hypothesis gates, named in the
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
                     INTEGER_TOL)
from .errors import (ExpNotNormal, NormLogError, NotNormal, Singular,
                     SpectrumOutOfRange)
from .linalg import (
    _modulus_stack,
    _same_bytes,
    as_square_matrix,
    commutant_basis,
    commutator,
    dagger,
    frob,
    in_double_commutant,
    modulus,
    re_part,
)
from .logs import TWO_PI, _exp_gap, _kurepa_split, exp_general
from .report import CheckReport
from .spectral import (
    HLine,
    SpectralDecomposition,
    _edge_status,
    _fold_branch,
    _odd_pi_distance,
    borel_calculus,
    normal_eig_stack,
    spectral_measure,
    strip_projections,
)

# The check registry: ``check_<name>`` exists for every name here.
CHECK_NAMES = (
    "real_part", "spectral_agreement", "modulus_equal", "modulus_commute",
    "square_commute", "corollary_cases", "difference_formula",
    "congruence_free", "double_commutant", "one_boundary_eigenvalue",
    "y_in_bicommutant_of_exp", "kurepa",
)

__all__ = ["CHECK_NAMES", "PairAnalysis", "decompose_pairs", "run_check",
           *(f"check_{name}" for name in CHECK_NAMES)]

_FINITE_DIM_NOTE = ("verified on finite-dimensional input; the unbounded "
                    "self-adjoint case is outside this toolkit's scope")


def _rel(value: float, *norms: float) -> float:
    denom = 1.0
    for n in norms:
        denom *= n
    return value / max(1.0, denom)


# Each exponential equation and the PairAnalysis property measuring it.
_EQUATIONS = {"exp(X)=exp(Y)": "exp_residual",
              "exp(iX)=exp(Y)": "exp_i_residual"}


def _unwrap(attempt) -> SpectralDecomposition:
    if isinstance(attempt, NormLogError):
        raise attempt
    return attempt


class PairAnalysis:
    """One instance (X, Y) and the facts its checks share.

    Each fact is computed on first use and kept for the life of the
    object, so the checks run on one pair never repeat a decomposition
    or an exponential. ``check_tol`` is the pass/fail threshold of its
    checks; every other threshold is a constant of :mod:`normlog.config`.
    ``[k_lo, k_hi]`` is the branch window of
    :func:`check_difference_formula`.

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

    @cached_property
    def norm_x(self) -> float:
        return frob(self.x)

    @cached_property
    def norm_y(self) -> float:
        return frob(self.y)

    @cached_property
    def commutator_residual(self) -> float:
        """Relative norm of XY - YX."""
        return _rel(frob(commutator(self.x, self.y)), self.norm_x, self.norm_y)

    @cached_property
    def real_part_residual(self) -> float:
        """Relative norm of Re(X) - Re(Y)."""
        return _rel(frob(re_part(self.x) - re_part(self.y)), self.norm_x)

    @cached_property
    def hermitian_x(self) -> bool:
        x = self.x
        return frob(x - dagger(x)) <= HERM_TOL * max(1.0, self.norm_x)

    @property
    def dec_x(self) -> SpectralDecomposition:
        """Spectral decomposition of X; raises NotNormal if X is not normal,
        or the error its decomposition raised."""
        return _unwrap(self._attempt_x)

    @property
    def dec_y(self) -> SpectralDecomposition:
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
        return _exp_gap(exp_general(self.x), self.exp_y)

    @cached_property
    def exp_i_residual(self) -> float:
        """Relative gap between exp(iX) and exp(Y)."""
        return _exp_gap(exp_general(1j * self.x), self.exp_y)

    @cached_property
    def boundary_x(self) -> tuple:
        """Spectral measures of X on the lines Im z = pi and Im z = -pi."""
        return _boundary_measures(self.dec_x)

    @cached_property
    def boundary_y(self) -> tuple:
        """Spectral measures of Y on the lines Im z = pi and Im z = -pi."""
        return _boundary_measures(self.dec_y)

    @cached_property
    def congruence(self) -> CheckReport:
        """The report of :func:`check_congruence_free`; raises NotNormal
        when X is not normal."""
        return _congruence_report(self.dec_x)

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


def _boundary_measures(dec: SpectralDecomposition) -> tuple:
    return (spectral_measure(dec, HLine(math.pi)),
            spectral_measure(dec, HLine(-math.pi)))


def _in_strip(dec: SpectralDecomposition) -> bool:
    return dec._max_abs_imag <= math.pi + BOUNDARY_TOL


# Hypothesis gates: name -> (test on the pair, note of the skipped report).
# A strip gate reads a decomposition, so a normality gate must precede it.
_GATES = {
    "normal": (lambda p: p.normal_x and p.normal_y,
               "inputs must both be normal"),
    "normal_x": (lambda p: p.normal_x, "X must be normal"),
    "normal_y": (lambda p: p.normal_y, "Y must be normal"),
    "hermitian_x": (lambda p: p.hermitian_x, "X must be self-adjoint"),
    "strip": (lambda p: _in_strip(p.dec_x) and _in_strip(p.dec_y),
              "spectra must lie in the closed strip |Im z| <= pi"),
    "strip_x": (lambda p: _in_strip(p.dec_x),
                "spectrum of X must lie in |Im z| <= pi"),
    "strip_y": (lambda p: _in_strip(p.dec_y),
                "spectrum of Y must lie in |Im z| <= pi"),
    "exp": (lambda p: p.exp_residual <= GATE_TOL,
            "exponentials differ; hypothesis not met"),
    "exp_i": (lambda p: p.exp_i_residual <= GATE_TOL,
              "exp(iX) and exp(Y) differ; hypothesis not met"),
}
# The exponential gates, with the residual each reports as ``exp_gate``.
_EXP_GATES = {"exp": "exp_residual", "exp_i": "exp_i_residual"}


class _Unmet(Exception):
    """A check's own hypothesis fails; the message is the skip note."""


def _fail(name: str, note: str, residuals=None, tolerances=None) -> CheckReport:
    return CheckReport(check_name=name, passed=False, hypothesis_met=False,
                       residuals=residuals or {}, tolerances=tolerances or {},
                       notes=note)


def _gated(*gates: str):
    """Declare a check's hypotheses as ``_GATES`` names, tested in order.

    The decorated body runs once every gate holds and returns
    ``(residuals, tolerances, notes)``, or raises :class:`_Unmet` for a
    hypothesis of its own. The report passes when every residual is
    within its tolerance. Once an exponential gate has been tested, its
    residual is part of every report, skipped or not.
    """
    def decorate(body):
        name = body.__name__.removeprefix("check_")

        @wraps(body)
        def check(pair: PairAnalysis) -> CheckReport:
            residuals, tols = {}, {}
            try:
                for gate in gates:
                    holds, note = _GATES[gate]
                    if gate in _EXP_GATES:
                        residuals["exp_gate"] = getattr(pair, _EXP_GATES[gate])
                        tols["exp_gate"] = GATE_TOL
                    if not holds(pair):
                        raise _Unmet(note)
                found, bounds, notes = body(pair)
            except _Unmet as unmet:
                return _fail(name, str(unmet), residuals, tols)
            residuals.update(found)
            tols.update(bounds)
            passed = all(residuals[k] <= tols[k] for k in residuals)
            return CheckReport(check_name=name, passed=passed,
                               hypothesis_met=True, residuals=residuals,
                               tolerances=tols, notes=notes)
        return check
    return decorate


def run_check(name: str, pair: PairAnalysis) -> CheckReport:
    """Run the registered check ``name`` on a pair.

    ``check_<name>`` is looked up in this module when called, so a
    rebinding of it (such as a tracing wrapper) is the one that runs.
    """
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}")
    return globals()[f"check_{name}"](pair)


@_gated("normal", "exp")
def check_real_part(pair: PairAnalysis):
    """Re(X) = Re(Y) whenever X, Y are normal with equal exponentials."""
    return ({"real_part": pair.real_part_residual},
            {"real_part": pair.check_tol}, "")


def _interior_region_family(dec_x: SpectralDecomposition,
                            dec_y: SpectralDecomposition, scale: float):
    """Regions isolating each interior eigenvalue of X, as arrays.

    Returns ``(centres, radius, half, has_rect)``: for each eigenvalue of
    X farther than a margin from the strip boundary, the disc
    ``Points((centre,), radius)`` and, where ``has_rect``, the closed
    square ``Rect`` of half-width ``half`` about the centre. Edges are
    kept clear of every eigenvalue and of the strip boundary.
    """
    margin = 10 * BOUNDARY_TOL
    radius = CLUSTER_TOL * max(1.0, scale)
    lam = dec_x.eigenvalue_array
    # gaps[i]: distance from eigenvalue i of X to the nearest representative
    # of X or Y farther than the merge radius (1.0 if there is none)
    d = lam[:, None] - np.concatenate((lam, dec_y.eigenvalue_array))[None, :]
    dist = np.hypot(d.real, d.imag)  # equals abs() of each complex difference
    far = dist > radius
    gaps = np.where(far.any(axis=1), np.where(far, dist, np.inf).min(axis=1), 1.0)
    room = math.pi - np.abs(lam.imag)
    interior = room > margin  # boundary eigenvalues are not targets
    half = np.minimum(np.minimum(gaps[interior] / 3.0, room[interior] / 2.0), 0.5)
    return lam[interior], radius, half, half > margin


def _isolating_masks(z: np.ndarray, family) -> np.ndarray:
    """Membership of the points ``z`` in each region of the family.

    One row per region, discs first, then squares, by the rules of
    ``Points`` and ``Rect``. Every edge of a square is included, so no
    point is ambiguous.
    """
    centres, radius, half, has_rect = family
    d = z[None, :] - centres[:, None]
    discs = np.hypot(d.real, d.imag) <= radius
    c, h = centres[has_rect, None], half[has_rect, None]
    squares = True
    for x, edge, sign in ((z.real, c.real - h, 1.0), (z.real, c.real + h, -1.0),
                          (z.imag, c.imag - h, 1.0), (z.imag, c.imag + h, -1.0)):
        squares = squares & _edge_status(x, edge, True, sign)[0]
    return np.concatenate((discs, squares))


def _interior_measure(dec_x: SpectralDecomposition,
                      dec_y: SpectralDecomposition, scale: float) -> float:
    """Largest ||E_X(O) - E_Y(O)||_F over the isolating family, or 0.0
    when the family is empty; no projection is formed.

    For orthogonal projections P and Q,
    ||P - Q||^2 = ||(I - Q)P||^2 + ||(I - P)Q||^2 (Stewart & Sun, 1990,
    ch. I.5). The bases V_x and V_y must be unitary, as ``normal_eig``
    builds them from ``eigh``. Then, with E_ij = |(V_y* V_x)_ij|^2 and
    S, S' the eigenvector columns of X and of Y that O selects, the first
    term is the sum of E_ij over j in S, i not in S', and the second the
    sum over i in S', j not in S. Every term is non-negative, so nothing
    cancels, unlike the trace form k_x + k_y - 2||V_y,S'* V_x,S||^2.
    """
    family = _interior_region_family(dec_x, dec_y, scale)
    # 0/1 membership of each eigenvector column, one row per region
    mx = np.repeat(_isolating_masks(dec_x.eigenvalue_array, family),
                   dec_x.multiplicities, axis=1).astype(float)
    my = np.repeat(_isolating_masks(dec_y.eigenvalue_array, family),
                   dec_y.multiplicities, axis=1).astype(float)
    if not len(mx):
        return 0.0
    g = dagger(dec_y.v) @ dec_x.v
    e = g.real ** 2 + g.imag ** 2
    mass = (((1.0 - my) @ e) * mx).sum(axis=1) + ((my @ e) * (1.0 - mx)).sum(axis=1)
    return math.sqrt(mass.max())


@_gated("normal", "strip", "exp")
def check_spectral_agreement(pair: PairAnalysis):
    """Spectral measures of X and Y agree inside the open strip, their
    boundary-line projections have equal sums, and the real parts match,
    exactly when the exponentials coincide (both directions reported).

    ``interior_measure`` is the largest ||E_X(O) - E_Y(O)||_F over
    regions O isolating each interior eigenvalue, taken from the overlap
    matrix V_y* V_x by ||P - Q||^2 = ||(I - Q)P||^2 + ||(I - P)Q||^2,
    which needs the unitary eigenbases ``normal_eig`` builds (see
    :func:`_interior_measure`).
    """
    dec_x = pair.dec_x
    interior = _interior_measure(dec_x, pair.dec_y, pair.norm_x)

    bx = sum(pair.boundary_x)
    by = sum(pair.boundary_y)

    bound = pair.check_tol * dec_x.n
    return ({"interior_measure": interior, "boundary_sum": frob(bx - by),
             "real_part": pair.real_part_residual},
            {"interior_measure": bound, "boundary_sum": bound,
             "real_part": bound},
            "equality of exponentials re-verified against the "
            "measure/real-part conditions (converse direction included)")


@_gated("normal", "strip", "exp")
def check_modulus_equal(pair: PairAnalysis):
    """|X| = |Y| for normal X, Y with spectra in the strip and e^X = e^Y."""
    r = _rel(frob(pair.modulus_x - pair.modulus_y), pair.norm_x)
    return {"modulus": r}, {"modulus": pair.check_tol}, ""


@_gated("normal_x", "strip_x", "exp")
def check_modulus_commute(pair: PairAnalysis):
    """|X| commutes with Y for normal X (spectrum in the strip) and any
    bounded Y with e^X = e^Y."""
    r = _rel(frob(commutator(pair.modulus_x, pair.y)),
             pair.norm_x, pair.norm_y)
    return ({"modulus_commutator": r},
            {"modulus_commutator": pair.check_tol}, "")


@_gated("normal_x", "strip_x", "exp")
def check_square_commute(pair: PairAnalysis):
    """X^2 commutes with Y when the boundary spectrum of X (apart from
    the two corner points +/- i*pi) is free of conjugate pairs."""
    x, y = pair.x, pair.y
    eigenvalues = pair.dec_x.eigenvalues
    radius = CLUSTER_TOL * max(1.0, pair.norm_x)
    corner = complex(0.0, math.pi)
    for lam in eigenvalues:
        if math.pi - abs(lam.imag) > BOUNDARY_TOL:
            continue  # interior eigenvalue
        if (abs(lam - corner) <= BOUNDARY_TOL
                or abs(lam + corner) <= BOUNDARY_TOL):
            continue  # the corner points are exempt
        if any(abs(lam.conjugate() - mu) <= radius for mu in eigenvalues):
            raise _Unmet(f"conjugate pair on the strip boundary at "
                         f"{lam:.6g}; hypothesis not met")

    r = _rel(frob(commutator(x @ x, y)), pair.norm_x ** 2, pair.norm_y)
    return ({"square_commutator": r},
            {"square_commutator": pair.check_tol}, "")


@_gated("normal", "exp")
def check_difference_formula(pair: PairAnalysis):
    """X - Y equals the weighted sum of strip and boundary-line
    projections over the pair's branch window [k_lo, k_hi],
    ``strip_projections(...).difference()``. A spectrum outside the
    window fails the hypothesis; an ambiguous one raises."""
    k_lo, k_hi = pair.k_lo, pair.k_hi
    try:
        window = strip_projections(pair.dec_x, pair.dec_y, k_lo, k_hi)
    except SpectrumOutOfRange as exc:
        raise _Unmet(f"spectrum outside branch window [{k_lo}, {k_hi}]: "
                     f"{exc}") from exc
    r = _rel(frob((pair.x - pair.y) - window.difference()), pair.norm_x)
    return ({"difference": r}, {"difference": pair.check_tol * pair.dec_x.n},
            f"branch window [{k_lo}, {k_hi}]")


@_gated("normal", "strip", "exp")
def check_corollary_cases(pair: PairAnalysis):
    """Vanishing boundary-line projections of X force commutation:
    no spectrum on Im z = pi gives XY = YX with X - Y = -2*pi*i*F1, the
    mirror case on Im z = -pi gives X - Y = +2*pi*i*F{-1}, and both
    together force X = Y."""
    x, y, check = pair.x, pair.y, pair.check_tol
    e1, em1 = pair.boundary_x
    f1, fm1 = pair.boundary_y
    top_empty = frob(e1) <= GATE_TOL
    bottom_empty = frob(em1) <= GATE_TOL
    if not (top_empty or bottom_empty):
        raise _Unmet("spectrum of X meets both boundary lines; "
                     "no case applies")

    residuals = {"commutator": pair.commutator_residual}
    tols = {"commutator": check}
    cases = []
    if top_empty:
        cases.append("top line empty")
        residuals["difference_top"] = _rel(frob((x - y) + TWO_PI * 1j * f1),
                                           pair.norm_x)
        tols["difference_top"] = check
    if bottom_empty:
        cases.append("bottom line empty")
        residuals["difference_bottom"] = _rel(frob((x - y) - TWO_PI * 1j * fm1),
                                              pair.norm_x)
        tols["difference_bottom"] = check
    if top_empty and bottom_empty:
        cases.append("both empty: X = Y")
        residuals["equality"] = _rel(frob(x - y), pair.norm_x)
        tols["equality"] = check
    return residuals, tols, "; ".join(cases)


def check_congruence_free(pair: PairAnalysis) -> CheckReport:
    """No two eigenvalues of a self-adjoint X differ by a nonzero
    multiple of 2*pi (within the cluster radius). Y is not read.

    The report is computed once per pair and shared with
    :func:`check_double_commutant`, whose hypothesis it is.
    Raises NotNormal when X is not normal.
    """
    return pair.congruence


def _congruence_report(dec_x: SpectralDecomposition) -> CheckReport:
    name = "congruence_free"
    if any(abs(lam.imag) > BOUNDARY_TOL for lam in dec_x.eigenvalues):
        return _fail(name, "input must be self-adjoint (real spectrum)")
    radius = CLUSTER_TOL * max(1.0, dec_x.norm)
    nearest = math.inf
    values = [lam.real for lam in dec_x.eigenvalues]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            gap = abs(a - b)
            k = round(gap / TWO_PI)
            if k != 0:
                nearest = min(nearest, abs(gap - TWO_PI * k))
    free = nearest > radius
    residual = 0.0 if math.isinf(nearest) else nearest
    return CheckReport(
        check_name=name, passed=free, hypothesis_met=True,
        residuals={"nearest_congruence": residual},
        tolerances={"nearest_congruence": radius},
        notes="passes when every nonzero 2*pi-translate of the spectrum "
              "stays farther than the cluster radius from the spectrum")


@_gated("hermitian_x", "exp_i")
def check_double_commutant(pair: PairAnalysis):
    """Every spectral projection of a congruence-free self-adjoint X lies
    in the double commutant of Y when exp(iX) = exp(Y); in particular X
    and Y commute.

    For a normal Y, {Y}'' is the span of Y's eigenprojections, so the
    residual is the distance to that span; a non-normal Y needs the
    commutant basis.
    """
    y, check = pair.y, pair.check_tol
    if not pair.congruence.passed:
        raise _Unmet("spectrum is not 2*pi-congruence-free; "
                     "hypothesis not met")

    blocks = pair.dec_x._projection_blocks()
    if pair.normal_y:
        worst = max(d for _, ps in blocks
                    for d in pair.dec_y._bicommutant_distances(ps))
    else:
        basis = commutant_basis(y)
        worst = max(in_double_commutant(p, y, basis=basis)[1]
                    for _, ps in blocks for p in ps)
    return ({"double_commutant": worst, "commutator": pair.commutator_residual},
            {"double_commutant": check, "commutator": check},
            _FINITE_DIM_NOTE)


@_gated("hermitian_x", "normal_y", "strip_y", "exp_i")
def check_one_boundary_eigenvalue(pair: PairAnalysis):
    """X and Y commute when exp(iX) = exp(Y), Y is normal with spectrum
    in the strip, and at most one eigenvalue of the self-adjoint X is an
    odd multiple of pi."""
    radius = CLUSTER_TOL * max(1.0, pair.norm_x)
    odd_hits = sum(1 for lam in pair.dec_x.eigenvalues
                   if _odd_pi_distance(lam.real) <= radius)
    if odd_hits > 1:
        raise _Unmet(f"{odd_hits} distinct odd-pi eigenvalues; "
                     "hypothesis not met")
    return ({"commutator": pair.commutator_residual},
            {"commutator": pair.check_tol}, _FINITE_DIM_NOTE)


@_gated("hermitian_x", "normal_y", "strip_y", "exp_i")
def check_y_in_bicommutant_of_exp(pair: PairAnalysis):
    """Y lies in the double commutant of exp(iX) when exp(iX) = exp(Y),
    Y is normal with spectrum in the strip, and no eigenvalue of the
    self-adjoint X is an odd multiple of pi. Also verifies the folded
    form of X reproduces Y (through multiplication by i)."""
    y, check = pair.y, pair.check_tol
    radius = CLUSTER_TOL * max(1.0, pair.norm_x)
    if any(_odd_pi_distance(lam.real) <= radius
           for lam in pair.dec_x.eigenvalues):
        raise _Unmet("an eigenvalue of X is an odd multiple of pi; "
                     "hypothesis not met")

    # exp(iX) = V diag(e^{i lam}) V*, so {exp(iX)}'' is spanned by sums of
    # the projections of X that share a value e^{i lam}
    r_bicomm = pair.dec_x.bicommutant_distance(
        y, lambda lam: cmath.exp(1j * lam))
    folded = borel_calculus(pair.dec_x,
                            lambda lam: 1j * _fold_branch(lam.real)[1])
    r_fold = _rel(frob(folded - y), pair.norm_y)
    return ({"double_commutant": r_bicomm, "fold_identity": r_fold},
            {"double_commutant": check, "fold_identity": check},
            _FINITE_DIM_NOTE)


@_gated()
def check_kurepa(pair: PairAnalysis):
    """The principal-log splitting of Y reconstructs it, commutes, and
    carries integer branch weights whenever exp(Y) is normal. X is not
    read."""
    y, check = pair.y, pair.check_tol
    try:
        dec = _kurepa_split(y, pair._attempt_exp_y)
    except (ExpNotNormal, Singular) as exc:
        raise _Unmet(f"hypothesis not met: {exc}") from exc
    return ({"reconstruction": _rel(frob(dec.reconstruct() - y), pair.norm_y),
             "commute": dec.commute_residual,
             "integer_spectrum": dec.integer_spectrum_residual},
            {"reconstruction": check, "commute": check,
             "integer_spectrum": INTEGER_TOL}, "")
