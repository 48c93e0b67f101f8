import cmath
import math
import warnings

import numpy as np
import pytest

import normlog.checks
import normlog.logs
import normlog.spectral
from normlog.checks import (
    CHECK_NAMES,
    PairAnalysis,
    check_congruence_free,
    check_corollary_cases,
    check_difference_formula,
    check_double_commutant,
    check_kurepa,
    check_modulus_commute,
    check_modulus_equal,
    check_one_boundary_eigenvalue,
    check_real_part,
    check_spectral_agreement,
    check_square_commute,
    check_y_in_bicommutant_of_exp,
    run_check,
    run_checks,
)
from normlog.config import BOUNDARY_TOL, CHECK_TOL, CLUSTER_TOL, GATE_TOL
from normlog.errors import (
    AmbiguousBoundary,
    NormLogError,
    NotCommuting,
    NotNormal,
    SpectrumOutOfRange,
)
from normlog.harness import (
    Family,
    InstanceSpec,
    analyze_pair,
    default_config,
    make_pair,
    random_unitary,
    run_suite,
)
from normlog.linalg import dagger, frob, is_normal
from normlog.harness.suite import _FAMILY_CHECKS
from normlog.logs import TWO_PI, _kurepa_splits, kurepa_decompose
from normlog.report import CheckReport
from normlog.spectral import (
    Rect,
    SpectralDecomposition,
    normal_eig,
    spectral_measure,
    strip_projections,
)

from util import (HLine, Points, _group_labels, _make_pairs,
                  bicommutant_distance, random_normal_matrix, record_of,
                  validate_decomposition)

PI = math.pi


def conj_by(u, d):
    return u @ d @ dagger(u)


class TestPairAnalysis:
    def test_normality_is_is_normal_verdict(self):
        rot = np.array([[0, -1], [1, 0]], dtype=complex)
        nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
        _, y, _ = make_pair(InstanceSpec(Family.NON_NORMAL_LOG_PAIR, 4, 5))
        x, _, _ = random_normal_matrix(5, 3)
        for m in (rot, nilpotent, y, x, np.zeros((3, 3))):
            # a nilpotent Jordan block of m's size
            pair = PairAnalysis(m, np.eye(len(m), k=1))
            assert pair._chunk.array("normal_x").tolist()[0] == is_normal(m)
            assert pair._chunk.array("normal_y").tolist()[0] is False

    @pytest.mark.parametrize("nx, ny", [(2, 3), (3, 2), (1, 4)])
    def test_operands_of_different_sizes_raise(self, nx, ny):
        with pytest.raises(ValueError) as exc:
            PairAnalysis(np.eye(nx), np.eye(ny))
        assert str(exc.value) == (f"X and Y must be of one size, got "
                                  f"{nx}x{nx} and {ny}x{ny}")

    def test_run_checks_of_no_names_gives_each_pair_none(self):
        pairs = [PairAnalysis(np.eye(2), np.eye(2)) for _ in range(2)]
        assert run_checks([], pairs) == [[], []]
        assert run_checks([], []) == []

    def test_chunk_of_pairs_of_different_sizes_raises(self):
        pairs = [PairAnalysis(np.eye(2), np.eye(2)),
                 PairAnalysis(np.eye(3), np.eye(3)),
                 PairAnalysis(np.eye(2), np.eye(2))]
        for run in (check_real_part, lambda ps: run_checks(["kurepa"], ps)):
            with pytest.raises(ValueError) as exc:
                run(pairs)
            assert str(exc.value) == ("the pairs of a chunk must be of one "
                                      "size, got 2x2 and 3x3")

    def test_non_normal_decomposition_is_not_normal(self):
        pair = PairAnalysis(np.eye(2), np.array([[0, 1], [0, 0]]))
        for _ in range(2):
            assert isinstance(pair._chunk.columns("y")[0], NotNormal)

    # a non-normal Y is a hypothesis every check skips, so Y's failed
    # decomposition is that of a normal Y whose parts fail to commute,
    # which spectral_agreement's strip gate reads
    @pytest.mark.parametrize("fact, check, error", [
        ("congruence", "congruence_free", NotNormal),
        ("dec_x", "congruence_free", NotNormal),
        ("dec_y", "spectral_agreement", NotCommuting)])
    def test_failed_fact_is_kept_and_raised_on_every_call(self, fact, check,
                                                          error):
        if error is NotNormal:
            pair = PairAnalysis(np.array([[0, 1], [0, 0]], dtype=complex),
                                np.eye(2))
        else:
            pair = PairAnalysis(np.eye(4), _coupled())
        read = {"congruence": lambda c: c.congruence[0],
                "dec_x": lambda c: c.columns("x")[0],
                "dec_y": lambda c: c.columns("y")[0]}[fact]
        for _ in range(3):
            assert isinstance(read(pair._chunk), error)
            with pytest.raises(error):
                run_check(check, pair)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_failed_modulus_is_kept_and_raised_on_every_call(self, side):
        # M*M overflows, so the modulus of M fails; the other one's holds
        big = np.diag([1e200, 1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        operands = {"x": (big, eye), "y": (eye, big)}[side]
        pair = PairAnalysis(*operands)
        other = "y" if side == "x" else "x"
        # e^M overflows, so the exponential gate is given as met for the
        # check to reach the moduli
        given = normlog.checks._Chunk(
            *(m[None] for m in operands), [CHECK_TOL], [(-1, 0)],
            gaps=[("exp(X)=exp(Y)", 0.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(3):
                error = pair._chunk.moduli(side)[0]
                assert isinstance(error, ValueError)
                assert "finite" in str(error)
                # the modulus step ends the pair with the error
                run = normlog.checks._Run("modulus_equal", given)
                normlog.checks._read_moduli("x", "y")(run)
                assert len(run.open) == 0
                assert isinstance(run.entries[0], ValueError)
                assert "finite" in str(run.entries[0])
                # the check meets M's decomposition first, whose
                # Frobenius norm overflows as M*M does
                with pytest.raises(SpectrumOutOfRange, match="not finite"):
                    normlog.checks._run_checks(("modulus_equal",), given)
            assert np.array_equal(pair._chunk.moduli(other)[0], np.eye(2))

    def test_normal_input_whose_parts_fail_to_commute(self):
        # normal within NORM_TOL, but its Hermitian parts fail the tighter
        # commutation test of simultaneous_diagonalize; the basis found
        # leaves them uncoupled, and the decomposition meets criterion 1
        x = np.diag([100.0, 0.0]) + 1e-10j * np.array([[0, 1], [1, 0]])
        pair = PairAnalysis(x, x)
        assert is_normal(x)
        assert pair._chunk.array("normal_x").tolist()[0] is True
        for _ in range(2):
            dec_x = pair._chunk.columns("x")[0]
            assert (validate_decomposition(dec_x, x)["reconstruction"]
                    <= 1e-10 * 2 * frob(x))

    def test_moduli_taken_for_the_checks_that_read_them(self, monkeypatch):
        operands = [make_pair(InstanceSpec(family, 4, seed))[:2]
                    for family in (Family.BOUNDARY_FLIP_PAIR,
                                   Family.NON_NORMAL_LOG_PAIR)
                    for seed in range(3)]
        lone = [PairAnalysis(x, y) for x, y in operands]
        want = [tuple(alone._chunk.moduli(side)[0].tobytes() for side in "xy")
                for alone in lone]
        calls = _spy(monkeypatch, "_modulus_stack", bytes_of=True)
        cases = {("modulus_equal",): ("x", "y"),
                 ("real_part", "modulus_commute"): ("x",),
                 ("real_part", "kurepa"): ()}
        for checks, taken in cases.items():
            calls.clear()
            pairs = [PairAnalysis(x, y) for x, y in operands]
            run_checks(checks, pairs)
            # one stacked call for the chunk, of the operands read
            stack = [m.tobytes() for ms in operands
                     for side, m in zip("xy", ms) if side in taken]
            assert calls == ([stack] if taken else [])
            chunk = normlog.checks._Chunk.of(pairs)
            chunk.analyse(moduli=taken)
            for i, ref in enumerate(want):
                for side, ref_side in zip("xy", ref):
                    taken_here = ("moduli", side) in chunk._cache
                    assert taken_here == (side in taken)
                    if side in taken:
                        assert chunk.moduli(side)[i].tobytes() == ref_side

    def test_x_only_checks_leave_y_to_first_use(self, monkeypatch):
        operands = [make_pair(InstanceSpec(family, 4, seed))[:2]
                    for family in (Family.BOUNDARY_FLIP_PAIR,
                                   Family.NON_NORMAL_LOG_PAIR)
                    for seed in range(3)]
        pairs = [PairAnalysis(x, y) for x, y in operands]
        with monkeypatch.context() as m:
            decomposed = _spy(m, "_decompose_stack", bytes_of=True)
            run_checks(("modulus_commute", "square_commute",
                        "congruence_free"), pairs)
        # X alone is decomposed, neither Y nor e^Y
        assert decomposed == [[x.tobytes() for x, _ in operands]]
        for pair, (x, y) in zip(pairs, operands):
            # read later, Y's decomposition is the lone one
            assert _same_attempt(_attempt(pair, "y"), _lone_attempt(y))
            assert _same_attempt(_attempt(pair, "x"), _lone_attempt(x))

    def test_byte_equal_operands_analysed_once(self, monkeypatch):
        # an InteriorPair's Y equals X byte for byte; 0.0 and -0.0 differ
        stacks = {name: _spy(monkeypatch, name, bytes_of=True)
                  for name in ("_decompose_stack", "_modulus_stack")}
        interior = [make_pair(InstanceSpec(Family.INTERIOR_PAIR, 4, seed))[:2]
                    for seed in range(3)]
        signed = (np.diag([0.0, 1.0 + 0j, 2.0, 3.0]),
                  np.diag([-0.0, 1.0 + 0j, 2.0, 3.0]))
        pairs = [PairAnalysis(x, y) for x, y in interior + [signed]]
        run_checks(("modulus_equal", "real_part"), pairs)
        for name in stacks:
            (stack,) = stacks[name]
            assert sorted(stack) == sorted(
                [x.tobytes() for x, _ in interior] + [m.tobytes() for m in signed])
        # the chunk's X and Y share each byte-equal pair's result
        chunk = normlog.checks._Chunk.of(pairs)
        chunk.analyse(("x", "y"), ("x", "y"))
        for i in range(3):
            assert chunk.moduli("x")[i] is chunk.moduli("y")[i]
        assert chunk.moduli("x")[3] is not chunk.moduli("y")[3]
        for pair, (x, y) in zip(pairs, interior + [signed]):
            assert _same_attempt(_attempt(pair, "y"), _lone_attempt(y))
            assert (pair._chunk.moduli("y")[0].tobytes()
                    == PairAnalysis(x, y)._chunk.moduli("y")[0].tobytes())

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_run_checks_analyses_its_chunk_once(self, name, monkeypatch):
        # run_checks decomposes every operand its checks read in one
        # stacked call and takes their moduli in one more; no check
        # decomposes or takes a modulus after it
        pairs = []
        for family in Family:
            for seed in range(2):
                x, y, meta = make_pair(InstanceSpec(family, 4, seed))
                pairs.append(analyze_pair(x, y, meta))
        decomposed = _spy(monkeypatch, "_decompose_stack")
        moduli = _spy(monkeypatch, "_modulus_stack")
        try:
            run_checks((name,), pairs)
        except NormLogError:
            pass
        assert len(decomposed) == 1
        assert len(moduli) == (name in ("modulus_equal", "modulus_commute"))

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_lone_pair_decomposes_each_operand_once(self, family,
                                                    monkeypatch):
        # every run_check on one pair shares its per-pair facts: one
        # stacked decomposition each of X, Y and e^Y, and at most one
        # modulus per operand
        x, y, meta = make_pair(InstanceSpec(family, 4, 3))
        pair = analyze_pair(x, y, meta)
        decomposed = _spy(monkeypatch, "_decompose_stack", bytes_of=True)
        moduli = _spy(monkeypatch, "_modulus_stack", bytes_of=True)
        for name in CHECK_NAMES:
            try:
                run_check(name, pair)
            except NormLogError:
                pass
        assert len(decomposed) == 3
        assert sorted(m for stack in decomposed for m in stack) == sorted(
            m.tobytes() for m in (x, y, pair._chunk.exp_y[0]))
        taken = [m for stack in moduli for m in stack]
        assert len(taken) == len(set(taken)) <= 2
        assert set(taken) <= {x.tobytes(), y.tobytes()}

    def test_chunk_kurepa_equals_kurepa_decompose(self, monkeypatch):
        specs = [InstanceSpec(Family.NON_NORMAL_LOG_PAIR, n, seed)
                 for n in (2, 5) for seed in range(3)]
        for n in (2, 5):
            pairs = [PairAnalysis(x, y) for x, y, _ in
                     map(make_pair, [s for s in specs if s.n == n])]
            # a Y whose exponential is not normal: kurepa skips it
            y = np.array([[0, 1], [0, 0]], dtype=complex)
            if n == 2:
                pairs.append(PairAnalysis(y, y))
            chunk = [row[0] for row in run_checks(("kurepa",), pairs)]
            reports = [check_kurepa(pair) for pair in pairs]
            with monkeypatch.context() as m:
                # each split reads the decomposition of e^Y the check made
                m.setattr(normlog.checks, "_exp_stack", _not_called)
                m.setattr(normlog.logs, "exp_general", _not_called)
                m.setattr(normlog.checks, "_decompose_stack", _not_called)
                m.setattr(normlog.logs, "normal_eig", _not_called)
                splits = [_kurepa_splits(pair.y[None],
                                         [_attempt(pair, "exp_y")])[0]
                          if rep.hypothesis_met
                          else None for pair, rep in zip(pairs, reports)]
            for pair, rep, split, entry in zip(pairs, reports, splits, chunk):
                assert rep.to_dict() == entry.to_dict()
                assert ([v.hex() for v in rep.residuals.values()]
                        == [v.hex() for v in entry.residuals.values()])
                if split is None:
                    assert not rep.hypothesis_met
                    continue
                ref = kurepa_decompose(pair.y)
                assert split.n0.tobytes() == ref.n0.tobytes()
                assert split.w.tobytes() == ref.w.tobytes()
                assert split.commute_residual.hex() == ref.commute_residual.hex()
                assert (split.integer_spectrum_residual.hex()
                        == ref.integer_spectrum_residual.hex())
            assert any(not rep.hypothesis_met for rep in reports) == (n == 2)

    def test_strip_gate_reads_the_largest_imaginary_part(self):
        edge = PI + BOUNDARY_TOL
        rows, rules = [], []
        for im in (edge, np.nextafter(edge, 4.0), -edge,
                   np.nextafter(-edge, -4.0), 0.0, PI):
            dec = normal_eig(np.diag([0.5 + 0j, complex(1.0, im), -2j]))
            rule = all(abs(lam.imag) <= edge for lam in dec.eigenvalues)
            assert normlog.checks._in_strip(dec.eigenvalue_array) == rule
            rows.append(dec.eigenvalue_array)
            rules.append(rule)
        # one row per pair of a chunk
        assert normlog.checks._in_strip(np.stack(rows)).tolist() == rules

    def test_exponentials_in_one_stacked_call_per_side(self, monkeypatch):
        # a chunk given no exponential takes e^Y, then e^X, each in one
        # stacked call over all its rows. The normality gate skips the
        # pair with a nilpotent X before the exponential gate, so its
        # report keeps no gap
        nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
        x = np.diag([0.5 + 1j, -1.0])
        pairs = [PairAnalysis(nilpotent, nilpotent), PairAnalysis(x, x)]
        calls = _spy(monkeypatch, "_exp_stack", bytes_of=True)
        reports = check_real_part(pairs)
        assert [r.hypothesis_met for r in reports] == [False, True]
        assert calls == [[nilpotent.tobytes(), x.tobytes()]] * 2
        assert "exp_gate" not in reports[0].residuals
        assert (reports[1].residuals["exp_gate"]
                == check_real_part(PairAnalysis(x, x)).residuals["exp_gate"])

    def test_boundary_lines_measured_once_per_operand(self, monkeypatch):
        x, y, _ = make_pair(InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 8, 2))
        pair = PairAnalysis(x, y)
        chunk = normlog.checks._Chunk.of([pair])
        for side in "xy":
            dec = pair._chunk.columns(side)[0]
            assert [m[0].tobytes() for m in chunk.lines(side)] == [
                spectral_measure(dec, HLine(c)).tobytes() for c in (PI, -PI)]
        assert chunk.lines("x")[0].any() or chunk.lines("x")[1].any()

        # both lines of both operands, one stacked selection each for the
        # chunk, and no region measure
        calls = []
        real = normlog.checks._select_stack
        monkeypatch.setattr(normlog.checks, "_select_stack",
                            lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(normlog.spectral.Region, "contains", _not_called)
        pairs = [PairAnalysis(x, y), PairAnalysis(*make_pair(InstanceSpec(
            Family.BOUNDARY_FLIP_PAIR, 8, 3))[:2])]
        reports = normlog.checks.run_checks(
            ("spectral_agreement", "corollary_cases"), pairs)
        assert all(rep.passed for row in reports for rep in row)
        assert len(calls) == 4

    @pytest.mark.parametrize("family, checks, residual", [
        (Family.BOUNDARY_FLIP_PAIR, ("real_part", "spectral_agreement"),
         "real_part"),
        (Family.INTERIOR_PAIR, ("real_part", "spectral_agreement"),
         "real_part"),
        (Family.SELF_ADJOINT_CONGRUENCE_FREE,
         ("double_commutant", "one_boundary_eigenvalue"), "commutator"),
        (Family.ODD_PI_EIGENVALUE,
         ("one_boundary_eigenvalue", "double_commutant"), "commutator"),
    ], ids=lambda v: getattr(v, "value", None))
    def test_pair_residuals_formed_once(self, family, checks, residual,
                                        monkeypatch):
        x, y, _ = make_pair(InstanceSpec(family, 6, 4))
        # Re(M) is the Hermitian part (M + M*) / 2
        lone = {"real_part": frob((x + dagger(x)) / 2 - (y + dagger(y)) / 2)
                / max(1.0, frob(x)),
                "commutator": frob(x @ y - y @ x)
                / max(1.0, frob(x) * frob(y))}
        calls = []
        for name in ("commutator", "re_part"):
            real = getattr(normlog.checks, name)
            monkeypatch.setattr(
                normlog.checks, name,
                lambda *a, _real=real, _name=name: (calls.append(_name)
                                                   or _real(*a)))
        pair = PairAnalysis(x, y)
        reports = [run_check(name, pair) for name in checks]
        assert all(rep.passed for rep in reports)
        for rep in reports:
            assert rep.residuals[residual] == pytest.approx(lone[residual],
                                                            abs=1e-15)
        # one commutator, or the real parts of X and Y, for both checks
        assert calls == (["commutator"] if residual == "commutator"
                         else ["re_part", "re_part"])


def _row_facts(pair):
    """Row 0 of the pair's chunk of one: the decompositions of X and of Y
    (or their errors) and ||X||."""
    chunk = pair._chunk
    return (chunk.columns("x")[0], chunk.columns("y")[0],
            chunk.array("norm_x")[0])


def _coupled():
    """A normal matrix whose Hermitian parts fail the commutation test of
    its decomposition, which raises NotCommuting."""
    x = np.diag([100.0, 100.0 + 1e-5, 1.0, 2.0]).astype(complex)
    x[0, 1] = x[1, 0] = 1e-2j
    return x


def _gate_given(pairs, equation="exp(X)=exp(Y)"):
    """The chunk of ``pairs`` (X, Y), each given a zero gap of
    ``equation``, so a pair whose conclusion fails reaches the check
    body."""
    x, y = (np.stack(ms).astype(complex) for ms in zip(*pairs))
    return normlog.checks._Chunk(x, y, [CHECK_TOL] * len(x),
                                 [(-1, 0)] * len(x),
                                 gaps=[(equation, 0.0)] * len(x))


def _norm(m):
    return float(np.linalg.norm(m))


def _normal_in_strip(seed):
    """X = U D U* with D off the strip boundary and of distinct moduli,
    and |X| = U |D| U*."""
    u = random_unitary(3, seed)
    d = np.array([0.5 + 1.0j, -1.5 + 0.0j, 2.0 - 0.5j]) * (1 + 0.1 * seed)
    return conj_by(u, np.diag(d)), conj_by(u, np.diag(np.abs(d)))


def _any_matrix(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


def _assert_fails_with(reports, key, want):
    for rep, value in zip(reports, want, strict=True):
        assert rep.hypothesis_met and not rep.passed
        assert rep.residuals[key] == pytest.approx(value, rel=1e-12)


def _not_called(*args, **kwargs):
    raise AssertionError("computed again")


def _spy(monkeypatch, name, bytes_of=False) -> list:
    """Record each call of the stacked kernel ``checks.<name>``: its stack
    size, or with ``bytes_of`` the bytes of each matrix."""
    calls, real = [], getattr(normlog.checks, name)

    def call(ms):
        calls.append([m.tobytes() for m in ms] if bytes_of else len(ms))
        return real(ms)

    monkeypatch.setattr(normlog.checks, name, call)
    return calls


def _attempt(pair, side):
    """The pair's decomposition of operand ``side``, or its error."""
    return pair._chunk.columns(side)[0]


def _lone_attempt(m):
    try:
        return normal_eig(m)
    except NormLogError as exc:
        return exc


def _same_attempt(got, ref):
    """Bit-for-bit equality of two decompositions, or two errors alike."""
    if isinstance(ref, NormLogError):
        return type(got) is type(ref) and str(got) == str(ref)
    return (got.v.tobytes() == ref.v.tobytes()
            and np.array(got.eigenvalues).tobytes()
            == np.array(ref.eigenvalues).tobytes()
            and got.bounds == ref.bounds)


class TestReportInvariants:
    def test_passed_requires_hypothesis(self):
        with pytest.raises(ValueError):
            CheckReport(check_name="x", passed=True, hypothesis_met=False)

    def test_residuals_must_be_finite(self):
        with pytest.raises(ValueError):
            CheckReport(check_name="x", passed=False, hypothesis_met=True,
                        residuals={"r": float("nan")})


class TestRealPart:
    def test_pure_imaginary_flip(self):
        rep = check_real_part(PairAnalysis(np.diag([PI * 1j]),
                                           np.diag([-PI * 1j])))
        assert rep.passed and rep.residuals["real_part"] <= 1e-12

    def test_shared_real_part(self):
        rep = check_real_part(PairAnalysis(np.diag([1 + PI * 1j]),
                                           np.diag([1 - PI * 1j])))
        assert rep.passed

    def test_gate_failure(self):
        rep = check_real_part(PairAnalysis(np.diag([1.0 + 0j]),
                                           np.diag([2.0 + 0j])))
        assert not rep.hypothesis_met and not rep.passed


def _family_regions(family):
    """The region objects of an isolating family: discs, then squares."""
    centres, radius, half, has_rect = family
    return ([Points((c,), radius=radius) for c in centres.tolist()]
            + [Rect(c.real - h, c.real + h, c.imag - h, c.imag + h)
               for c, h in zip(centres[has_rect].tolist(),
                               half[has_rect].tolist())])


def _loop_region_family(dec_x, dec_y, scale):
    """The isolating family as built region by region before it became
    arrays: the reference for its discs and squares."""
    margin = 10 * BOUNDARY_TOL
    radius = CLUSTER_TOL * max(1.0, scale)
    reps = dec_x.eigenvalues + dec_y.eigenvalues
    regions = []
    for lam in dec_x.eigenvalues:
        if math.pi - abs(lam.imag) <= margin:
            continue
        regions.append(Points((lam,), radius=radius))
        gap = min((abs(lam - mu) for mu in reps if abs(lam - mu) > radius),
                  default=1.0)
        half = min(gap / 3.0, (math.pi - abs(lam.imag)) / 2.0, 0.5)
        if half > margin:
            regions.append(Rect(lam.real - half, lam.real + half,
                                lam.imag - half, lam.imag + half))
    return regions


def _interior_measure(dec_x, dec_y, scale):
    """The interior measure of one pair, as a chunk of one."""
    return normlog.checks._interior_measures(
        record_of(dec_x), record_of(dec_y), np.array([0]),
        np.array([scale]))[0]


def _region_family(dec_x, dec_y, scale):
    """The isolating family of one pair, as a chunk of one, and its
    regions' slots: disc slots, then square slots."""
    cols_x, cols_y = record_of(dec_x), record_of(dec_y)
    family = normlog.checks._interior_region_family(
        cols_x.lam, cols_y.lam, cols_x.start, np.array([scale]))
    return family, np.concatenate(family[3:], axis=1)[0]


def _compact_family(dec_x, dec_y, scale):
    """``(centres, radius, half, has_rect)`` over the regions' centres."""
    (centres, radius, half, disc, rect), _ = _region_family(dec_x, dec_y,
                                                            scale)
    disc = disc[0]
    return centres[0, disc], radius[0], half[0, disc], rect[0, disc]


def _plain_interior_measure(dec_x, dec_y, scale):
    """The largest measured projection difference over the isolating
    family, region by region: the reference for the eigenbasis measure."""
    regions = _family_regions(_compact_family(dec_x, dec_y, scale))
    return max((frob(spectral_measure(dec_x, omega)
                     - spectral_measure(dec_y, omega)) for omega in regions),
               default=0.0)


def _block_decomposition(n, seed):
    """Decomposition with n distinct interior eigenvalues whose basis is
    block diagonal in random 2x2 unitaries.

    Columns from different blocks have disjoint supports, so turning one
    into another is exact in floating point and sqrt(2)*sin(theta) is the
    true measure even at theta = 1e-12.
    """
    v = np.zeros((n, n), dtype=complex)
    for b in range(0, n, 2):
        v[b:b + 2, b:b + 2] = random_unitary(2, seed + b)
    eigs = tuple(complex(-1.5 + 3.0 * j / n, 0.8 * math.sin(j))
                 for j in range(n))
    return SpectralDecomposition(v=v, eigenvalues=eigs,
                                 bounds=tuple(range(n + 1)))


def _rotated(dec, a, b, theta):
    """``dec`` with eigenvector columns a and b turned by theta."""
    c, s = math.cos(theta), math.sin(theta)
    v = dec.v.copy()
    v[:, a] = c * dec.v[:, a] + s * dec.v[:, b]
    v[:, b] = -s * dec.v[:, a] + c * dec.v[:, b]
    return SpectralDecomposition(v=v, eigenvalues=dec.eigenvalues,
                                 bounds=dec.bounds)


class TestSpectralAgreement:
    def test_identical_inputs(self):
        x, _, _ = random_normal_matrix(6, 31, im_range=PI - 0.2)
        rep = check_spectral_agreement(PairAnalysis(x, x.copy()))
        assert rep.passed

    def test_distinct_boundary_bases(self):
        d = np.diag([PI * 1j, -PI * 1j])
        x = conj_by(random_unitary(2, 11), d)
        y = conj_by(random_unitary(2, 12), d)
        rep = check_spectral_agreement(PairAnalysis(x, y))
        assert rep.passed
        assert rep.residuals["boundary_sum"] <= 1e-10

    def test_unequal_boundary_projections_fail_with_their_distance(self):
        # one eigenvalue on Im z = pi, its eigenvector u0 for X and v0 for
        # Y: the residual is ||u0 u0* - v0 v0*||, not divided by a norm
        d = np.diag([0.5 + PI * 1j, -1.0 + 0.2j, 1.5 - 1.0j])
        bases = [(random_unitary(3, seed), random_unitary(3, seed + 10))
                 for seed in range(3)]
        reports = check_spectral_agreement(_gate_given(
            [(conj_by(u, d), conj_by(v, d)) for u, v in bases]))
        _assert_fails_with(reports, "boundary_sum", [
            _norm(np.outer(u[:, 0], u[:, 0].conj())
                  - np.outer(v[:, 0], v[:, 0].conj())) for u, v in bases])

    def test_boundary_flip_diagonal(self):
        rep = check_spectral_agreement(PairAnalysis(np.diag([PI * 1j, 0]),
                                                    np.diag([-PI * 1j, 0])))
        assert rep.passed

    def test_gate_failure_out_of_strip(self):
        rep = check_spectral_agreement(PairAnalysis(np.diag([5j]),
                                                    np.diag([5j])))
        assert not rep.hypothesis_met

    def test_interior_residual_equals_plain_loop(self):
        # the measure is taken in the eigenbases, not from projections, so
        # it equals the maximum over every region of the measured
        # projection difference up to rounding, not bit for bit
        for family in (Family.BOUNDARY_FLIP_PAIR,
                       Family.DISTINCT_PROJECTION_PAIR, Family.INTERIOR_PAIR):
            for n in (8, 64):
                for seed in (5, 6, 7):
                    x, y, _ = make_pair(InstanceSpec(family, n, seed))
                    pair = PairAnalysis(x, y)
                    rep = check_spectral_agreement(pair)
                    assert rep.hypothesis_met
                    plain = _plain_interior_measure(*_row_facts(pair))
                    got = rep.residuals["interior_measure"]
                    assert abs(got - plain) <= 1e-14, (family, n, seed)

    @pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4, 0.1])
    @pytest.mark.parametrize("n", [8, 64])
    def test_rotated_eigenvectors_measure_sqrt2_sin_theta(self, n, theta):
        # two eigenvectors of different clusters turned by theta move the
        # projections of both clusters by sqrt(2)*sin(theta); the trace
        # form k_x + k_y - 2||V_y,S'* V_x,S||^2 loses this at small theta
        dec_x = _block_decomposition(n, seed=n)
        dec_y = _rotated(dec_x, 0, 3, theta)
        scale = float(np.linalg.norm(dec_x.eigenvalue_array))
        got = _interior_measure(dec_x, dec_y, scale)
        want = math.sqrt(2.0) * math.sin(theta)
        assert got == pytest.approx(want, rel=1e-6)
        assert _plain_interior_measure(dec_x, dec_y, scale) == pytest.approx(
            want, rel=1e-6)

    @pytest.mark.parametrize("theta", [1e-4, 0.1])
    def test_double_eigenvalue_rotations(self, theta):
        eigs = [0.5 + 0.2j, 0.5 + 0.2j, -1.0 + 1.0j, 1.2 - 2.0j, -0.3 - 0.7j]
        u = random_unitary(5, 81)
        x = conj_by(u, np.diag(eigs))
        dec = normal_eig(x)
        assert sorted(dec.multiplicities.tolist()) == [1, 1, 1, 2]
        double = int(np.argmax(dec.multiplicities))
        lo = dec.bounds[double]
        other = 0 if lo != 0 else 2
        scale = frob(x)
        # a rotation inside the eigenspace leaves every projection as it was
        inside = _interior_measure(
            dec, _rotated(dec, lo, lo + 1, theta), scale)
        assert inside <= 1e-14
        # a rotation across two eigenspaces moves both projections
        across = _interior_measure(
            dec, _rotated(dec, lo, other, theta), scale)
        assert across == pytest.approx(math.sqrt(2.0) * math.sin(theta),
                                       rel=1e-6)

    def test_empty_isolating_family_measures_zero(self):
        # every eigenvalue lies on a boundary line: no region isolates one
        x = conj_by(random_unitary(3, 91), np.diag([PI * 1j, -PI * 1j,
                                                   0.5 + PI * 1j]))
        pair = PairAnalysis(x, x.copy())
        centres = _compact_family(*_row_facts(pair))[0]
        assert len(centres) == 0
        rep = check_spectral_agreement(pair)
        assert rep.hypothesis_met
        assert rep.residuals["interior_measure"] == 0.0

    # every family whose operands are both normal
    @pytest.mark.parametrize("family", [f for f in Family
                                        if f is not Family.NON_NORMAL_LOG_PAIR],
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_one_pass_masks_equal_region_membership(self, family, n):
        x, y, _ = make_pair(InstanceSpec(family, n, 3))
        pair = PairAnalysis(x, y)
        dec_x, dec_y, norm_x = _row_facts(pair)
        arrays = _compact_family(dec_x, dec_y, norm_x)
        regions = _family_regions(arrays)
        loop = _loop_region_family(dec_x, dec_y, norm_x)
        assert regions == ([r for r in loop if isinstance(r, Points)]
                           + [r for r in loop if isinstance(r, Rect)])
        # probes on, inside and outside each disc rim and square edge
        centres, radius, half, _ = arrays
        steps = np.array([0.75, 1.0, 1.5]) * radius
        edge = half[:, None] + np.array([-1.0, 0.0, 0.5, 2.0]) * BOUNDARY_TOL
        probes = np.concatenate(
            [(centres[:, None] + u * steps).ravel()
             for u in (1, np.exp(1j * math.pi / 4))]
            + [(centres[:, None] + u * edge).ravel()
               for u in (1, -1, 1j, -1j, 1 + 1j)])
        family, slots = _region_family(dec_x, dec_y, norm_x)
        for z in (dec_x.eigenvalue_array, dec_y.eigenvalue_array, probes):
            (slot,) = np.nonzero(slots)
            masks = normlog.checks._isolating_masks(
                z[None], family, np.zeros_like(slot), slot)
            assert masks.shape == (len(regions), len(z))
            for row, omega in zip(masks, regions):
                assert row.tolist() == omega.contains(z).tolist()


class TestModulusEqual:
    def test_scalar_flip(self):
        rep = check_modulus_equal(PairAnalysis(np.diag([PI * 1j]),
                                               np.diag([-PI * 1j])))
        assert rep.passed

    def test_distinct_bases(self):
        d = np.diag([PI * 1j, -PI * 1j])
        x = conj_by(random_unitary(2, 21), d)
        y = conj_by(random_unitary(2, 22), d)
        rep = check_modulus_equal(PairAnalysis(x, y))
        assert rep.passed and rep.residuals["modulus"] <= 1e-8

    def test_mixed_spectrum(self):
        rep = check_modulus_equal(
            PairAnalysis(np.diag([1 + PI * 1j, -2 + 0j]),
                         np.diag([1 - PI * 1j, -2 + 0j])))
        assert rep.passed

    def test_unequal_moduli_fail_with_their_distance(self):
        # |X| != |Y|: the residual is ||U|D|U* - V|E|V*|| / max(1, ||X||)
        pairs = [(_normal_in_strip(seed), _normal_in_strip(seed + 10))
                 for seed in range(3)]
        reports = check_modulus_equal(_gate_given(
            [(x, y) for (x, _), (y, _) in pairs]))
        _assert_fails_with(reports, "modulus", [
            _norm(mx - my) / max(1.0, _norm(x))
            for (x, mx), (_, my) in pairs])


class TestModulusCommute:
    def test_similarity_partner(self):
        x = np.diag([PI * 1j, -PI * 1j])
        y = np.array([[PI * 1j, -2 * PI * 1j], [0, -PI * 1j]])  # T D T^-1
        rep = check_modulus_commute(PairAnalysis(x, y))
        assert rep.passed

    def test_block_scalar_modulus(self):
        # S mixes only the first two coordinates, where |X| is scalar
        x = np.diag([PI * 1j, -PI * 1j, 0])
        s = np.eye(3, dtype=complex)
        s[0, 1] = 0.7
        d = np.diag([PI * 1j, -PI * 1j, 0])
        y = s @ d @ np.linalg.inv(s)
        rep = check_modulus_commute(PairAnalysis(x, y))
        assert rep.passed

    def test_self_pair(self):
        x, _, _ = random_normal_matrix(4, 41, im_range=PI - 0.2)
        rep = check_modulus_commute(PairAnalysis(x, x.copy()))
        assert rep.passed

    def test_modulus_not_commuting_with_y_fails(self):
        # the residual is ||[|X|, Y]|| / max(1, ||X|| ||Y||)
        pairs = [(_normal_in_strip(seed), _any_matrix(seed))
                 for seed in range(3)]
        reports = check_modulus_commute(_gate_given(
            [(x, y) for (x, _), y in pairs]))
        _assert_fails_with(reports, "modulus_commutator", [
            _norm(mx @ y - y @ mx) / max(1.0, _norm(x) * _norm(y))
            for (x, mx), y in pairs])


class TestSquareCommute:
    def test_clean_boundary(self):
        rep = check_square_commute(
            PairAnalysis(np.diag([1 + PI * 1j, 2 + PI * 1j]),
                         np.diag([1 - PI * 1j, 2 + PI * 1j])))
        assert rep.passed

    def test_conjugate_pair_violates_hypothesis(self):
        x = np.diag([1 + PI * 1j, 1 - PI * 1j])
        y = np.diag([1 + PI * 1j, 1 + PI * 1j])    # exp(Y) = -e I = exp(X)
        rep = check_square_commute(PairAnalysis(x, y))
        assert not rep.hypothesis_met and not rep.passed

    def test_conjugate_pair_note_names_the_upper_member(self):
        # the cluster order of a pair's members rests on the rounding of
        # their real parts: each order, exact or one ulp apart, and
        # conjugated by a unitary, gives one note
        a, b = 0.5, 0.5 + 2 ** -53
        u = random_unitary(3, 5)
        pairs = []
        for first, second in ((a, a), (a, b), (b, a)):
            for upper_first in (True, False):
                d = [first + PI * 1j, second - PI * 1j]
                lam = np.array((d if upper_first else d[::-1]) + [0.25])
                # e^Y = e^X: Y conjugates X's boundary eigenvalues
                x, y = np.diag(lam), np.diag(lam.conj())
                pairs += [(x, y), (conj_by(u, x), conj_by(u, y))]
        reports = check_square_commute(_gate_given(pairs))
        assert {rep.notes for rep in reports} == {
            "conjugate pair on the strip boundary at 0.5+3.14159j; "
            "hypothesis not met"}

    def test_corner_points_exempt(self):
        rep = check_square_commute(PairAnalysis(np.diag([PI * 1j]),
                                                np.diag([-PI * 1j])))
        assert rep.passed

    def test_square_not_commuting_with_y_fails(self):
        # the residual is ||[X^2, Y]|| / max(1, ||X||^2 ||Y||)
        pairs = [(_normal_in_strip(seed)[0], _any_matrix(seed))
                 for seed in range(3)]
        reports = check_square_commute(_gate_given(pairs))
        _assert_fails_with(reports, "square_commutator", [
            _norm(x @ x @ y - y @ x @ x) / max(1.0, _norm(x) ** 2 * _norm(y))
            for x, y in pairs])


class TestDifferenceFormula:
    def test_boundary_oracle_tight(self):
        x = np.diag([PI * 1j, -PI * 1j])
        rep = check_difference_formula(PairAnalysis(x, -x, k_lo=-1, k_hi=0))
        assert rep.passed
        # X - Y = 2*pi*i*diag(1, -1) is reproduced essentially exactly
        assert rep.residuals["difference"] <= 1e-12

    def test_equal_inputs(self):
        x, _, _ = random_normal_matrix(5, 51, im_range=PI - 0.2)
        rep = check_difference_formula(PairAnalysis(x, x.copy(), k_lo=-1,
                                                    k_hi=0))
        assert rep.passed

    def test_distinct_bases_boundary(self):
        d = np.diag([PI * 1j, -PI * 1j])
        x = conj_by(random_unitary(2, 61), d)
        y = conj_by(random_unitary(2, 62), d)
        rep = check_difference_formula(PairAnalysis(x, y, k_lo=-1, k_hi=0))
        assert rep.passed


def _strip_sum_residual(pair):
    """The difference residual from the explicit sum over
    strip_projections: the reference for the per-cluster weights."""
    dec_x, dec_y, norm_x = _row_facts(pair)
    sp = strip_projections(dec_x, dec_y, pair.k_lo, pair.k_hi)
    n = dec_x.n
    rhs = np.zeros((n, n), dtype=complex)
    for k in range(pair.k_lo, pair.k_hi + 1):
        rhs += 2 * k * PI * 1j * (sp.p(k) - sp.q(k))
        rhs += (2 * k + 1) * PI * 1j * (sp.e(k) - sp.f(k))
    return frob((pair.x - pair.y) - rhs) / max(1.0, norm_x)


# every default suite entry whose operands are both normal, with its params
_NORMAL_ENTRIES = [(e["family"], e.get("params", {}))
                   for e in default_config()["families"]
                   if e["family"] != Family.NON_NORMAL_LOG_PAIR.value]


class TestDifferenceFormulaWeights:
    @pytest.mark.parametrize("entry", _NORMAL_ENTRIES,
                             ids=lambda e: "-".join([e[0], *map(str, e[1])]))
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_equals_sum_over_strip_projections(self, entry, n):
        family, params = entry
        for seed in (1, 2):
            x, y, meta = make_pair(InstanceSpec(Family(family), n, seed,
                                                params=params))
            # the self-adjoint families have exp(iX) = exp(Y), so their
            # exp gate is given as met to reach the formula
            pair = analyze_pair(x, y, meta)
            (rep,) = check_difference_formula(normlog.checks._Chunk(
                x[None], y[None], [pair.check_tol], [(pair.k_lo, pair.k_hi)],
                gaps=[("exp(X)=exp(Y)", 0.0)]))
            assert rep.hypothesis_met
            assert (abs(rep.residuals["difference"] - _strip_sum_residual(pair))
                    <= 1e-14)

    @pytest.mark.parametrize("x_imag, y_imag", [
        ([PI - 5e-10, 0.5], [PI - 5e-10, 0.5]),
        ([3 * PI + 5e-10, 0.1], [-PI + 5e-10, 0.1]),
    ])
    def test_ambiguous_spectrum_raises_as_strip_projections(self, x_imag,
                                                            y_imag):
        x = np.diag([0.5 + 1j * t for t in x_imag])
        y = np.diag([0.5 + 1j * t for t in y_imag])
        pair = PairAnalysis(x, y, k_lo=-1, k_hi=1)
        assert pair._chunk.exp_gaps("exp(X)=exp(Y)")[0] <= GATE_TOL
        with pytest.raises(AmbiguousBoundary) as expected:
            strip_projections(*_row_facts(pair)[:2], -1, 1)
        with pytest.raises(AmbiguousBoundary) as got:
            check_difference_formula(pair)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("x_imag, y_imag", [
        ([5.0, 0.2], [5.0 - TWO_PI, 0.2]),
        ([0.2, -0.3], [0.2, -0.3 - 2 * TWO_PI]),
    ])
    def test_spectrum_outside_window_is_skipped(self, x_imag, y_imag):
        x = np.diag([0.5 + 1j * t for t in x_imag])
        y = np.diag([0.5 + 1j * t for t in y_imag])
        pair = PairAnalysis(x, y, k_lo=-1, k_hi=0)
        gap = pair._chunk.exp_gaps("exp(X)=exp(Y)")[0]
        assert gap <= GATE_TOL
        with pytest.raises(SpectrumOutOfRange) as expected:
            strip_projections(*_row_facts(pair)[:2], -1, 0)
        rep = check_difference_formula(pair)
        assert not rep.hypothesis_met and not rep.passed
        assert rep.notes == (f"spectrum outside branch window [-1, 0]: "
                             f"{expected.value}")
        assert rep.residuals == {"exp_gate": gap}


def _band_pair(d, k_lo, k_hi, seed=0):
    """X = U diag(0.3 + i(pi - d), -0.7 - 1.1i, 1.1 + 2.0i, -0.2 - 2.6i) U*
    and Y the same with first eigenvalue 0.3 - i(pi + d): e^X = e^Y, and
    Y leaves the closed strip |Im z| <= pi for d > 0."""
    u = random_unitary(4, seed)
    rest = [-0.7 - 1.1j, 1.1 + 2.0j, -0.2 - 2.6j]
    x = conj_by(u, np.diag([0.3 + 1j * (PI - d)] + rest))
    y = conj_by(u, np.diag([0.3 - 1j * (PI + d)] + rest))
    return PairAnalysis(x, y, k_lo=k_lo, k_hi=k_hi)


class TestDifferenceFormulaWindow:
    @pytest.mark.parametrize("seed", range(3))
    def test_spectrum_below_the_window_skips(self, seed):
        rep = check_difference_formula(_band_pair(1e-4, -1, 0, seed))
        assert not rep.hypothesis_met and not rep.passed
        assert rep.notes.startswith("spectrum outside branch window [-1, 0]")

    @pytest.mark.parametrize("seed", range(3))
    def test_wider_window_holds_the_spectrum_and_passes(self, seed):
        rep = check_difference_formula(_band_pair(1e-4, -2, 1, seed))
        assert rep.hypothesis_met and rep.passed
        assert rep.notes == "branch window [-2, 1]"

    @pytest.mark.parametrize("d, k_lo, k_hi", [
        (1e-9, -2, 1), (5e-10, -1, 0), (5e-10, -2, 1), (-5e-10, -1, 0)])
    def test_inside_the_band_still_raises(self, d, k_lo, k_hi):
        with pytest.raises(AmbiguousBoundary):
            check_difference_formula(_band_pair(d, k_lo, k_hi))

    @pytest.mark.parametrize("seed", range(10))
    def test_band_edge_never_passes(self, seed):
        # at the edge of the band one signed distance decides both the
        # range test and strip k_lo: Y's eigenvalue is never admitted to
        # the window and decidedly inside strip -1 below it
        pair = _band_pair(1e-9, -1, 0, seed)
        try:
            rep = check_difference_formula(pair)
        except AmbiguousBoundary:
            return
        assert not rep.hypothesis_met and not rep.passed
        assert rep.notes.startswith("spectrum outside branch window [-1, 0]")
        with pytest.raises(SpectrumOutOfRange):
            strip_projections(*_row_facts(pair)[:2], -1, 0)


class TestCorollaryCases:
    def test_case_top_empty(self):
        x = np.diag([-PI * 1j, 0])
        y = np.diag([PI * 1j, 0])
        rep = check_corollary_cases(PairAnalysis(x, y))
        assert rep.passed and "top line empty" in rep.notes
        # X - Y = -2*pi*i*F1 with F1 = diag(1, 0) by direct arithmetic
        assert rep.residuals["difference_top"] <= 1e-12

    def test_case_bottom_empty(self):
        rep = check_corollary_cases(PairAnalysis(np.diag([PI * 1j, 0]),
                                                 np.diag([-PI * 1j, 0])))
        assert rep.passed and "bottom line empty" in rep.notes

    def test_case_both_empty_forces_equality(self):
        x, _, _ = random_normal_matrix(4, 71, im_range=PI - 0.3)
        rep = check_corollary_cases(PairAnalysis(x, x.copy()))
        assert rep.passed and "X = Y" in rep.notes

    def test_no_case_applies(self):
        x = np.diag([PI * 1j, -PI * 1j])
        rep = check_corollary_cases(PairAnalysis(x, x.copy()))
        assert not rep.hypothesis_met

    def test_unequal_pair_fails_every_case_with_its_distance(self):
        # X meets neither line, so all three cases apply; Y has one
        # eigenvalue on Im z = pi, eigenvector v0, and none on -pi: the
        # residuals are ||X - Y + 2*pi*i v0 v0*||, then ||X - Y|| twice,
        # each over max(1, ||X||)
        d = np.diag([0.3 + PI * 1j, -1.0 + 0.5j, 1.2 + 0.0j])
        pairs = [(_normal_in_strip(seed)[0], random_unitary(3, seed + 10))
                 for seed in range(3)]
        reports = check_corollary_cases(_gate_given(
            [(x, conj_by(v, d)) for x, v in pairs]))
        for key, top in (("difference_top", True),
                         ("difference_bottom", False), ("equality", False)):
            _assert_fails_with(reports, key, [
                _norm(x - conj_by(v, d) + top * TWO_PI * 1j
                      * np.outer(v[:, 0], v[:, 0].conj()))
                / max(1.0, _norm(x)) for x, v in pairs])


class TestCongruenceFree:
    def test_small_gap_is_free(self):
        x = np.diag([0.0, PI])
        rep = check_congruence_free(PairAnalysis(x, x))
        assert rep.passed

    def test_exact_collision(self):
        x = np.diag([0.0, TWO_PI])
        rep = check_congruence_free(PairAnalysis(x, x))
        assert not rep.passed

    def test_gaps_below_two_pi(self):
        x = np.diag([1.0, 2.0, 3.0])
        rep = check_congruence_free(PairAnalysis(x, x))
        assert rep.passed


class TestDoubleCommutant:
    def test_diagonal_instance(self):
        x = np.diag([0.0, PI])
        y = np.diag([0.0, PI * 1j - TWO_PI * 1j])
        rep = check_double_commutant(PairAnalysis(x, y))
        assert rep.passed

    def test_zero_pair(self):
        rep = check_double_commutant(PairAnalysis(np.zeros((2, 2)),
                                                  np.zeros((2, 2))))
        assert rep.passed

    def test_congruent_spectrum_skipped(self):
        rep = check_double_commutant(PairAnalysis(np.diag([0.0, TWO_PI]),
                                                  np.zeros((2, 2))))
        assert not rep.hypothesis_met and not rep.passed

    def test_congruence_report_computed_once_per_pair(self, monkeypatch):
        real = normlog.checks._congruence_reports
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def not_called(pair):
            raise AssertionError("double_commutant re-ran congruence_free")

        monkeypatch.setattr(normlog.checks, "_congruence_reports", spy)
        x, y, _ = make_pair(InstanceSpec(Family.SELF_ADJOINT_CONGRUENCE_FREE,
                                         6, 12))
        pair = PairAnalysis(x, y)
        first = check_congruence_free(pair)
        monkeypatch.setattr(normlog.checks, "check_congruence_free", not_called)
        assert check_double_commutant(pair).passed
        assert check_congruence_free(pair) is first and first.passed
        assert len(calls) == 1

    def test_normal_y_needs_no_commutant_basis(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("commutant_basis called for a normal Y")

        monkeypatch.setattr(normlog.checks, "commutant_basis", no_svd)
        x, y, _ = make_pair(InstanceSpec(Family.SELF_ADJOINT_CONGRUENCE_FREE,
                                         6, 11))
        rep = check_double_commutant(PairAnalysis(x, y))
        assert rep.passed and rep.residuals["double_commutant"] <= 1e-12

    @pytest.mark.parametrize("family", [Family.SELF_ADJOINT_CONGRUENCE_FREE,
                                        Family.ODD_PI_EIGENVALUE])
    def test_residual_is_the_worst_lone_distance(self, family):
        for n in (2, 3, 8):
            for seed in range(3):
                x, y, _ = make_pair(InstanceSpec(family, n, seed))
                pair = PairAnalysis(x, y)
                rep = check_double_commutant(pair)
                if not rep.hypothesis_met:
                    continue
                dec_x, dec_y, _ = _row_facts(pair)
                worst = max(bicommutant_distance(dec_y, dec_x.projection(j))
                            for j in range(len(dec_x.eigenvalues)))
                assert rep.residuals["double_commutant"].hex() == worst.hex()

    def test_non_normal_y_uses_commutant_basis(self, monkeypatch):
        # exp(iX) = diag(-1, -1, e^{0.5i}) = exp(Y) with Y not normal
        t = np.array([[1.0, 0.7], [0.0, 1.0]], dtype=complex)
        y = np.zeros((3, 3), dtype=complex)
        y[:2, :2] = t @ np.diag([PI * 1j, -PI * 1j]) @ np.linalg.inv(t)
        y[2, 2] = 0.5j
        x = np.diag([PI, PI, 0.5])
        calls = []
        real = normlog.checks.commutant_basis

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(normlog.checks, "commutant_basis", spy)
        pair = PairAnalysis(x, y)
        rep = check_double_commutant(pair)
        assert not pair._chunk.array("normal_y")[0]
        assert rep.passed and rep.residuals["double_commutant"] <= 1e-12
        assert len(calls) == 1


class TestOneBoundaryEigenvalue:
    def test_single_odd_pi(self):
        rep = check_one_boundary_eigenvalue(
            PairAnalysis(np.diag([PI, 0.0]), np.diag([PI * 1j, 0])))
        assert rep.passed

    def test_mirror_log(self):
        rep = check_one_boundary_eigenvalue(
            PairAnalysis(np.diag([PI, 0.0]), np.diag([-PI * 1j, 0])))
        assert rep.passed

    def test_two_odd_pi_skipped(self):
        x = np.diag([PI, 3 * PI])
        y = np.diag([PI * 1j, PI * 1j])
        rep = check_one_boundary_eigenvalue(PairAnalysis(x, y))
        assert not rep.hypothesis_met and not rep.passed

    def test_non_commuting_pair_fails(self):
        # a self-adjoint X with no odd-pi eigenvalue and a normal Y in the
        # strip, in other bases: the residual is ||XY - YX|| / max(1,
        # ||X|| ||Y||)
        pairs = []
        for seed in range(3):
            x = conj_by(random_unitary(3, seed), np.diag([0.3, -1.2, 2.0]))
            y = conj_by(random_unitary(3, seed + 10),
                        np.diag([0.4j, -1.0 + 0.5j, 1.1]))
            pairs.append(((x + dagger(x)) / 2, y))
        reports = check_one_boundary_eigenvalue(_gate_given(
            pairs, "exp(iX)=exp(Y)"))
        _assert_fails_with(reports, "commutator", [
            _norm(x @ y - y @ x) / max(1.0, _norm(x) * _norm(y))
            for x, y in pairs])


class TestYInBicommutant:
    def test_interior_diagonal(self):
        rep = check_y_in_bicommutant_of_exp(PairAnalysis(np.diag([0.0, 1.0]),
                                                         np.diag([0.0, 1j])))
        assert rep.passed
        assert rep.residuals["fold_identity"] <= 1e-12

    def test_full_turn_folds_to_zero(self):
        rep = check_y_in_bicommutant_of_exp(PairAnalysis(np.diag([TWO_PI]),
                                                         np.diag([0.0j])))
        assert rep.passed

    def test_odd_pi_skipped(self):
        rep = check_y_in_bicommutant_of_exp(PairAnalysis(np.diag([PI]),
                                                         np.diag([PI * 1j])))
        assert not rep.hypothesis_met and not rep.passed

    def test_y_other_than_folded_x_fails_with_its_distance(self):
        # X = U diag(lam) U* folds to U diag(i fold(lam)) U*; Y is a
        # normal matrix in the strip in another basis: the residual is
        # ||U diag(i fold(lam)) U* - Y|| / max(1, ||Y||)
        lam = np.array([0.3 + TWO_PI, -1.2, 2.0 - TWO_PI])
        pairs = []
        for seed in range(3):
            u = random_unitary(3, seed)
            x = conj_by(u, np.diag(lam))
            y = conj_by(random_unitary(3, seed + 10),
                        np.diag([0.4j, -1.0 + 0.5j, 1.1]))
            pairs.append(((x + dagger(x)) / 2, y, u))
        reports = check_y_in_bicommutant_of_exp(_gate_given(
            [(x, y) for x, y, _ in pairs], "exp(iX)=exp(Y)"))
        _assert_fails_with(reports, "fold_identity", [
            _norm(conj_by(u, np.diag(1j * _fold(lam))) - y)
            / max(1.0, _norm(y)) for _, y, u in pairs])

    def test_merged_groups_equal_bicommutant_distance(self):
        # eigenvalues of X 2*pi apart share one value e^{i lam}, so their
        # projections merge in {exp(iX)}''; in a chunk with generated
        # pairs whose clusters stay apart, each residual is, bit for bit,
        # the distance to the merged span that bicommutant_distance takes
        key = lambda z: cmath.exp(1j * z)
        pairs, merged = [], []
        for seed in range(4):
            u = random_unitary(4, 40 + seed)
            lam = np.array([0.5, 0.5 + TWO_PI, -1.0 - TWO_PI * seed, 2.0])
            x = conj_by(u, np.diag(lam))
            pairs.append(PairAnalysis((x + dagger(x)) / 2,
                                      conj_by(u, np.diag(1j * _fold(lam)))))
            merged.append(True)
        for seed in range(3):
            x, y, _ = make_pair(InstanceSpec(
                Family.SELF_ADJOINT_CONGRUENCE_FREE, 4, seed))
            pairs.append(PairAnalysis(x, y))
            merged.append(False)
        reports = check_y_in_bicommutant_of_exp(pairs)
        for pair, rep, planted in zip(pairs, reports, merged):
            assert rep.passed
            dec_x = pair._chunk.columns("x")[0]
            groups = _group_labels(dec_x, key)
            assert (len(set(groups.tolist()))
                    < len(dec_x.eigenvalues)) == planted
            assert (rep.residuals["double_commutant"].hex()
                    == bicommutant_distance(dec_x, pair.y, key).hex())


def _fold(lam):
    """Each real value folded into (-pi, pi] by a multiple of 2*pi."""
    return lam - TWO_PI * np.round(lam / TWO_PI)


class TestKurepaCheck:
    def test_oracle(self):
        y = np.array([[PI * 1j, -2 * PI * 1j], [0, -PI * 1j]])
        rep = check_kurepa(PairAnalysis(y, y))
        assert rep.passed

    def test_non_normal_exponential_skipped(self):
        y = np.array([[0, 1], [0, 0]], dtype=complex)
        rep = check_kurepa(PairAnalysis(y, y))
        assert not rep.hypothesis_met and not rep.passed

    def test_fails_on_a_decomposition_not_of_exp_y(self):
        # given an e^Y that is not Y's, N0 is not the principal log of
        # e^Y, and W = (Y - N0) / (2*pi*i) does not commute with it;
        # ||N0|| ||W|| < 1, so the residual is not divided by it
        y = np.diag([0.3j, -0.2j])
        wrong = conj_by(random_unitary(2, 0), np.diag(np.exp([0.5j, -0.4j])))
        (rep,) = check_kurepa(normlog.checks._Chunk(
            y[None], y[None], [CHECK_TOL], [(-1, 0)], exp_y=[wrong]))
        assert rep.hypothesis_met and not rep.passed
        assert rep.residuals["commute"] > CHECK_TOL
        assert check_kurepa(PairAnalysis(y, y)).passed

    def test_reconstruction_is_the_rounding_of_the_split(self):
        # N0 + 2*pi*i W equals Y up to rounding, which is not exactly 0
        # on these pairs: the residual is ||N0 + 2*pi*i W - Y|| / max(1,
        # ||Y||) of kurepa_decompose's N0 and W
        ys = [make_pair(InstanceSpec(Family.NON_NORMAL_LOG_PAIR, n, seed))[1]
              for n in (2, 4) for seed in range(3)]
        want = []
        for y in ys:
            ref = kurepa_decompose(y)
            want.append(_norm(ref.reconstruct() - y) / max(1.0, _norm(y)))
        assert min(want) > 0.0
        for n in (2, 4):
            chunk = [PairAnalysis(y, y) for y in ys if len(y) == n]
            for rep, value in zip(check_kurepa(chunk),
                                  [w for w, y in zip(want, ys)
                                   if len(y) == n], strict=True):
                assert rep.passed
                assert rep.residuals["reconstruction"] == pytest.approx(
                    value, rel=1e-12, abs=0.0)


# the sizes each family builds at, of 1, 2, 8, 16 and 64
_CHUNK_CASES = [(family, n) for family in Family for n in (1, 2, 8, 16, 64)
                if n >= 2 or family not in (Family.DISTINCT_PROJECTION_PAIR,
                                            Family.NON_NORMAL_LOG_PAIR)]


def _chunk(items):
    """The chunk of ``items`` in order, made as the suite makes one: each
    spec built with the others, given the build's e^Y and exponential
    gap, and each pair as it is, given neither."""
    built = iter(_make_pairs([item for item in items
                              if isinstance(item, InstanceSpec)]))
    return normlog.harness.suite._chunk([
        next(built) if isinstance(item, InstanceSpec) else (
            item.x, item.y, {"k_lo": item.k_lo, "k_hi": item.k_hi,
                             "equation": "exp(X)=exp(Y)",
                             "self_test_residual": None}, None)
        for item in items], CHECK_TOL)


def _pairs(chunk):
    """Each row of ``chunk`` as a lone pair, given no facts."""
    return [PairAnalysis(x, y, check_tol=tol, k_lo=k_lo, k_hi=k_hi)
            for x, y, tol, (k_lo, k_hi) in zip(chunk.x, chunk.y, chunk.tols,
                                                chunk.windows)]


def _lone_entry(name, pair):
    try:
        return run_check(name, pair)
    except NormLogError as exc:
        return exc


def _assert_same_entry(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.to_dict() == want.to_dict()
    for field in ("residuals", "tolerances"):
        assert ([float(v).hex() for v in getattr(got, field).values()]
                == [float(v).hex() for v in getattr(want, field).values()])


def _assert_chunk_equals_lone(chunk, names=CHECK_NAMES):
    for name in names:
        entries = getattr(normlog.checks, f"check_{name}")(chunk)
        assert len(entries) == len(chunk)
        for entry, pair in zip(entries, _pairs(chunk)):
            _assert_same_entry(entry, _lone_entry(name, pair))


def _pair_major_error(names, chunk):
    """The first error of the loop over each pair, then each check."""
    for pair in _pairs(chunk):
        for name in names:
            try:
                run_check(name, pair)
            except NormLogError as exc:
                return exc
    return None


class TestChunkNativeChecks:
    @pytest.mark.parametrize("family, n", _CHUNK_CASES,
                             ids=lambda v: getattr(v, "value", v))
    def test_every_check_equals_its_chunk_of_one(self, family, n):
        seeds = range(2 if n == 64 else 4)
        _assert_chunk_equals_lone(
            _chunk([InstanceSpec(family, n, seed) for seed in seeds]))

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_given_facts_only_save_work(self, family, n, monkeypatch):
        # the suite's chunk, given the build's e^Y and gaps, against a
        # chunk of the same stacks given nothing
        given = _chunk([InstanceSpec(family, n, seed) for seed in range(3)])
        bare = normlog.checks._Chunk(given.x, given.y, given.tols,
                                     given.windows)
        with monkeypatch.context() as m:
            m.setattr(normlog.checks, "_exp_stack", _not_called)
            normlog.checks._run_checks(_FAMILY_CHECKS[family], given)
        for name in CHECK_NAMES:
            check = getattr(normlog.checks, f"check_{name}")
            for got, want in zip(check(given), check(bare), strict=True):
                _assert_same_entry(got, want)

    def test_gates_that_hold_beside_gates_that_fail(self):
        # a conjugate-control pair among BoundaryFlipPair pairs, whose
        # corollary and square-commute hypotheses hold
        control = {"conjugate_pair": 1, "boundary": 2}
        chunk = _chunk([InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 8, seed,
                                     params=control if seed == 2 else {})
                        for seed in range(5)])
        _assert_chunk_equals_lone(chunk)
        for name in ("corollary_cases", "square_commute"):
            met = [r.hypothesis_met
                   for r in getattr(normlog.checks, f"check_{name}")(chunk)]
            assert met == [True, True, False, True, True]

    def test_mixed_families_and_a_non_normal_y_mid_chunk(self):
        # exp(iX) = exp(Y) with Y not normal: double_commutant takes the
        # commutant basis for it alone
        t = np.array([[1.0, 0.7], [0.0, 1.0]], dtype=complex)
        y = np.zeros((3, 3), dtype=complex)
        y[:2, :2] = t @ np.diag([PI * 1j, -PI * 1j]) @ np.linalg.inv(t)
        y[2, 2] = 0.5j
        odd = PairAnalysis(np.diag([PI, PI, 0.5]), y)
        specs = [InstanceSpec(family, 3, seed) for seed, family in enumerate(
            (Family.SELF_ADJOINT_CONGRUENCE_FREE, Family.INTERIOR_PAIR,
             Family.NON_NORMAL_LOG_PAIR, Family.ODD_PI_EIGENVALUE,
             Family.SELF_ADJOINT_CONGRUENCE_FREE))]
        chunk = _chunk(specs[:2] + [odd] + specs[2:])
        assert [p._chunk.array("normal_y").tolist()[0]
                for p in _pairs(chunk)] == [True, True, False, False, True,
                                            True]
        _assert_chunk_equals_lone(chunk)
        reports = check_double_commutant(chunk)
        assert reports[2].passed and reports[0].passed

    def test_chunk_raises_the_first_pair_major_error(self):
        # the band pair raises in difference_formula; the pair after it,
        # normal but with coupled parts, in spectral_agreement
        x = _coupled()
        broken = PairAnalysis(x, x)
        band = _band_pair(1e-9, -1, 0, seed=0)
        names = ("spectral_agreement", "difference_formula", "real_part")
        interior = [InstanceSpec(Family.INTERIOR_PAIR, 4, seed)
                    for seed in (0, 1)]
        chunk = _chunk([interior[0], band, broken, interior[1]])
        expected = _pair_major_error(names, chunk)
        assert isinstance(expected, AmbiguousBoundary)
        with pytest.raises(AmbiguousBoundary) as got:
            normlog.checks._run_checks(names, chunk)
        assert str(got.value) == str(expected)
        # each check keeps its error per entry
        entries = check_difference_formula(chunk)
        assert [type(e) for e in entries] == [
            CheckReport, AmbiguousBoundary, NotCommuting, CheckReport]
        assert isinstance(check_spectral_agreement(chunk)[2], NotCommuting)
        _assert_chunk_equals_lone(chunk)
        # without the band pair, the broken pair's first error
        with pytest.raises(NotCommuting):
            normlog.checks._run_checks(
                names, _chunk([interior[0], broken, interior[1]]))

    def test_each_check_runs_once_per_chunk(self, monkeypatch):
        calls = []
        for name in ("real_part", "difference_formula"):
            real = getattr(normlog.checks, f"check_{name}")
            monkeypatch.setattr(normlog.checks, f"check_{name}",
                                lambda c, _r=real: calls.append(c) or _r(c))
        report = run_suite({"sizes": [2, 4], "seeds": 6, "families": [
            {"family": "InteriorPair",
             "checks": ["real_part", "difference_formula"]}]})
        assert report["summary"]["passed"] == 24
        assert len(calls) == 4 and all(len(c) == 6 for c in calls)
        # the rows stay pair-major
        assert [r["check"] for r in report["results"][:4]] == [
            "real_part", "difference_formula"] * 2


# e^800 overflows; the norm of diag(1e200, 1) does (its square sums past
# the largest float), and so does e^(1e200)
_OVERFLOW_800 = np.diag([800.0, 1.0])
_BIG = np.diag([1e200, 1.0])
_NOT_FINITE = "an exponential is not finite; hypothesis not met"


class TestNonFiniteFacts:
    def test_overflowing_exponential_skips_without_a_warning(self):
        # X = Y: each exponential gate skips with one note and keeps no
        # gap, kurepa skips on its e^Y, and congruence_free, which reads
        # no exponential, passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = {name: run_check(name, PairAnalysis(_OVERFLOW_800,
                                                          _OVERFLOW_800))
                       for name in CHECK_NAMES}
        for name, rep in reports.items():
            if name == "congruence_free":
                assert rep.passed
                continue
            assert not rep.hypothesis_met and not rep.passed
            assert rep.residuals == {} and rep.tolerances == {}
            assert rep.notes == (
                "hypothesis not met: the matrix norm is not finite"
                if name == "kurepa" else _NOT_FINITE)

    @pytest.mark.parametrize("x, y", [(_OVERFLOW_800, _OVERFLOW_800),
                                      (_BIG, np.eye(2)), (np.eye(2), _BIG)],
                             ids=["exp-800", "big-x", "big-y"])
    def test_every_outcome_is_a_report_or_a_typed_error(self, x, y):
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in CHECK_NAMES:
                try:
                    outcomes.append(run_check(name, PairAnalysis(x, y)))
                except NormLogError as exc:
                    outcomes.append(exc)
        for outcome in outcomes:
            if isinstance(outcome, CheckReport):
                assert outcome.passed or not outcome.hypothesis_met
            else:
                assert isinstance(outcome, SpectrumOutOfRange)

    def test_overflow_in_a_chunk_leaves_the_other_rows_as_alone(self):
        # the stacked exponentials of a chunk given none hold the
        # overflowed row beside rows that pass
        specs = [InstanceSpec(Family.INTERIOR_PAIR, 2, seed)
                 for seed in (0, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunk = _chunk([specs[0], PairAnalysis(_OVERFLOW_800,
                                                   _OVERFLOW_800), specs[1]])
            _assert_chunk_equals_lone(chunk)
        assert [r.notes == _NOT_FINITE
                for r in check_real_part(chunk)] == [False, True, False]


class TestCrossTheoremConsistency:
    """Passing the measure-agreement check must imply the weaker ones."""

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_implies_real_part_and_modulus(self, seed):
        x, y, _ = make_pair(InstanceSpec(
            family=Family.BOUNDARY_FLIP_PAIR, n=4, seed=900 + seed))
        agree = check_spectral_agreement(PairAnalysis(x, y))
        assert agree.passed
        assert check_real_part(PairAnalysis(x, y)).passed
        assert check_modulus_equal(PairAnalysis(x, y)).passed

    @pytest.mark.parametrize("seed", range(6))
    def test_strip_formula_specializes_to_corollary(self, seed):
        # X with empty top line: the window [-1, 0] right side collapses
        # to -2*pi*i*F1
        x, y, _ = make_pair(InstanceSpec(
            family=Family.BOUNDARY_FLIP_PAIR, n=4, seed=1300 + seed,
            params={"side": -1}))
        dec_x, dec_y = normal_eig(x), normal_eig(y)
        e1 = spectral_measure(dec_x, HLine(PI))
        if frob(e1) > 1e-8:
            pytest.skip("instance has spectrum on the top line")
        sp = strip_projections(dec_x, dec_y, -1, 0)
        rhs = sum(2 * k * PI * 1j * (sp.p(k) - sp.q(k))
                  + (2 * k + 1) * PI * 1j * (sp.e(k) - sp.f(k))
                  for k in (-1, 0))
        f1 = spectral_measure(dec_y, HLine(PI))
        assert frob(rhs - (-TWO_PI * 1j * f1)) <= 1e-8 * max(1.0, frob(x))
