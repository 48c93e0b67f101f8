import math

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
    decompose_pairs,
    run_check,
)
from normlog.config import BOUNDARY_TOL, CLUSTER_TOL, GATE_TOL
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
from normlog.harness.generators import _make_pairs
from normlog.logs import TWO_PI, _kurepa_splits, kurepa_decompose
from normlog.report import CheckReport
from normlog.spectral import (
    HLine,
    Points,
    Rect,
    SpectralDecomposition,
    normal_eig,
    spectral_measure,
    strip_projections,
)

from util import random_normal_matrix

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
            pair = PairAnalysis(m, nilpotent)
            assert pair.normal_x == is_normal(m)
            assert pair.normal_y is False

    def test_non_normal_decomposition_raises_not_normal(self):
        pair = PairAnalysis(np.eye(2), np.array([[0, 1], [0, 0]]))
        for _ in range(2):
            with pytest.raises(NotNormal):
                pair.dec_y

    def test_normal_input_whose_parts_fail_to_commute(self):
        # normal within NORM_TOL, but its Hermitian parts fail the tighter
        # commutation test of the simultaneous diagonalization
        x = np.diag([100.0, 0.0]) + 1e-10j * np.array([[0, 1], [1, 0]])
        pair = PairAnalysis(x, x)
        assert is_normal(x) and pair.normal_x is True
        for _ in range(2):
            with pytest.raises(NotCommuting):
                pair.dec_x

    def test_moduli_seeded_for_the_checks_that_read_them(self, monkeypatch):
        operands = [make_pair(InstanceSpec(family, 4, seed))[:2]
                    for family in (Family.BOUNDARY_FLIP_PAIR,
                                   Family.NON_NORMAL_LOG_PAIR)
                    for seed in range(3)]
        lone = [PairAnalysis(x, y) for x, y in operands]
        cases = {("modulus_equal",): ("modulus_x", "modulus_y"),
                 ("real_part", "modulus_commute"): ("modulus_x",),
                 ("real_part", "kurepa"): ()}
        for checks, seeded in cases.items():
            pairs = [PairAnalysis(x, y) for x, y in operands]
            decompose_pairs(pairs, checks)
            for pair, alone in zip(pairs, lone):
                for fact in ("modulus_x", "modulus_y"):
                    assert (fact in vars(pair)) == (fact in seeded)
                    if fact in seeded:
                        assert (vars(pair)[fact].tobytes()
                                == getattr(alone, fact).tobytes())

        def no_modulus(*args, **kwargs):
            raise AssertionError("modulus taken after seeding")

        pairs = [PairAnalysis(x, y) for x, y in operands]
        decompose_pairs(pairs, ("modulus_equal", "modulus_commute"))
        monkeypatch.setattr(normlog.checks, "modulus", no_modulus)
        for pair in pairs:
            check_modulus_equal(pair)
            check_modulus_commute(pair)

    def test_x_only_checks_leave_y_to_first_use(self):
        operands = [make_pair(InstanceSpec(family, 4, seed))[:2]
                    for family in (Family.BOUNDARY_FLIP_PAIR,
                                   Family.NON_NORMAL_LOG_PAIR)
                    for seed in range(3)]
        pairs = [PairAnalysis(x, y) for x, y in operands]
        decompose_pairs(pairs, ("modulus_commute", "square_commute",
                                "congruence_free"))
        for pair, (x, y) in zip(pairs, operands):
            assert "_attempt_x" in vars(pair)
            assert "_attempt_y" not in vars(pair)
            assert "_attempt_exp_y" not in vars(pair)
            # read later, Y's decomposition is the lone one
            assert _same_attempt(pair._attempt_y, _lone_attempt(y))
            assert _same_attempt(pair._attempt_x, _lone_attempt(x))

    def test_byte_equal_operands_analysed_once(self, monkeypatch):
        # an InteriorPair's Y equals X byte for byte; 0.0 and -0.0 differ
        stacks = {"decomposed": [], "moduli": []}

        def spy(name, real):
            def call(ms, **kwargs):
                stacks[name].append([m.tobytes() for m in ms])
                return real(ms, **kwargs)
            return call

        monkeypatch.setattr(normlog.checks, "normal_eig_stack",
                            spy("decomposed", normlog.checks.normal_eig_stack))
        monkeypatch.setattr(normlog.checks, "_modulus_stack",
                            spy("moduli", normlog.checks._modulus_stack))
        interior = [make_pair(InstanceSpec(Family.INTERIOR_PAIR, 4, seed))[:2]
                    for seed in range(3)]
        signed = (np.diag([0.0, 1.0 + 0j, 2.0, 3.0]),
                  np.diag([-0.0, 1.0 + 0j, 2.0, 3.0]))
        pairs = [PairAnalysis(x, y) for x, y in interior + [signed]]
        decompose_pairs(pairs, ("modulus_equal", "real_part"))
        for name in stacks:
            (stack,) = stacks[name]
            assert sorted(stack) == sorted(
                [x.tobytes() for x, _ in interior] + [m.tobytes() for m in signed])
        for pair in pairs[:3]:
            assert pair.dec_x is pair.dec_y
            assert pair.modulus_x is pair.modulus_y
        assert pairs[3].dec_x is not pairs[3].dec_y
        for pair, (x, y) in zip(pairs, interior + [signed]):
            assert _same_attempt(pair._attempt_y, _lone_attempt(y))
            assert pair.modulus_y.tobytes() == PairAnalysis(x, y).modulus_y.tobytes()

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_every_stacked_fact_a_check_reads_is_seeded(self, name,
                                                        monkeypatch):
        # after decompose_pairs, no check computes a decomposition or a
        # modulus of its own: the table names every one it reads
        pairs = []
        for family in Family:
            for seed in range(2):
                x, y, meta = make_pair(InstanceSpec(family, 4, seed))
                pairs.append(analyze_pair(x, y, meta, exp_gap=(
                    meta["equation"], meta["self_test_residual"])))
        decompose_pairs(pairs, (name,))

        def not_called(*args, **kwargs):
            raise AssertionError(f"{name} computed an unseeded fact")

        monkeypatch.setattr(normlog.checks, "normal_eig_stack", not_called)
        monkeypatch.setattr(normlog.checks, "modulus", not_called)
        for pair in pairs:
            try:
                run_check(name, pair)
            except NormLogError:
                pass

    def test_seeded_kurepa_equals_kurepa_decompose(self, monkeypatch):
        # the suite's path: the self-test's e^Y, decomposed in the stack
        specs = [InstanceSpec(Family.NON_NORMAL_LOG_PAIR, n, seed)
                 for n in (2, 5) for seed in range(3)]
        for n in (2, 5):
            built = _make_pairs([s for s in specs if s.n == n], True)
            pairs = []
            for x, y, meta, exp_y in built:
                pair = PairAnalysis(x, y)
                pair.exp_y = exp_y
                pairs.append(pair)
            # a Y whose exponential is not normal: kurepa skips it
            y = np.array([[0, 1], [0, 0]], dtype=complex)
            if n == 2:
                pairs.append(PairAnalysis(y, y))
            decompose_pairs(pairs, ("kurepa",))
            with monkeypatch.context() as m:
                for module in (normlog.checks, normlog.logs):
                    m.setattr(module, "exp_general", _not_called)
                m.setattr(normlog.checks, "normal_eig_stack", _not_called)
                m.setattr(normlog.logs, "normal_eig", _not_called)
                reports = [check_kurepa(pair) for pair in pairs]
                splits = [_kurepa_splits(pair.y[None],
                                         [pair._attempt_exp_y])[0]
                          if rep.hypothesis_met
                          else None for pair, rep in zip(pairs, reports)]
            for pair, rep, split in zip(pairs, reports, splits):
                alone = check_kurepa(PairAnalysis(pair.x, pair.y))
                assert rep.to_dict() == alone.to_dict()
                assert ([v.hex() for v in rep.residuals.values()]
                        == [v.hex() for v in alone.residuals.values()])
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

    def test_given_exp_gap_is_not_recomputed(self, monkeypatch):
        def no_exp(arg):
            raise AssertionError("exponential evaluated")

        monkeypatch.setattr(normlog.checks, "exp_general", no_exp)
        x = np.diag([0.5 + 1j])
        pair = PairAnalysis(x, x, exp_gap=("exp(X)=exp(Y)", 0.25))
        rep = check_real_part(pair)
        assert not rep.hypothesis_met and rep.residuals["exp_gate"] == 0.25
        pair = PairAnalysis(x.real, x.real, exp_gap=("exp(iX)=exp(Y)", 0.0))
        assert pair.exp_i_residual == 0.0

    def test_rejects_unknown_equation(self):
        with pytest.raises(ValueError):
            PairAnalysis(np.eye(2), np.eye(2), exp_gap=("exp(X)=Y", 0.0))

    def test_boundary_lines_measured_once_per_operand(self, monkeypatch):
        x, y, _ = make_pair(InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 8, 2))
        pair = PairAnalysis(x, y)
        chunk = normlog.checks._Chunk([pair])
        for side, dec in (("x", pair.dec_x), ("y", pair.dec_y)):
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


def _not_called(*args, **kwargs):
    raise AssertionError("computed again")


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


def _columns(dec):
    return normlog.checks._Columns([dec], dec.n)


def _interior_measure(dec_x, dec_y, scale):
    """The interior measure of one pair, as a chunk of one."""
    return normlog.checks._interior_measures(
        _columns(dec_x), _columns(dec_y), np.array([0]),
        np.array([scale]))[0]


def _region_family(dec_x, dec_y, scale):
    """The isolating family of one pair, as a chunk of one, and its
    regions' slots: disc slots, then square slots."""
    cols_x, cols_y = _columns(dec_x), _columns(dec_y)
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
                    plain = _plain_interior_measure(pair.dec_x, pair.dec_y,
                                                    pair.norm_x)
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
        centres = _compact_family(pair.dec_x, pair.dec_y, pair.norm_x)[0]
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
        arrays = _compact_family(pair.dec_x, pair.dec_y, pair.norm_x)
        regions = _family_regions(arrays)
        loop = _loop_region_family(pair.dec_x, pair.dec_y, pair.norm_x)
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
        family, slots = _region_family(pair.dec_x, pair.dec_y, pair.norm_x)
        for z in (pair.dec_x.eigenvalue_array, pair.dec_y.eigenvalue_array,
                  probes):
            masks = normlog.checks._isolating_masks(z[None], family)[0]
            masks = masks[slots]
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

    def test_corner_points_exempt(self):
        rep = check_square_commute(PairAnalysis(np.diag([PI * 1j]),
                                                np.diag([-PI * 1j])))
        assert rep.passed


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
    sp = strip_projections(pair.dec_x, pair.dec_y, pair.k_lo, pair.k_hi)
    n = pair.dec_x.n
    rhs = np.zeros((n, n), dtype=complex)
    for k in range(pair.k_lo, pair.k_hi + 1):
        rhs += 2 * k * PI * 1j * (sp.p(k) - sp.q(k))
        rhs += (2 * k + 1) * PI * 1j * (sp.e(k) - sp.f(k))
    return frob((pair.x - pair.y) - rhs) / max(1.0, pair.norm_x)


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
            # exp gate is passed as met to reach the formula
            pair = analyze_pair(x, y, meta, exp_gap=("exp(X)=exp(Y)", 0.0))
            rep = check_difference_formula(pair)
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
        assert pair.exp_residual <= GATE_TOL
        with pytest.raises(AmbiguousBoundary) as expected:
            strip_projections(pair.dec_x, pair.dec_y, -1, 1)
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
        assert pair.exp_residual <= GATE_TOL
        with pytest.raises(SpectrumOutOfRange) as expected:
            strip_projections(pair.dec_x, pair.dec_y, -1, 0)
        rep = check_difference_formula(pair)
        assert not rep.hypothesis_met and not rep.passed
        assert rep.notes == (f"spectrum outside branch window [-1, 0]: "
                             f"{expected.value}")
        assert rep.residuals == {"exp_gate": pair.exp_residual}


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
            strip_projections(pair.dec_x, pair.dec_y, -1, 0)


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
                dec_x = pair.dec_x
                worst = max(pair.dec_y.bicommutant_distance(dec_x.projection(j))
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
        assert not pair.normal_y
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


class TestKurepaCheck:
    def test_oracle(self):
        y = np.array([[PI * 1j, -2 * PI * 1j], [0, -PI * 1j]])
        rep = check_kurepa(PairAnalysis(y, y))
        assert rep.passed

    def test_non_normal_exponential_skipped(self):
        y = np.array([[0, 1], [0, 0]], dtype=complex)
        rep = check_kurepa(PairAnalysis(y, y))
        assert not rep.hypothesis_met and not rep.passed


# the sizes each family builds at, of 1, 2, 8, 16 and 64
_CHUNK_CASES = [(family, n) for family in Family for n in (1, 2, 8, 16, 64)
                if n >= 2 or family not in (Family.DISTINCT_PROJECTION_PAIR,
                                            Family.NON_NORMAL_LOG_PAIR)]


def _chunk(specs, extra=()):
    """Pairs built and decomposed as the suite builds a chunk, then the
    ``extra`` pairs."""
    pairs = []
    for x, y, meta, exp_y in _make_pairs(specs, True):
        pair = analyze_pair(x, y, meta, exp_gap=(
            meta["equation"], meta["self_test_residual"]))
        pair.exp_y = exp_y
        pairs.append(pair)
    pairs += extra
    decompose_pairs(pairs, CHECK_NAMES)
    return pairs


def _alone(pair):
    """A fresh analysis of the pair, with the exponential gaps it holds."""
    lone = PairAnalysis(pair.x, pair.y, check_tol=pair.check_tol,
                        k_lo=pair.k_lo, k_hi=pair.k_hi)
    for fact in ("exp_residual", "exp_i_residual"):
        if fact in vars(pair):
            vars(lone)[fact] = vars(pair)[fact]
    return lone


def _lone_entry(name, pair):
    try:
        return run_check(name, _alone(pair))
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


def _assert_chunk_equals_lone(pairs, names=CHECK_NAMES):
    for name in names:
        entries = getattr(normlog.checks, f"check_{name}")(pairs)
        assert len(entries) == len(pairs)
        for entry, pair in zip(entries, pairs):
            _assert_same_entry(entry, _lone_entry(name, pair))


def _pair_major_error(names, pairs):
    """The first error of the loop over each pair, then each check."""
    for pair in pairs:
        for name in names:
            try:
                run_check(name, _alone(pair))
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

    def test_gates_that_hold_beside_gates_that_fail(self):
        # a conjugate-control pair among BoundaryFlipPair pairs, whose
        # corollary and square-commute hypotheses hold
        control = {"conjugate_pair": 1, "boundary": 2}
        pairs = _chunk([InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 8, seed,
                                     params=control if seed == 2 else {})
                        for seed in range(5)])
        _assert_chunk_equals_lone(pairs)
        for name in ("corollary_cases", "square_commute"):
            met = [r.hypothesis_met
                   for r in getattr(normlog.checks, f"check_{name}")(pairs)]
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
        pairs = _chunk(specs[:2], [odd])
        pairs += _chunk(specs[2:])
        assert [p.normal_y for p in pairs] == [True, True, False, False,
                                               True, True]
        _assert_chunk_equals_lone(pairs)
        reports = check_double_commutant(pairs)
        assert reports[2].passed and reports[0].passed

    def test_chunk_raises_the_first_pair_major_error(self):
        # the band pair raises in difference_formula; the pair after it,
        # normal but with non-commuting parts, in spectral_agreement
        x = np.diag([100.0, 0.0, 1.0, 2.0]).astype(complex)
        x[0, 1] = x[1, 0] = 1e-10j
        broken = PairAnalysis(x, x)
        band = _band_pair(1e-9, -1, 0, seed=0)
        names = ("spectral_agreement", "difference_formula", "real_part")
        pairs = _chunk([InstanceSpec(Family.INTERIOR_PAIR, 4, 0)],
                       [band, broken])
        pairs += _chunk([InstanceSpec(Family.INTERIOR_PAIR, 4, 1)])
        expected = _pair_major_error(names, pairs)
        assert isinstance(expected, AmbiguousBoundary)
        with pytest.raises(AmbiguousBoundary) as got:
            normlog.checks.run_checks(names, pairs)
        assert str(got.value) == str(expected)
        # each check keeps its error per entry
        entries = check_difference_formula(pairs)
        assert [type(e) for e in entries] == [
            CheckReport, AmbiguousBoundary, NotCommuting, CheckReport]
        assert isinstance(check_spectral_agreement(pairs)[2], NotCommuting)
        _assert_chunk_equals_lone(pairs)
        # without the band pair, the broken pair's first error
        with pytest.raises(NotCommuting):
            normlog.checks.run_checks(names, pairs[:1] + pairs[2:])

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
