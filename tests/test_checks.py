import math

import numpy as np
import pytest

import normlog.checks
from normlog.checks import (
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
)
from normlog.errors import NotCommuting, NotNormal
from normlog.harness import Family, InstanceSpec, make_pair, random_unitary
from normlog.linalg import dagger, frob, is_normal
from normlog.logs import TWO_PI
from normlog.report import CheckReport
from normlog.spectral import HLine, normal_eig, spectral_measure

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
        # normal within tol.norm, but its Hermitian parts fail the tighter
        # commutation test of the simultaneous diagonalization
        x = np.diag([100.0, 0.0]) + 1e-10j * np.array([[0, 1], [1, 0]])
        pair = PairAnalysis(x, x)
        assert is_normal(x) and pair.normal_x is True
        for _ in range(2):
            with pytest.raises(NotCommuting):
                pair.dec_x

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
        # the check measures each distinct selection once; its residual
        # must be the maximum over every region, bit for bit
        x, y, _ = make_pair(InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 64, 5))
        pair = PairAnalysis(x, y)
        regions = normlog.checks._interior_region_family(
            pair.dec_x, pair.dec_y, frob(x), pair.tol)
        assert len(regions) > 64
        plain = 0.0
        for omega in regions:
            plain = max(plain, frob(spectral_measure(pair.dec_x, omega)
                                    - spectral_measure(pair.dec_y, omega)))
        rep = check_spectral_agreement(pair)
        assert rep.hypothesis_met
        assert rep.residuals["interior_measure"].hex() == plain.hex()


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

    def test_normal_y_needs_no_commutant_basis(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("commutant_basis called for a normal Y")

        monkeypatch.setattr(normlog.checks, "commutant_basis", no_svd)
        x, y, _ = make_pair(InstanceSpec(Family.SELF_ADJOINT_CONGRUENCE_FREE,
                                         6, 11))
        rep = check_double_commutant(PairAnalysis(x, y))
        assert rep.passed and rep.residuals["double_commutant"] <= 1e-12

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
        from normlog.spectral import strip_projections
        sp = strip_projections(dec_x, dec_y, -1, 0)
        rhs = sum(2 * k * PI * 1j * (sp.p[k] - sp.q[k])
                  + (2 * k + 1) * PI * 1j * (sp.e[k] - sp.f[k])
                  for k in (-1, 0))
        f1 = spectral_measure(dec_y, HLine(PI))
        assert frob(rhs - (-TWO_PI * 1j * f1)) <= 1e-8 * max(1.0, frob(x))
