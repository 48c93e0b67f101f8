import cmath
import math

import numpy as np
import pytest

import normlog.linalg
from normlog.errors import ExpNotNormal, NotNormal, Singular
from normlog.harness import Family, InstanceSpec, make_pair, random_unitary
from normlog.linalg import dagger, frob
from normlog.logs import (
    _exp_stack,
    branch_log,
    exp_general,
    kurepa_decompose,
    principal_log,
)
from normlog.spectral import borel_calculus, normal_eig

from util import Stream, gaussian_matrix, random_normal_matrix

PI = math.pi


def exp_spectral(dec):
    """The exponential through the spectral decomposition: V diag(e^lam) V*."""
    return borel_calculus(dec, cmath.exp)


class TestExpNormal:
    def test_zero(self):
        assert np.allclose(exp_spectral(normal_eig(np.zeros((2, 2)))), np.eye(2))

    def test_boundary_pair(self):
        dec = normal_eig(np.diag([PI * 1j, -PI * 1j]))
        assert np.allclose(exp_spectral(dec), -np.eye(2), atol=1e-14)

    def test_scalar(self):
        dec = normal_eig(np.diag([1 + PI * 1j]))
        assert np.allclose(exp_spectral(dec), np.diag([-math.e]), atol=1e-13)


class TestExpGeneral:
    def test_zero(self):
        assert np.allclose(exp_general(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_series_terminates(self):
        e = exp_general(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.allclose(e, np.array([[1, 1], [0, 1]]), atol=1e-15)

    def test_scalar_pi(self):
        assert np.allclose(exp_general(np.diag([PI * 1j])), np.diag([-1.0]),
                           atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_spectral_exponential(self, n):
        for seed in range(3):
            x, _, _ = random_normal_matrix(n, 600 + 10 * n + seed,
                                           re_range=1.5, im_range=6.0)
            e_spec = exp_spectral(normal_eig(x))
            e_gen = exp_general(x)
            assert frob(e_gen - e_spec) <= 1e-10 * frob(e_spec)

    def test_large_norm_scaling(self):
        x = np.diag([30.0 + 5j, -30.0])
        expected = np.diag([np.exp(30.0 + 5j), np.exp(-30.0)])
        assert frob(exp_general(x) - expected) <= 1e-10 * frob(expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_stack_equals_lone_calls(self, n):
        # 1-norms from 0 to about 40: squaring counts 0 to 3 and the zero
        # matrix's identity, interleaved
        g = gaussian_matrix(Stream(n), n) / n
        scales = [0.5, 0.0, 40.0, 3.0, 0.5, 12.0, 1e-3, 0.0]
        stack = np.stack([s * g for s in scales])
        counts = [-1 if s == 0.0 else
                  max(0, math.ceil(math.log2(np.linalg.norm(m, 1) / 5.3719)))
                  for s, m in zip(scales, stack)]
        assert len(set(counts)) >= 4
        got = _exp_stack(stack)
        assert got.shape == stack.shape
        for m, e in zip(stack, got):
            assert e.tobytes() == exp_general(m).tobytes()
        assert got[1].tobytes() == np.eye(n, dtype=complex).tobytes()

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((2, 3, 3)), "expected a square matrix"),
        (np.zeros((2, 3, 3, 1)), "expected a square matrix"),
        (np.zeros((1, 2, 3)), "expected a square matrix"),
        (np.full((1, 2, 2), np.inf), "expected a square matrix"),
        (np.diag([np.inf, 1.0]), "finite"),
    ], ids=["stack", "4d", "non-square stack", "non-finite stack",
            "non-finite"])
    def test_rejects_bad_input(self, bad, message):
        # one matrix only: the stacked kernel is private
        with pytest.raises(ValueError, match=message):
            exp_general(bad)


class TestPrincipalLog:
    def test_identity(self):
        assert np.allclose(principal_log(np.eye(3)), np.zeros((3, 3)))

    def test_negative_real_goes_up(self):
        assert np.allclose(principal_log(np.diag([-1.0 + 0j])),
                           np.diag([PI * 1j]))

    def test_scalar_values(self):
        got = principal_log(np.diag([math.e, -math.e ** 2]))
        assert np.allclose(got, np.diag([1.0, 2.0 + PI * 1j]), atol=1e-13)

    def test_negative_real_with_rounding_noise(self):
        # an eigenvalue just below the axis must not flip to the -i*pi side
        n_mat = np.diag([-1.0 - 1e-15j])
        assert principal_log(n_mat)[0, 0].imag > 0

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            principal_log(np.diag([1.0, 0.0]))

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            principal_log(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_round_trip(self, n):
        for seed in range(3):
            x, _, _ = random_normal_matrix(n, 4200 + 10 * n + seed,
                                           re_range=1.5, im_range=PI - 0.05)
            back = principal_log(exp_spectral(normal_eig(x)))
            assert frob(back - x) <= 1e-8 * frob(x)


class TestBranchLog:
    def test_is_principal_log_of_the_decomposition(self):
        x, _, _ = random_normal_matrix(5, 98, re_range=1.0, im_range=2.0)
        e = exp_spectral(normal_eig(x))
        assert np.allclose(branch_log(normal_eig(e)),
                           principal_log(e))


class TestKurepa:
    def test_records_compare_by_identity(self):
        a = kurepa_decompose(np.diag([PI * 1j, 0.5]))
        b = kurepa_decompose(np.diag([PI * 1j, 0.5]))
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert {a: 1, b: 2}[b] == 2

        kd = kurepa_decompose(np.diag([PI * 1j]))
        assert np.allclose(kd.n0, np.diag([PI * 1j]))
        assert frob(kd.w) <= 1e-12
        assert kd.commute_residual <= 1e-12

    def test_similarity_oracle(self):
        # Y = T diag(i*pi, -i*pi) T^-1 with T = [[1,1],[0,1]]:
        # exp(Y) = -I, N0 = i*pi*I, W = [[0,-1],[0,-1]] by direct arithmetic
        y = np.array([[PI * 1j, -2 * PI * 1j], [0, -PI * 1j]])
        kd = kurepa_decompose(y)
        assert np.allclose(kd.n0, PI * 1j * np.eye(2), atol=1e-12)
        assert np.allclose(kd.w, np.array([[0, -1], [0, -1]]), atol=1e-12)
        eigs = sorted(np.linalg.eigvals(kd.w).real)
        assert np.allclose(eigs, [-1.0, 0.0], atol=1e-12)
        assert kd.commute_residual <= 1e-10
        assert kd.integer_spectrum_residual <= 1e-12

    def test_small_imaginary_stays_put(self):
        kd = kurepa_decompose(np.diag([3j]))   # 3 < pi
        assert np.allclose(kd.n0, np.diag([3j]), atol=1e-13)
        assert frob(kd.w) <= 1e-12

    def test_recovers_planted_shifts_unitary(self):
        stream = Stream(2024)
        u = random_unitary(4, stream.subseed())
        interior = [0.3 - 1j, -0.5 + 2j, 1.1 + 0.4j, -0.2 - 2.5j]
        shifts = [2, -1, 0, 3]
        d = np.diag([z + 2 * PI * 1j * k for z, k in zip(interior, shifts)])
        y = u @ d @ dagger(u)
        kd = kurepa_decompose(y)
        got = sorted(np.linalg.eigvals(kd.w).real)
        assert np.allclose(got, sorted(shifts), atol=1e-6)
        assert kd.integer_spectrum_residual <= 1e-6
        assert frob(kd.reconstruct() - y) <= 1e-12 * frob(y)

    def test_rejects_non_normal_exponential(self):
        with pytest.raises(ExpNotNormal) as exc:
            kurepa_decompose(np.array([[0, 1], [0, 0]], dtype=complex))
        assert str(exc.value) == "exp(Y) is not normal within tolerance"
        assert isinstance(exc.value.__cause__, NotNormal)

    def test_one_normality_decision_per_call(self, monkeypatch):
        # e^Y is tested once, by the decomposition its logarithm reads
        real = normlog.linalg._normality_holds
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(normlog.linalg, "_normality_holds", spy)
        _, non_normal_y, _ = make_pair(InstanceSpec(Family.NON_NORMAL_LOG_PAIR,
                                                    4, 0))
        for y in (np.diag([3j, 1 + 4j]), non_normal_y):
            calls.clear()
            kurepa_decompose(y)
            assert len(calls) == 1
        calls.clear()
        with pytest.raises(ExpNotNormal):
            kurepa_decompose(np.array([[0, 1], [0, 0]], dtype=complex))
        assert len(calls) == 1
