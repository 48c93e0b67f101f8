import numpy as np
import pytest

from normlog.errors import NotCommuting, NotHermitian
from normlog.harness import Stream, random_unitary
from normlog.linalg import (
    commutant_basis,
    dagger,
    frob,
    herm_eig,
    in_double_commutant,
    is_normal,
    modulus,
    simultaneous_diagonalize,
)
from normlog.spectral import normal_eig

from util import random_hermitian, random_normal_matrix


def _frob_inputs(n):
    g = Stream(n).complex_gaussian_matrix(n)
    yield "complex", g
    yield "real", g.real.copy()
    yield "complex F", np.asfortranarray(g)
    yield "real F", np.asfortranarray(g.real)
    yield "transposed", g.T
    yield "conjugate transposed", dagger(g)
    yield "real view", g.real
    yield "rows sliced", g[::2]
    yield "columns sliced", g[:, ::-2]
    yield "integer", np.arange(n * n).reshape(n, n)


class TestFrob:
    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    def test_equals_numpy_norm_bit_for_bit(self, n):
        for name, a in _frob_inputs(n):
            assert frob(a).hex() == float(np.linalg.norm(a, "fro")).hex(), name

    def test_returns_float(self):
        assert type(frob(np.eye(3, dtype=complex))) is float
        assert frob([[3.0, 4.0]]) == 5.0

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 2, 2))])
    def test_rejects_non_matrix(self, a):
        with pytest.raises(ValueError):
            frob(a)


class TestHermEig:
    def test_already_diagonal(self):
        w, v = herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])
        assert np.allclose(v @ dagger(v), np.eye(2))

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0 by hand
        w, _ = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_identity(self):
        w, v = herm_eig(np.eye(4))
        assert np.allclose(w, np.ones(4))
        assert frob(dagger(v) @ v - np.eye(4)) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_reconstruction_and_unitarity(self, n):
        for seed in range(4):
            h = random_hermitian(n, 1000 * n + seed)
            w, v = herm_eig(h)
            assert list(w) == sorted(w)
            assert frob(v @ np.diag(w) @ dagger(v) - h) <= 1e-10 * n * frob(h)
            assert frob(dagger(v) @ v - np.eye(n)) <= 1e-10 * n


class TestSimultaneousDiagonalize:
    @staticmethod
    def _offdiag(m):
        return frob(m - np.diag(np.diag(m)))

    def test_diagonal_pair(self):
        a, b = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        v = simultaneous_diagonalize(a, b)
        assert self._offdiag(dagger(v) @ a @ v) <= 1e-12
        assert self._offdiag(dagger(v) @ b @ v) <= 1e-12

    def test_identity_and_pauli(self):
        a = np.eye(2)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        v = simultaneous_diagonalize(a, b)
        # hand eigenvectors of b: (1, 1)/sqrt2 and (1, -1)/sqrt2
        assert self._offdiag(dagger(v) @ b @ v) <= 1e-12
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)))

    def test_same_matrix(self):
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        v = simultaneous_diagonalize(b, b)
        assert self._offdiag(dagger(v) @ b @ v) <= 1e-12

    def test_rejects_non_commuting(self):
        with pytest.raises(NotCommuting):
            simultaneous_diagonalize(np.diag([1.0, 2.0]),
                                     np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_random_commuting_pair(self, n):
        stream = Stream(55 + n)
        u = random_unitary(n, stream.subseed())
        da = np.diag([stream.uniform(-2, 2) for _ in range(n)])
        db = np.diag([stream.uniform(-2, 2) for _ in range(n)])
        a = u @ da @ dagger(u)
        b = u @ db @ dagger(u)
        a, b = (a + dagger(a)) / 2, (b + dagger(b)) / 2
        v = simultaneous_diagonalize(a, b)
        scale = frob(a) + frob(b)
        assert self._offdiag(dagger(v) @ a @ v) <= 1e-12 * n * scale
        assert self._offdiag(dagger(v) @ b @ v) <= 1e-12 * n * scale

    def test_degenerate_first_matrix(self):
        # a has a repeated eigenvalue; b decides the basis inside the cluster
        u = random_unitary(3, 77)
        a = u @ np.diag([1.0, 1.0, 2.0]) @ dagger(u)
        b = u @ np.diag([5.0, 6.0, 7.0]) @ dagger(u)
        a, b = (a + dagger(a)) / 2, (b + dagger(b)) / 2
        v = simultaneous_diagonalize(a, b)
        assert self._offdiag(dagger(v) @ b @ v) <= 1e-11


class TestIsNormal:
    def test_nilpotent_is_not(self):
        assert not is_normal(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_diagonal_is(self):
        assert is_normal(np.diag([1 + 2j, -3j, 0.5]))

    def test_rotation_is(self):
        # X*X = XX* = I by hand
        assert is_normal(np.array([[0, 1], [-1, 0]], dtype=complex))


class TestModulus:
    def test_imaginary_diagonal(self):
        m = modulus(np.diag([1j * np.pi, -1j * np.pi]))
        assert np.allclose(m, np.pi * np.eye(2))

    def test_zero(self):
        assert np.allclose(modulus(np.zeros((2, 2))), 0)

    def test_jordanish_block(self):
        # X*X = diag(0, 4) by hand
        m = modulus(np.array([[0, 2], [0, 0]], dtype=complex))
        assert np.allclose(m, np.diag([0.0, 2.0]), atol=1e-14)

    def test_idempotent_composition(self):
        x, _, _ = random_normal_matrix(6, 303)
        m = modulus(x)
        assert frob(modulus(m) - m) <= 1e-10 * max(1.0, frob(x))

    def test_psd_and_squares_to_gram(self):
        g = Stream(9).complex_gaussian_matrix(5)
        m = modulus(g)
        assert frob(m - dagger(m)) <= 1e-12 * frob(g)
        w, _ = herm_eig(m)
        assert w.min() >= -1e-12
        assert frob(m @ m - dagger(g) @ g) <= 1e-12 * 5 * frob(g) ** 2


class TestCommutant:
    def test_distinct_diagonal(self):
        # entrywise: z_ij (d_i - d_j) = 0 forces off-diagonal zeros
        cb = commutant_basis(np.diag([1.0, 2.0]))
        assert cb.dim == 2

    def test_identity(self):
        assert commutant_basis(np.eye(3)).dim == 9

    def test_nilpotent(self):
        y = np.array([[0, 1], [0, 0]], dtype=complex)
        cb = commutant_basis(y)
        assert cb.dim == 2
        # span must contain I and Y: project them onto the basis
        for target in (np.eye(2, dtype=complex), y):
            proj = sum(np.trace(dagger(b) @ target) * b for b in cb.basis)
            assert frob(proj - target) <= 1e-10

    def test_multiplicity_dimension_law(self):
        # diagonalizable with multiplicities (2, 1): dim = 4 + 1
        t = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)
        y = t @ np.diag([3.0, 3.0, 7.0]) @ np.linalg.inv(t)
        assert commutant_basis(y).dim == 5

    def test_trace_orthonormal_and_commuting(self):
        y, _, _ = random_normal_matrix(4, 404)
        cb = commutant_basis(y)
        gram = np.array([[np.trace(dagger(a) @ b) for b in cb.basis]
                         for a in cb.basis])
        assert frob(gram - np.eye(cb.dim)) <= 1e-10
        for b in cb.basis:
            assert frob(y @ b - b @ y) <= 1e-10 * frob(y) * frob(b)


def _repeated_eigenvalue_normal(n, seed):
    """Random normal matrix whose first eigenvalue is repeated, so its
    commutant is larger than its double commutant."""
    stream = Stream(7000 + seed)
    u = random_unitary(n, stream.subseed())
    eigs = [complex(stream.uniform(-2, 2), stream.uniform(-2, 2))
            for _ in range(max(1, n - 1))]
    eigs = (eigs + [eigs[0]])[:n]
    return u @ np.diag(eigs) @ dagger(u)


class TestDoubleCommutant:
    def test_identity_always_in(self):
        ok, res = in_double_commutant(np.eye(3), np.diag([1.0, 2.0, 2.0]))
        assert ok and res <= 1e-12

    def test_diagonal_pair(self):
        ok, _ = in_double_commutant(np.diag([1.0, 2.0]), np.diag([3.0, 7.0]))
        assert ok

    def test_nilpotent_not_in(self):
        # Z = diag(1, 0) commutes with Y but not with W
        ok, res = in_double_commutant(np.array([[0, 1], [0, 0]], dtype=complex),
                                      np.diag([1.0, 2.0]))
        assert not ok and res > 1e-8

    CASES = [(2, 1), (3, 2), (4, 3), (6, 4)]

    @pytest.mark.parametrize("n,seed", CASES)
    def test_spectral_projections_in_bicommutant(self, n, seed):
        # the commutant-SVD reference and the O(n^3) eigenbasis distance
        # both accept the eigenprojections of Y and polynomials in Y
        y = _repeated_eigenvalue_normal(n, seed)
        dec = normal_eig(y)
        members = [dec.projection(j) for j in range(len(dec.eigenvalues))]
        members += [y, y @ y, 2 * np.eye(n) + y - 0.5 * y @ y @ y]
        for w in members:
            ok, res = in_double_commutant(w, y)
            assert ok, res
            assert dec.bicommutant_distance(w) <= 1e-12

    @pytest.mark.parametrize("n,seed", CASES)
    def test_rejects_rank_one_inside_repeated_eigenspace(self, n, seed):
        y = _repeated_eigenvalue_normal(n, seed)
        dec = normal_eig(y)
        j = int(np.argmax(dec.multiplicities))
        assert dec.multiplicities[j] >= 2
        v = dec.v[:, dec.bounds[j]:dec.bounds[j] + 1]
        w = v @ dagger(v)               # commutes with Y, not a function of it
        assert frob(y @ w - w @ y) <= 1e-10 * frob(y)
        ok, res = in_double_commutant(w, y)
        assert not ok and res > 1e-2
        assert dec.bicommutant_distance(w) > 1e-2

    def test_key_groups_clusters_with_equal_values(self):
        # exp(iX) merges the eigenvalues 0 and 2*pi of X, so the
        # projection onto the eigenvalue 0 lies in {X}'' but not {exp(iX)}''
        x = np.diag([0.0, 2 * np.pi, 1.0]).astype(complex)
        e = np.diag(np.exp(1j * np.diag(x)))
        dec = normal_eig(x)
        expi = lambda lam: np.exp(1j * lam)
        merged = np.diag([1.0, 1.0, 0.0]).astype(complex)
        split = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert in_double_commutant(merged, e)[0]
        assert dec.bicommutant_distance(merged, expi) <= 1e-12
        assert dec.bicommutant_distance(split) <= 1e-12
        assert not in_double_commutant(split, e)[0]
        assert dec.bicommutant_distance(split, expi) > 0.1

    def test_zero_is_a_member(self):
        dec = normal_eig(np.diag([1.0, 2.0]))
        assert dec.bicommutant_distance(np.zeros((2, 2))) == 0.0
