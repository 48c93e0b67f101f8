import numpy as np
import pytest

import normlog.checks
import normlog.linalg
from normlog.errors import NotCommuting, NotHermitian
from normlog.harness import random_unitary
from normlog.harness import Family, InstanceSpec, make_pair
from normlog.linalg import (
    _frob_stack,
    _modulus_stack,
    _same_rows,
    as_square_matrix,
    commutant_basis,
    dagger,
    frob,
    herm_eig,
    in_double_commutant,
    is_normal,
    _eigh,
    modulus,
    simultaneous_diagonalize,
)
from normlog.config import CLUSTER_TOL
from normlog.spectral import normal_eig

from util import (Stream, _cluster_slices, _group_labels,
                  bicommutant_distance, gaussian_matrix, random_hermitian,
                  random_normal_matrix, record_of)


def _frob_inputs(n):
    g = gaussian_matrix(Stream(n), n)
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


class TestSquareCoercion:
    @pytest.mark.parametrize("coerce, a, message", [
        (as_square_matrix, np.zeros((2, 3)),
         "expected a square matrix, got shape (2, 3)"),
        (as_square_matrix, np.zeros((1, 2, 2)),
         "expected a square matrix, got shape (1, 2, 2)"),
        (as_square_matrix, np.zeros((0, 0)), "matrix dimension must be >= 1"),
        (as_square_matrix, [[1.0, np.inf], [0.0, 1.0]],
         "matrix entries must be finite"),
    ])
    def test_rejection_messages(self, coerce, a, message):
        with pytest.raises(ValueError) as exc:
            coerce(a)
        assert str(exc.value) == message

    def test_returns_complex(self):
        assert as_square_matrix([[1, 2], [3, 4]]).dtype == complex


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


class TestFrobStack:
    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_equals_frob_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        for n in range(1, 65):
            # each matrix at its own magnitude, 1e-3 to 1e3
            scale = 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1))
            a = scale * (rng.standard_normal((k, n, n))
                         + 1j * rng.standard_normal((k, n, n)))
            got = _frob_stack(a)
            assert got.shape == (k,)
            assert got.tobytes() == np.array([frob(m) for m in a]).tobytes()

    def test_views_and_empty_stacks(self):
        a = np.stack([gaussian_matrix(Stream(s), 6) for s in range(4)])
        for view in (a[::2], a.swapaxes(1, 2), a[:, ::2, ::2], a[:0]):
            assert (_frob_stack(view).tobytes()
                    == np.array([frob(m) for m in view]).tobytes())


class TestSameRows:
    def test_tells_signed_zeros_apart(self):
        a = np.diag([0.0, 1.0 + 2j])[None]
        b = np.diag([-0.0, 1.0 + 2j])[None]
        assert np.array_equal(a, b) and not _same_rows(a, b).any()
        assert _same_rows(a, a.copy()).all() and _same_rows(a, a).all()
        assert not _same_rows(a, -a).any() and not _same_rows(b, b.conj()).any()
        assert not _same_rows(a.real, b.real).any()

    def test_non_contiguous_stacks(self):
        g = np.stack([gaussian_matrix(Stream(s), 5) for s in range(4)])
        t = g.swapaxes(1, 2)
        assert _same_rows(t, np.ascontiguousarray(t)).all()
        assert _same_rows(g[::2], g[::2].copy()).all()
        assert _same_rows(g[:, ::2, 1:], g[:, ::2, 1:].copy()).all()
        assert not _same_rows(t, g).any()

    def test_mixed_stack(self):
        # each row is decided alone: equal, one ulp apart, a signed zero
        g = np.stack([gaussian_matrix(Stream(s), 3) for s in range(4)])
        g[2, 1, 1] = 0.0
        h = g.copy()
        h[1, 2, 0] = np.nextafter(g[1, 2, 0].real, np.inf) + 1j * g[1, 2, 0].imag
        h[2, 1, 1] = complex(0.0, -0.0)
        assert _same_rows(g, h).tolist() == [True, False, False, True]


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            simultaneous_diagonalize(np.array([[0, 1], [0, 0]], dtype=complex),
                                     np.eye(2))

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

    def test_clusters_of_mixed_sizes_match_per_cluster_eigh(self):
        # a has clusters of sizes 4, 1, 3 and 2, re-resolved together; each
        # must get the basis a lone eigh of its compression of b gives
        u = random_unitary(10, 5)
        a = u @ np.diag([1.0] * 4 + [2.0] + [3.0] * 3 + [4.0] * 2) @ dagger(u)
        b = u @ np.diag(np.linspace(-1.0, 2.0, 10)) @ dagger(u)
        a, b = (a + dagger(a)) / 2, (b + dagger(b)) / 2
        w, ref = _eigh(a)
        slices = _cluster_slices(w, CLUSTER_TOL * max(1.0, frob(a)))
        assert sorted(sl.stop - sl.start for sl in slices) == [1, 2, 3, 4]
        for sl in slices:
            if sl.stop - sl.start > 1:
                block = ref[:, sl]
                _, inner = _eigh(dagger(block) @ b @ block)
                ref[:, sl] = block @ inner
        assert simultaneous_diagonalize(a, b).tobytes() == ref.tobytes()

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

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_stack_equals_lone_calls(self, n):
        x, _, _ = random_normal_matrix(n, 40 + n)
        g = gaussian_matrix(Stream(n), n)
        stack = np.stack([x, g, np.zeros((n, n)), g @ g, x])
        for m, got in zip(stack, _modulus_stack(stack)):
            assert got.tobytes() == modulus(m).tobytes()

    def test_errors_kept_per_entry(self, monkeypatch):
        # X*X overflows: the lone call rejects it as herm_eig's input
        big = np.diag([1e200, 1.0]).astype(complex)
        g = gaussian_matrix(Stream(3), 2)
        stack = np.stack([g, big, g])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _modulus_stack(stack)
            with pytest.raises(ValueError) as lone:
                modulus(big)
        assert type(got[1]) is ValueError and str(got[1]) == str(lone.value)
        assert got[0].tobytes() == got[2].tobytes() == modulus(g).tobytes()
        # the Hermitian test is herm_eig's, entry by entry; rounding makes
        # a generic X*X fail a tolerance of 1e-300, a real diagonal one not
        monkeypatch.setattr(normlog.linalg, "HERM_TOL", 1e-300)
        stack = np.stack([g, g @ g, np.diag([2.0, 1j])])
        got = _modulus_stack(stack)
        assert not isinstance(got[2], Exception)
        for m, one in zip(stack, got):
            if isinstance(one, Exception):
                with pytest.raises(NotHermitian) as lone:
                    modulus(m)
                assert type(one) is NotHermitian
                assert str(one) == str(lone.value)
            else:
                assert one.tobytes() == modulus(m).tobytes()

    @pytest.mark.parametrize("bad", [np.zeros((2, 3, 4)), np.zeros((2, 3, 3)),
                                     np.diag([np.inf, 1.0])])
    def test_rejects_stacks_and_non_finite(self, bad):
        # one matrix only: the stacked kernel is private
        with pytest.raises(ValueError):
            modulus(bad)

    def test_psd_and_squares_to_gram(self):
        g = gaussian_matrix(Stream(9), 5)
        m = modulus(g)
        assert frob(m - dagger(m)) <= 1e-12 * frob(g)
        w, _ = herm_eig(m)
        assert w.min() >= -1e-12
        assert frob(m @ m - dagger(g) @ g) <= 1e-12 * 5 * frob(g) ** 2


class TestCommutant:
    def test_distinct_diagonal(self):
        # entrywise: z_ij (d_i - d_j) = 0 forces off-diagonal zeros
        cb = commutant_basis(np.diag([1.0, 2.0]))
        assert len(cb) == 2

    def test_identity(self):
        assert len(commutant_basis(np.eye(3))) == 9

    def test_nilpotent(self):
        y = np.array([[0, 1], [0, 0]], dtype=complex)
        cb = commutant_basis(y)
        assert len(cb) == 2
        # span must contain I and Y: project them onto the basis
        for target in (np.eye(2, dtype=complex), y):
            proj = sum(np.trace(dagger(b) @ target) * b for b in cb)
            assert frob(proj - target) <= 1e-10

    def test_multiplicity_dimension_law(self):
        # diagonalizable with multiplicities (2, 1): dim = 4 + 1
        t = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)
        y = t @ np.diag([3.0, 3.0, 7.0]) @ np.linalg.inv(t)
        assert len(commutant_basis(y)) == 5

    def test_trace_orthonormal_and_commuting(self):
        y, _, _ = random_normal_matrix(4, 404)
        cb = commutant_basis(y)
        gram = np.array([[np.trace(dagger(a) @ b) for b in cb]
                         for a in cb])
        assert frob(gram - np.eye(len(cb))) <= 1e-10
        for b in cb:
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
            assert bicommutant_distance(dec, w) <= 1e-12

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
        assert bicommutant_distance(dec, w) > 1e-2

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
        assert bicommutant_distance(dec, merged, expi) <= 1e-12
        assert bicommutant_distance(dec, split) <= 1e-12
        assert not in_double_commutant(split, e)[0]
        assert bicommutant_distance(dec, split, expi) > 0.1

    def test_zero_is_a_member(self):
        dec = normal_eig(np.diag([1.0, 2.0]))
        assert bicommutant_distance(dec, np.zeros((2, 2))) == 0.0

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_stacked_distances_equal_lone(self, family, monkeypatch):
        # every projection of X against {Y}'' in stacked calls of at most
        # 8192 // n^2 matrices, and any stack with and without a key,
        # against one call per matrix; zero matrices read 0.0 as alone
        expi = lambda lam: np.exp(1j * lam)
        calls = []
        real = normlog.checks._span_distances
        monkeypatch.setattr(normlog.checks, "_span_distances",
                            lambda v, labels, ws: calls.append(len(ws))
                            or real(v, labels, ws))
        for n in (1, 2, 3, 8, 16, 40):
            for seed in range(3):
                try:
                    x, y, _ = make_pair(InstanceSpec(family, n, seed))
                    dec_x, dec_y = normal_eig(x), normal_eig(y)
                except Exception:
                    continue
                calls.clear()
                worst = normlog.checks._projection_distances(
                    record_of(dec_x), record_of(dec_y), np.array([0]))
                projections = np.stack([dec_x.projection(j) for j
                                        in range(len(dec_x.eigenvalues))])
                lone = [bicommutant_distance(dec_y, p) for p in projections]
                assert worst[0].hex() == max(lone).hex()
                assert sum(calls) == len(projections)
                assert max(calls) <= max(1, 8192 // n ** 2)
                if n == 40:
                    assert len(calls) >= 8
                ws = np.concatenate((projections, [x, y, np.zeros_like(x)]))
                for key in (None, expi):
                    labels = np.broadcast_to(_group_labels(dec_y, key),
                                             ws.shape[:2])
                    got = real(dec_y.v[None], labels, ws).tolist()
                    assert all(type(d) is float for d in got)
                    assert [d.hex() for d in got] == [
                        bicommutant_distance(dec_y, w, key).hex() for w in ws]
