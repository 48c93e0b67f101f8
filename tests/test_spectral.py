import cmath
import itertools
import math

import numpy as np
import pytest

import normlog.spectral
from normlog.config import CLUSTER_TOL, COMM_TOL, NORM_TOL
from normlog.errors import (
    AmbiguousBoundary,
    NormLogError,
    NotCommuting,
    NotNormal,
    SpectrumOutOfRange,
)
from normlog.linalg import frob, is_normal
from normlog.spectral import (
    Rect,
    SpectralDecomposition,
    _decompose_stack,
    _fold_branch,
    borel_calculus,
    normal_eig,
    spectral_measure,
    strip_interior,
    strip_projections,
)

from normlog.harness import Family, InstanceSpec, make_pair, random_unitary

from util import (HLine, Points, normal_eig_stack, odd_line,
                  open_branch_strip, random_normal_matrix, scalar_normal_eig,
                  validate_decomposition, verify_pushforward)

PI = math.pi


class TestRegions:
    def test_closed_rect(self):
        r = Rect(0, 1, 0, 1)
        assert r.contains(0.5 + 0.5j)
        assert r.contains(1 + 1j)          # closed corner
        assert not r.contains(1.5 + 0.5j)

    def test_open_edge_excludes_exact_point(self):
        r = Rect(0, 1, 0, 1, incl_im_hi=False)
        assert not r.contains(0.5 + 1j)    # exactly on the excluded edge
        assert r.contains(0.5 + 0.5j)

    def test_band_near_excluded_edge_is_ambiguous(self):
        r = Rect(0, 1, 0, 1, incl_im_hi=False)
        with pytest.raises(AmbiguousBoundary):
            r.contains(0.5 + (1 - 5e-10) * 1j)
        with pytest.raises(AmbiguousBoundary):
            r.contains(0.5 + (1 + 5e-10) * 1j)

    def test_band_near_included_edge_counts_inside(self):
        r = Rect(0, 1, 0, 1)
        assert r.contains(0.5 + (1 + 5e-10) * 1j)

    def test_far_outside_beats_ambiguity(self):
        # decidedly out in Re, ambiguous in Im: overall decidedly out
        r = Rect(0, 1, 0, 1, incl_im_hi=False)
        assert not r.contains(5 + (1 - 5e-10) * 1j)

    def test_hline(self):
        line = HLine(PI)
        assert line.contains(3 + PI * 1j)
        assert line.contains(3 + (PI + 5e-10) * 1j)   # inside the band
        assert not line.contains(3 + (PI - 1e-3) * 1j)

    def test_points(self):
        pts = Points((1 + 1j,), radius=1e-6)
        assert pts.contains(1 + 1j + 1e-8)
        assert not pts.contains(1 + 1j + 1e-3)

    def test_strip_constructors(self):
        z_on = 1 + PI * 1j
        assert Rect(im_lo=-PI, im_hi=PI).contains(z_on)
        assert not strip_interior().contains(z_on)
        assert Rect().contains(1e6 - 1e6j)


    @pytest.mark.parametrize("build", [
        lambda: Rect(re_lo=math.nan),
        lambda: Rect(0, 1, math.nan, 1),
        lambda: HLine(math.nan),
        lambda: Points((0j,), radius=-1.0),
        lambda: Points((0j,), radius=math.nan),
    ], ids=["rect-re-lo", "rect-im-lo", "hline", "negative-radius", "nan-radius"])
    def test_rejects_non_finite_parameters(self, build):
        with pytest.raises(ValueError):
            build()

    def test_infinite_rect_edges_allowed(self):
        assert Rect(re_lo=-math.inf, re_hi=math.inf).contains(1e300 + 0j)


# Offsets from an edge or line: on the feature (within on_feature), in the
# boundary band (within boundary), and far away, on both sides.
_OFFSETS = (0.0, 5e-13, -5e-13, 5e-10, -5e-10, 2e-9, -2e-9, 0.3, -0.3, 7.0, -7.0)


def _grid(res, ims):
    return np.array([complex(r + dr, i + di) for r in res for i in ims
                     for dr in _OFFSETS for di in _OFFSETS])


_MEMBERSHIP_CASES = {
    "closed-rect": (Rect(0, 1, 0, 1), (0.0, 1.0), (0.0, 1.0)),
    "open-rect": (Rect(0, 1, 0, 1, False, False, False, False), (0.0, 1.0), (0.0, 1.0)),
    "half-open-rect": (Rect(-1, 2, 0, 1, incl_re_hi=False, incl_im_lo=False),
                       (-1.0, 2.0), (0.0, 1.0)),
    "unbounded-rect": (Rect(im_lo=-PI, im_hi=PI, incl_im_lo=False), (0.0,), (-PI, PI)),
    "whole-plane": (Rect(), (0.0,), (0.0,)),
    "hline": (HLine(PI), (0.0,), (PI,)),
    "points": (Points((1 + 1j, 1 + 1.5j), radius=1e-9), (1.0,), (1.0, 1.5)),
}


class TestArrayMembership:
    @staticmethod
    def _scalar(region, z):
        try:
            return region.contains(z)
        except AmbiguousBoundary:
            return None

    @pytest.mark.parametrize("case", sorted(_MEMBERSHIP_CASES))
    def test_array_matches_scalar(self, case):
        region, res, ims = _MEMBERSHIP_CASES[case]
        pts = _grid(res, ims)
        scalar = [self._scalar(region, z) for z in pts]
        decided = np.array([s is not None for s in scalar])
        assert decided.any()
        got = region.contains(pts[decided])
        assert got.dtype == bool and got.shape == (int(decided.sum()),)
        assert got.tolist() == [s for s in scalar if s is not None]
        assert region.contains(pts[decided].reshape(1, -1)).shape == (1, got.size)
        assert region.contains(list(pts[decided])).tolist() == got.tolist()
        if not decided.all():
            with pytest.raises(AmbiguousBoundary):
                region.contains(pts)

    def test_scalar_returns_bool(self):
        assert Rect(0, 1, 0, 1).contains(0.5 + 0.5j) is True
        assert Points((0j,)).contains(1.0) is False
        assert Rect().contains(np.complex128(3 + 4j)) is True

    def test_ambiguous_names_first_point_in_input_order(self):
        r = Rect(0, 1, 0, 1, incl_im_hi=False)
        first, second = 0.5 + (1 - 5e-10) * 1j, 0.25 + (1 + 5e-10) * 1j
        with pytest.raises(AmbiguousBoundary) as scalar:
            r.contains(first)
        with pytest.raises(AmbiguousBoundary) as array:
            r.contains(np.array([0.5 + 0.5j, first, 5 + 0j, second]))
        assert str(array.value) == str(scalar.value)
        assert str(first) in str(array.value)

    def test_empty_array(self):
        assert Rect(0, 1).contains(np.array([], dtype=complex)).shape == (0,)


class TestNormalEig:
    def test_diagonal_with_multiplicity(self):
        dec = normal_eig(np.diag([1 + 1j, 1 + 1j, 2 + 0j]))
        assert sorted(dec.multiplicities) == [1, 2]
        assert len(dec.eigenvalues) == 2

    def test_rotation_projections(self):
        # hand eigenvectors (1, +/-i)/sqrt2: projections (I -/+ iX)/2
        x = np.array([[0, 1], [-1, 0]], dtype=complex)
        dec = normal_eig(x)
        by_eig = {round(lam.imag): dec.projection(j)
                  for j, lam in enumerate(dec.eigenvalues)}
        assert set(by_eig) == {-1, 1}
        assert np.allclose(by_eig[1], (np.eye(2) - 1j * x) / 2, atol=1e-12)
        assert np.allclose(by_eig[-1], (np.eye(2) + 1j * x) / 2, atol=1e-12)

    def test_zero_matrix(self):
        dec = normal_eig(np.zeros((3, 3)))
        assert len(dec.eigenvalues) == 1
        assert np.allclose(dec.projection(0), np.eye(3))

    def test_rejects_non_normal(self):
        # X*X - XX* = diag(-1, 1) by hand
        with pytest.raises(NotNormal) as exc:
            normal_eig(np.array([[0, 1], [0, 0]], dtype=complex))
        assert str(exc.value) == "commutator of X with X* has norm 1.414e+00"

    def test_norm_is_frobenius_norm(self):
        # sqrt(sum_j m_j |lam_j|^2) = ||V diag(lam) V*||
        dec = normal_eig(np.diag([3.0, 3.0, 4j]))
        assert dec.multiplicities.tolist() == [1, 2]
        assert dec.norm == pytest.approx(math.sqrt(34.0), rel=1e-15)
        for seed in range(3):
            x, _, _ = random_normal_matrix(6, 500 + seed)
            assert normal_eig(x).norm == pytest.approx(frob(x), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_invariants_random(self, n):
        for seed in range(3):
            x, _, _ = random_normal_matrix(n, 9000 + 10 * n + seed)
            dec = normal_eig(x)
            res = validate_decomposition(dec, x)
            bound = 1e-10 * n * max(1.0, frob(x))
            assert max(res.values()) <= bound, res
            reps = dec.eigenvalues
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    assert abs(a - b) > 1e-8


class TestUnitaryBasis:
    # the eigenbasis measures of spectral_agreement assume V*V = I
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 8, 64, 128])
    def test_every_normal_operand(self, family, n):
        bound = 10 * n * np.finfo(float).eps
        for seed in range(3):
            for m in make_pair(InstanceSpec(family, n, seed))[:2]:
                if not is_normal(m):
                    continue  # the Y of NonNormalLogPair
                v = normal_eig(m).v
                assert frob(v.conj().T @ v - np.eye(n)) <= bound, seed


def _greedy_merge(values, radius):
    """The running-mean clustering normal_eig used before the connected
    components, on numpy scalars as it was called: the reference its
    decompositions must keep."""
    groups, sums = [], []
    for j, z in enumerate(np.asarray(values, dtype=complex)):
        for gi, g in enumerate(groups):
            if abs(z - sums[gi] / len(g)) <= radius:
                g.append(j)
                sums[gi] += z
                break
        else:
            groups.append([j])
            sums.append(z)
    return groups


def _union_find_components(values, radius):
    """Connected components over the full distance matrix."""
    zs = [complex(z) for z in values]
    parent = list(range(len(zs)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(zs)), 2):
        if abs(zs[i] - zs[j]) <= radius:
            parent[root(i)] = root(j)
    groups = {}
    for i in range(len(zs)):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


def _clustered_spectrum(n, seed, radius):
    """n values in a few clumps whose members sit about one radius apart,
    so chains, near misses and exact repeats all occur."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-2, 2, (max(1, n // 6), 2)) @ [1, 1j]
    values = (centres[rng.integers(len(centres), size=n)]
              + radius * rng.uniform(-1.5, 1.5, (n, 2)) @ [1, 1j])
    values[rng.random(n) < 0.2] = centres[0]
    return values.tolist()


def _merge(values, radius):
    """The groups of :func:`normlog.spectral._components` on a stack of
    one: each lists its indices in ascending order, and the groups are
    ordered by their smallest index."""
    groups = {}
    if values:
        labels = normlog.spectral._components(
            np.array(values, dtype=complex)[None], np.array([radius]))[0]
        for j, label in enumerate(labels.tolist()):
            groups.setdefault(label, []).append(j)
    return list(groups.values())


class TestMerge:
    R = 1e-3

    def test_chain_is_one_group_in_every_order(self):
        chain = [0.0, 0.6 * self.R, 1.2 * self.R]
        greedy_split = False
        for order in itertools.permutations(range(3)):
            values = [complex(chain[i]) for i in order]
            assert _merge(values, self.R) == [[0, 1, 2]]
            greedy_split |= len(_greedy_merge(values, self.R)) > 1
        assert greedy_split  # the greedy depends on the order

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_equals_union_find(self, n):
        for seed in range(20):
            values = _clustered_spectrum(n, 1000 * n + seed, self.R)
            assert (_merge(values, self.R)
                    == _union_find_components(values, self.R)), seed

    def test_independent_of_input_order(self):
        values = _clustered_spectrum(40, 7, self.R)
        groups = _merge(values, self.R)
        perm = np.random.default_rng(8).permutation(len(values)).tolist()
        permuted = _merge([values[i] for i in perm], self.R)
        assert sorted(sorted(perm[i] for i in g) for g in permuted) == groups

    def test_vertical_line(self):
        # one Re run: only the Im sweep separates the groups
        rng = np.random.default_rng(3)
        steps = np.where(rng.random(127) < 0.3, 0.7, 1.6) * self.R
        values = (0.5 + 1j * np.concatenate(([0.0], np.cumsum(steps)))).tolist()
        groups = _merge(values, self.R)
        assert groups == _union_find_components(values, self.R)
        assert 1 < len(groups) < 128

    def test_empty(self):
        assert _merge([], self.R) == []


class TestNormalEigClusters:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_equals_greedy_decomposition(self, family, n):
        # on every generated operand the components are the greedy's groups
        operands = []
        for seed in range(3):
            x, y, _ = make_pair(InstanceSpec(family, n, seed))
            operands += [x, y]
        decs = []
        for m in operands:
            try:
                decs.append((m, normal_eig(m)))
            except NotNormal:
                pass
        assert decs
        for m, dec in decs:
            ref = scalar_normal_eig(m, merge=_greedy_merge)
            assert (np.array(dec.eigenvalues).tobytes()
                    == np.array(ref.eigenvalues).tobytes())
            assert dec.bounds == ref.bounds
            assert dec.v.tobytes() == ref.v.tobytes()


def _same_decomposition(got, ref):
    """Bit-for-bit equality of two decompositions, or of two errors by
    type and message."""
    if isinstance(ref, NormLogError):
        return type(got) is type(ref) and str(got) == str(ref)
    return (isinstance(got, SpectralDecomposition)
            and got.v.tobytes() == ref.v.tobytes()
            and (np.array(got.eigenvalues).tobytes()
                 == np.array(ref.eigenvalues).tobytes())
            and got.bounds == ref.bounds)


def _lone(m):
    try:
        return normal_eig(m)
    except NormLogError as exc:
        return exc


class TestNormalEigStack:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 8, 16, 64])
    def test_equals_stacks_of_one(self, family, n):
        operands = [m for seed in range(3)
                    for m in make_pair(InstanceSpec(family, n, seed))[:2]]
        stacked = normal_eig_stack(operands)
        assert len(stacked) == len(operands)
        for m, got in zip(operands, stacked):
            (alone,) = normal_eig_stack([m])
            assert _same_decomposition(got, alone)
            assert _same_decomposition(got, _lone(m))

    def test_norm_that_overflows_is_out_of_range(self):
        # ||diag(1e200, 1)||^2 overflows, so no test is scaled by the norm
        # (the radius was inf, and both eigenvalues merged); an overflowed
        # exponential's inf and NaN entries fail alike, and neither
        # changes the row beside it
        big = np.diag([1e200, 1.0]).astype(complex)
        nan = np.array([[np.inf + 1j * np.nan, 0], [0, np.e]])
        ok = make_pair(InstanceSpec(Family.INTERIOR_PAIR, 2, 0))[0]
        with np.errstate(over="ignore"):
            with pytest.raises(SpectrumOutOfRange, match="not finite"):
                normal_eig(big)
            stacked = _decompose_stack(np.stack([big, ok, nan]))
        assert [type(e) for e in stacked.errors] == [
            SpectrumOutOfRange, type(None), SpectrumOutOfRange]
        assert _same_decomposition(stacked[1], normal_eig(ok))
        assert not stacked.lam[[0, 2]].any()

    def test_mixed_cluster_sizes(self):
        # clusters of Re X of several sizes across the stack: the odd-pi
        # value and the repeated congruence-free value (pairs), Y's +/- i*pi
        # eigenspaces, and planted clusters of sizes 2 to 4
        operands = [m for seed in range(4) for family in (
            Family.ODD_PI_EIGENVALUE, Family.SELF_ADJOINT_CONGRUENCE_FREE)
            for m in make_pair(InstanceSpec(family, 8, seed))[:2]]
        u = random_unitary(8, 3)
        for eigs in ([1 + 1j, 1 + 2j, 1 - 1j, 1 + 0j, 2 + 0j, 2 + 1j, 2 - 1j,
                      3 + 0j],
                     [0.5j, 0.5j, 1 + 0.5j, 1 - 0.5j, 0j, 2j, -2j, 4 + 4j]):
            operands.append(u @ np.diag(eigs) @ u.conj().T)
        sizes = set()
        for m in operands:
            w = np.linalg.eigvalsh((m + m.conj().T) / 2)
            runs = np.split(w, np.flatnonzero(np.diff(w) > 1e-8) + 1)
            sizes.update(len(r) for r in runs if len(r) > 1)
        assert sizes >= {2, 3, 4}
        stacked = normal_eig_stack(operands)
        for m, got in zip(operands, stacked):
            assert _same_decomposition(got, _lone(m))

    def test_records_compare_by_identity(self):
        x = np.diag([1.0, 2j])
        a, b = normal_eig(x), normal_eig(x)
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert {a: 1, b: 2}[b] == 2

    def test_errors_mid_stack(self):
        # a non-normal Y, and a normal matrix whose Hermitian parts fail
        # the commutation test, between normal neighbours
        non_normal = _failing_operand(NotNormal)
        not_commuting = _failing_operand(NotCommuting)
        normal = [make_pair(InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 2, seed))[0]
                  for seed in range(3)]
        operands = [normal[0], non_normal, normal[1], not_commuting, normal[2]]
        stacked = normal_eig_stack(operands)
        assert isinstance(stacked[1], NotNormal)
        assert isinstance(stacked[3], NotCommuting)
        for m, got in zip(operands, stacked):
            assert _same_decomposition(got, _lone(m))

    @pytest.mark.parametrize("error", [NotNormal, NotCommuting],
                             ids=lambda e: e.__name__)
    @pytest.mark.parametrize("at", ["first", "last", "both ends"])
    def test_errors_at_stack_ends(self, error, at):
        bad = _failing_operand(error)
        normal = [make_pair(InstanceSpec(Family.INTERIOR_PAIR, 2, seed))[0]
                  for seed in range(2)]
        operands = {"first": [bad] + normal, "last": normal + [bad],
                    "both ends": [bad] + normal + [bad]}[at]
        stacked = normal_eig_stack(operands)
        for m, got in zip(operands, stacked):
            assert isinstance(got, error) == (m is bad)
            assert _same_decomposition(got, _lone(m))

    @pytest.mark.parametrize("xs", [np.zeros((2, 2)), np.zeros((2, 2, 3)),
                                    np.zeros((1, 0, 0)),
                                    np.full((1, 2, 2), np.nan)])
    def test_rejects_bad_stack(self, xs):
        with pytest.raises(ValueError):
            normal_eig_stack(xs)


def _mixed_stack(n=4):
    """4 x 4 operands for each branch of the stacked clustering: single
    eigenvalues; runs in Re alone and in Im alone; exact repeats; -0.0
    and 0.0 parts; pairs 0.7 merge radii apart along Re and along Im,
    each one cluster; and between them NotNormal entries, a normal
    matrix whose parts commute only to rounding and a NotCommuting one."""
    u = random_unitary(n, 3)
    conj = lambda d: u @ np.diag(d) @ u.conj().T
    operands = [
        conj([1 + 1j, -1 - 0.5j, 2j, 0.5]),                  # single
        conj([1 + 1j, 1 - 1j, 1 + 0.25j, -2 + 0j]),          # one Re run
        # Re parts 0.7 radii of Re X apart: re-resolved by Im
        conj([1 + 1j, 1 + 0.7e-8 * 3 ** 0.5 + 2j, -1, 3j]),
        conj([1 + 1j, -1 + 1j, 2 + 1j, 0.5 - 2j]),           # one Im run
        conj([2 + 0j, 2 + 0j, -1j, 3 + 3j]),                 # exact repeat
        np.diag([complex(-0.0, 1.0), complex(0.0, -0.0), complex(2.0, -0.0),
                 complex(-0.0, -0.0)]),
        np.diag([complex(-0.0, -0.0)] * n),
        np.diag([1j, -1j, 1j, -1j]),                         # Re all equal
        np.diag([2j, -1j, 0.5j, 0j]),                        # ties in Re
    ]
    for d, step in ((np.array([1.0, 1.0, 3j, -2.0]), 1.0),
                    (np.array([1j, 1j, 3.0, -2.0]), 1j)):
        for _ in range(3):  # the gap scales with ||D||, which it changes
            d[1] = d[0] + step * 0.7 * CLUSTER_TOL * np.linalg.norm(d)
        operands += [np.diag(d), conj(d)]
    bad = [make_pair(InstanceSpec(Family.NON_NORMAL_LOG_PAIR, n, 0))[1],
           np.diag([100.0, 0.0, 0.0, 0.0]) + 1e-10j * np.eye(n)[[1, 0, 2, 3]],
           np.diag([1e4, 1e4 + 2e-3, 0.0, 0.0]) + 1j * np.eye(n)[[1, 0, 2, 3]]]
    return [operands[0], bad[0], *operands[1:5], bad[1], *operands[5:9],
            bad[2], *operands[9:], bad[0]]


class TestStackedClustering:
    def test_mixed_stack_equals_lone(self):
        operands = _mixed_stack()
        stacked = normal_eig_stack(operands)
        assert [type(d) for d in stacked].count(NotNormal) == 2
        assert [type(d) for d in stacked].count(NotCommuting) == 1
        decs = [d for d in stacked if isinstance(d, SpectralDecomposition)]
        assert {len(d.eigenvalues) for d in decs} >= {1, 2, 3, 4}
        for m, got in zip(operands, stacked):
            assert _same_decomposition(got, _lone(m))
        # a decomposition into single eigenvalues reproduces its matrix,
        # which needs the re-resolution of close Re eigenvalues by Im
        for m, got in zip(operands, stacked):
            if (isinstance(got, SpectralDecomposition)
                    and len(got.eigenvalues) == len(m)):
                assert (validate_decomposition(got, m)["reconstruction"]
                        <= 1e-10 * len(m) * max(1.0, frob(m)))
        # a representative is a mean, 0 + sum, so no part is -0.0
        assert all(math.copysign(1.0, part) == 1.0 for d in decs
                   for z in d.eigenvalues for part in (z.real, z.imag)
                   if part == 0.0)

    def test_failed_rows_add_nothing(self):
        # a row that failed to decompose has a zero basis, zero
        # representatives and one cluster per column
        record = _decompose_stack(np.stack(_mixed_stack()))
        failed = [i for i, e in enumerate(record.errors) if e is not None]
        assert len(failed) == 3
        assert not record.vt[failed].any() and not record.lam[failed].any()
        assert record.start[failed].all()

    def test_wrong_stacked_boundary_is_caught(self, monkeypatch):
        # components joined at half the merge radius take the pairs 0.7
        # radii apart for single eigenvalues: the comparison with the
        # scalar oracle must see it
        operands = _mixed_stack()
        components = normlog.spectral._components
        monkeypatch.setattr(normlog.spectral, "_components",
                            lambda z, radius: components(z, radius / 2))
        mutated = normal_eig_stack(operands)
        assert not all(
            isinstance(got, want) if isinstance(want, type)
            else _same_decomposition(got, want)
            for got, want in zip(mutated, map(scalar_normal_eig, operands)))


def _failing_operand(error):
    if error is NotNormal:
        return make_pair(InstanceSpec(Family.NON_NORMAL_LOG_PAIR, 2, 0))[1]
    # normal within NORM_TOL (0.28 of it), but its parts fail the
    # commutation test, and Re X's gap 2e-3, above the merge radius,
    # leaves Im X coupled: its eigenvalues are about 1e4 + 1e-3 -+ i
    return np.diag([1e4, 1e4 + 2e-3]) + 1j * np.array([[0, 1], [1, 0]])


def _reference_normal(x):
    """``(residual, threshold)`` of the normality rule on X*X - XX* itself,
    the reference the commutator of the Hermitian parts must reproduce."""
    residual = frob(x.conj().T @ x - x @ x.conj().T)
    return residual, NORM_TOL * max(frob(x) ** 2, 1e-300)


def _near_threshold(d, nil, ratio):
    """D + t N with t tuned so the reference residual is ``ratio`` times
    its threshold."""
    t = 1e-10
    for _ in range(8):  # the residual is nearly linear in t: rescale t
        residual, bound = _reference_normal(d + t * nil)
        t *= ratio * bound / residual
    return d + t * nil


class TestNormalityVerdict:
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 8, 16, 64])
    def test_every_generated_operand(self, family, n):
        operands = [m for seed in range(3)
                    for m in make_pair(InstanceSpec(family, n, seed))[:2]]
        stacked = normal_eig_stack(operands)
        for m, got in zip(operands, stacked):
            residual, bound = _reference_normal(m)
            assert is_normal(m) == (residual <= bound)
            assert (not isinstance(got, NotNormal)) == is_normal(m)
            if isinstance(got, NotNormal):
                assert str(got) == (f"commutator of X with X* has norm "
                                    f"{residual:.3e}")

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_near_the_threshold(self, conjugated):
        d = np.diag([1 + 2j, -0.5 + 1j, 0.3j])
        nil = np.zeros((3, 3), dtype=complex)
        nil[0, 1] = nil[1, 2] = 1.0
        if conjugated:
            u = random_unitary(3, 11)
            d, nil = u @ d @ u.conj().T, u @ nil @ u.conj().T
        ratios = (0.5, 0.9, 1.1, 2.0)
        operands = [_near_threshold(d, nil, r) for r in ratios]
        stacked = normal_eig_stack(operands)
        for r, m, got in zip(ratios, operands, stacked):
            residual, bound = _reference_normal(m)
            assert residual / bound == pytest.approx(r, rel=1e-3)
            assert is_normal(m) == (r < 1)
            assert isinstance(got, NotNormal) == (r > 1)

    @pytest.mark.parametrize("s", [100, 1000, 10 ** 4, 10 ** 6])
    def test_large_input_not_symmetrized(self, s):
        # finite sections of an unbounded self-adjoint X: lam_j =
        # 2 pi (k_j + f_j) with |k_j| <= s, conjugated by U and not made
        # Hermitian again, so [Re X, Im X] is about u ||X||^2, far above
        # COMM_TOL's floor: the basis found leaves no coupling, and every
        # decomposition meets criterion 1
        n = 8
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f = (np.arange(n) + 0.5) / n - 0.5 + rng.uniform(-0.02, 0.02, n)
            k = rng.integers(-s, s, endpoint=True, size=n)
            u = random_unitary(n, seed + 1)
            x = u @ np.diag(2 * PI * (k + f)).astype(complex) @ u.conj().T
            dec = normal_eig(x)
            assert (validate_decomposition(dec, x)["reconstruction"]
                    <= 1e-10 * n * frob(x))
            with pytest.raises(NotNormal):
                normal_eig(x + s * np.eye(n, k=1))

    def test_commutation_near_its_threshold(self):
        # normal, but the Hermitian parts commute only up to t ||[A, S]||,
        # on both sides of ||[A, B]|| = COMM_TOL * max(1, ||A|| ||B||),
        # taken here with frob on each matrix: the basis found leaves no
        # coupling, and every operand decomposes within criterion 1
        a = np.diag([100.0, 0.0, 0.0, 0.0]).astype(complex)
        swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
        u = random_unitary(4, 2)
        operands = []
        for t in (1e-13, 1e-12, 5e-12, 1e-11, 1e-10, 3e-10):
            operands += [a + 1j * t * swap,
                         u @ (a + 1j * t * swap) @ u.conj().T]
        above = []
        for m, got in zip(operands, normal_eig_stack(operands)):
            re, im = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
            residual = frob(re @ im - im @ re)
            above.append(residual > COMM_TOL * max(1.0, frob(re) * frob(im)))
            assert is_normal(m)
            assert (validate_decomposition(got, m)["reconstruction"]
                    <= 1e-10 * 4 * frob(m))
        assert any(above) and not all(above)

    @pytest.mark.parametrize("corner, margin", [(1e4, "0.96"),
                                                (1e4 + 1e4j, "0.48")])
    def test_normal_within_tolerance_whose_parts_stay_coupled(self, corner,
                                                              margin):
        # one large eigenvalue lets a block whose parts do not commute
        # pass the normality test (2 ||[Re X, Im X]|| is 0.96 or 0.48 of
        # NORM_TOL ||X||^2; with Im X large, the commutation test too);
        # its Re gap 2e-4 lies outside the merge radius, so the basis of
        # Re X leaves Im X coupled, and keeping its diagonal would miss
        # criterion 1 by 1e7: it raises, naming the normality margin,
        # alone and mid-stack
        x = np.diag([0.0, 2e-4, corner]).astype(complex)
        x[0, 1] = x[1, 0] = 17j
        u = random_unitary(3, 5)
        operands = [x, u @ x @ u.conj().T]
        for m in operands:
            assert is_normal(m)
            with pytest.raises(NotCommuting,
                               match=f"normality test at {margin}"):
                normal_eig(m)
        normal = np.diag([1.0, 2.0, 3.0]).astype(complex)
        stacked = normal_eig_stack([normal, *operands, normal])
        assert [type(d) for d in stacked] == [SpectralDecomposition,
                                              NotCommuting, NotCommuting,
                                              SpectralDecomposition]


class TestSpectralMeasure:
    def test_line_pick(self):
        dec = normal_eig(np.diag([1 + PI * 1j, 2 + 0j]))
        assert np.allclose(spectral_measure(dec, HLine(PI)), np.diag([1, 0]))

    def test_open_strip_excludes_boundary(self):
        dec = normal_eig(np.diag([1 + PI * 1j, 2 + 0j]))
        assert np.allclose(spectral_measure(dec, strip_interior()),
                           np.diag([0, 1]))

    def test_half_open_rect(self):
        dec = normal_eig(np.diag([1j, 2j, 3j]))
        omega = Rect(im_lo=1.0, im_hi=3.0, incl_im_lo=False)
        assert np.allclose(spectral_measure(dec, omega), np.diag([0, 1, 1]))

    def test_whole_plane_and_empty(self):
        x, _, _ = random_normal_matrix(5, 171)
        dec = normal_eig(x)
        assert np.allclose(spectral_measure(dec, Rect()), np.eye(5))
        far = Points((1000 + 1000j,), radius=1e-9)
        assert np.allclose(spectral_measure(dec, far), np.zeros((5, 5)))
        assert np.allclose(spectral_measure(dec, Points(())), np.zeros((5, 5)))

    def test_additivity_disjoint(self):
        x, eigs, _ = random_normal_matrix(6, 353)
        dec = normal_eig(x)
        left = Rect(re_hi=0.0, incl_re_hi=False)
        right = Rect(re_lo=0.0)
        if any(abs(z.real) < 1e-8 for z in eigs):
            pytest.skip("eigenvalue on the splitting line")
        total = spectral_measure(dec, left) + spectral_measure(dec, right)
        assert frob(total - np.eye(6)) <= 1e-10

    def test_result_commutes_with_input(self):
        x, _, _ = random_normal_matrix(6, 77)
        dec = normal_eig(x)
        e = spectral_measure(dec, Rect(im_lo=0.0))
        assert frob(e @ x - x @ e) <= 1e-8 * frob(x)

    def test_ambiguous_eigenvalue_raises(self):
        dec = normal_eig(np.diag([1 + (PI - 5e-10) * 1j]))
        with pytest.raises(AmbiguousBoundary):
            spectral_measure(dec, strip_interior())


class TestBorelCalculus:
    def test_identity_reconstructs(self):
        x, _, _ = random_normal_matrix(5, 12)
        dec = normal_eig(x)
        assert frob(borel_calculus(dec, lambda z: z) - x) <= 1e-10 * frob(x)

    def test_exp_values(self):
        dec = normal_eig(np.diag([0.0, PI * 1j]))
        assert np.allclose(borel_calculus(dec, cmath.exp), np.diag([1, -1]))

    def test_square(self):
        dec = normal_eig(np.diag([1 + 1j]))
        assert np.allclose(borel_calculus(dec, lambda z: z * z),
                           np.diag([2j]))


class TestPushforward:
    def test_exp_to_minus_one(self):
        dec = normal_eig(np.diag([0.0, PI * 1j]))
        rep = verify_pushforward(dec, cmath.exp, Points((-1 + 0j,), 1e-9))
        assert rep.passed

    def test_identity_whole_plane(self):
        x, _, _ = random_normal_matrix(4, 88)
        rep = verify_pushforward(normal_eig(x), lambda z: z, Rect())
        assert rep.passed

    def test_square_collapses_pair(self):
        dec = normal_eig(np.diag([1j, -1j]))
        rep = verify_pushforward(dec, lambda z: z * z, Points((-1 + 0j,), 1e-9))
        assert rep.passed
        assert rep.residuals["pushforward"] <= 1e-12


class TestFoldBranch:
    def test_zero(self):
        assert _fold_branch(0.0) == (0, 0.0)

    def test_three_pi(self):
        k, r = _fold_branch(3 * PI)
        assert k == 1 and abs(r - PI) <= 1e-12

    def test_minus_pi_maps_to_plus_pi(self):
        k, r = _fold_branch(-PI)
        assert k == -1 and abs(r - PI) <= 1e-12

    def test_exponential_identity(self):
        for i in range(200):
            t = -7 * PI + i * (14 * PI / 199)
            k, r = _fold_branch(t)
            assert -PI < r <= PI + 1e-15
            assert abs(cmath.exp(1j * r) - cmath.exp(1j * t)) <= 1e-12
            assert abs(t - 2 * PI * k - r) <= 1e-12


class TestStripProjections:
    def test_boundary_pair(self):
        dec_x = normal_eig(np.diag([PI * 1j, -PI * 1j]))
        dec_y = normal_eig(np.diag([-PI * 1j, PI * 1j]))
        sp = strip_projections(dec_x, dec_y, -1, 0)
        assert np.allclose(sp.e(0), np.diag([1, 0]))    # line Im = +pi for X
        assert np.allclose(sp.f(0), np.diag([0, 1]))
        assert np.allclose(sp.e(-1), np.diag([0, 1]))   # line Im = -pi for X
        assert np.allclose(sp.f(-1), np.diag([1, 0]))
        for k in (-1, 0):
            assert frob(sp.p(k)) == 0.0
            assert frob(sp.q(k)) == 0.0

    def test_interior_zero(self):
        dec = normal_eig(np.diag([0.0]))
        sp = strip_projections(dec, dec, -1, 0)
        assert np.allclose(sp.p(0), np.eye(1))
        assert np.allclose(sp.q(0), np.eye(1))
        assert frob(sp.e(-1)) == frob(sp.e(0)) == 0.0

    def test_shifted_scalars(self):
        # 3 < pi, so 3i sits in the central strip; 3 - 2*pi lands in the
        # strip below it, which the window must therefore include
        dec_x = normal_eig(np.diag([3j]))
        dec_y = normal_eig(np.diag([3j - 2 * PI * 1j]))
        sp = strip_projections(dec_x, dec_y, -2, 1)
        assert np.allclose(sp.p(0), np.eye(1))
        assert np.allclose(sp.q(-1), np.eye(1))
        assert frob(sp.p(1)) == frob(sp.q(0)) == 0.0

    def test_resolution_of_identity(self):
        vals = [0.5 + PI * 1j, -1 - PI * 1j, 0.3 + (2 * PI + 1) * 1j, 0.1]
        dec = normal_eig(np.diag(vals))
        sp = strip_projections(dec, dec, -1, 1)
        total = sum(sp.p(k) + sp.e(k) for k in range(-1, 2))
        assert frob(total - np.eye(4)) <= 1e-10

    def test_out_of_window(self):
        from normlog.errors import SpectrumOutOfRange
        dec = normal_eig(np.diag([5j]))
        with pytest.raises(SpectrumOutOfRange):
            strip_projections(dec, dec, -1, 0)


def _strip_cases():
    for seed in range(3):
        x, _, _ = random_normal_matrix(6, seed, re_range=2.0, im_range=9.0)
        y, _, _ = random_normal_matrix(6, seed + 10, re_range=2.0, im_range=9.0)
        yield f"random normal {seed}", x, y, -2, 2
    for n, seed in ((4, 0), (8, 1), (16, 2)):
        x, y, meta = make_pair(InstanceSpec(Family.SHIFTED_BRANCH_PAIR, n, seed,
                                            params={"k_lo": -3, "k_hi": 3}))
        yield f"ShiftedBranchPair/wide n={n}", x, y, meta["k_lo"], meta["k_hi"]
    x = np.diag([PI * 1j, -PI * 1j, 0.5, 1 + 3 * PI * 1j, -PI * 1j])
    y = np.diag([-PI * 1j, PI * 1j, 0.5 + 2 * PI * 1j, 1 + PI * 1j, 2.0])
    yield "exact odd-pi lines", x, y, -1, 1


def _first_ambiguous_strip(dec_x, dec_y, k_lo, k_hi):
    """Per branch, measure X's and then Y's open strip; the first raise."""
    for k in range(k_lo, k_hi + 1):
        for dec in (dec_x, dec_y):
            try:
                spectral_measure(dec, open_branch_strip(k))
            except AmbiguousBoundary as exc:
                return str(exc)
    return None


class TestStripProjectionsOnePass:
    @pytest.mark.parametrize("case", list(_strip_cases()),
                             ids=lambda case: case[0])
    def test_equals_region_measures(self, case):
        _, x, y, k_lo, k_hi = case
        dec_x, dec_y = normal_eig(x), normal_eig(y)
        sp = strip_projections(dec_x, dec_y, k_lo, k_hi)
        assert (sp.k_lo, sp.k_hi) == (k_lo, k_hi)
        for method in (sp.p, sp.q, sp.e, sp.f):
            for k in (k_lo - 1, k_hi + 1):
                with pytest.raises(KeyError):
                    method(k)
        for k in range(k_lo, k_hi + 1):
            for got, dec, region in (
                    (sp.p(k), dec_x, open_branch_strip(k)),
                    (sp.q(k), dec_y, open_branch_strip(k)),
                    (sp.e(k), dec_x, odd_line(k)),
                    (sp.f(k), dec_y, odd_line(k))):
                want = spectral_measure(dec, region)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (k, region)

    @pytest.mark.parametrize("case", list(_strip_cases()),
                             ids=lambda case: case[0])
    def test_strip_k_lo_is_always_empty(self, case):
        # the window admits Im z in [(2k_lo+1)pi, (2k_hi+1)pi], which the
        # open strip k_lo, below (2k_lo+1)pi, never meets
        _, x, y, k_lo, k_hi = case
        sp = strip_projections(normal_eig(x), normal_eig(y), k_lo, k_hi)
        assert not sp.x_strip[:, 0].any() and not sp.y_strip[:, 0].any()
        assert not sp.p(k_lo).any() and not sp.q(k_lo).any()
        # so strip k needs k_lo <= k - 1: here strip k_lo is out of range
        inside = normal_eig(np.diag([(2 * k_lo) * PI * 1j]))
        with pytest.raises(SpectrumOutOfRange):
            strip_projections(inside, inside, k_lo, k_hi)
        assert strip_projections(inside, inside, k_lo - 1, k_hi).p(k_lo).any()

    @pytest.mark.parametrize("case", list(_strip_cases()),
                             ids=lambda case: case[0])
    def test_difference_equals_explicit_sum(self, case):
        _, x, y, k_lo, k_hi = case
        sp = strip_projections(normal_eig(x), normal_eig(y), k_lo, k_hi)
        rhs = sum(2 * k * PI * 1j * (sp.p(k) - sp.q(k))
                  + (2 * k + 1) * PI * 1j * (sp.e(k) - sp.f(k))
                  for k in range(k_lo, k_hi + 1))
        assert frob(sp.difference() - rhs) <= 1e-12 * max(1.0, frob(x - y))

    def test_branch_outside_window_raises_key_error(self):
        # window [0, 1]: branch -1 would index column -1, the last one
        dec = normal_eig(np.diag([0.5 + 2 * PI * 1j, 0.5 + 3 * PI * 1j]))
        sp = strip_projections(dec, dec, 0, 1)
        assert np.allclose(sp.p(1), np.diag([1, 0]))
        assert np.allclose(sp.e(1), np.diag([0, 1]))
        for method in (sp.p, sp.q, sp.e, sp.f):
            for k in (-1, 2, -3):
                with pytest.raises(KeyError):
                    method(k)

    @pytest.mark.parametrize("x_imag, y_imag", [
        ([PI - 5e-10, 0.5], [0.1, 0.2]),                 # X only
        ([0.1, 0.2], [PI - 5e-10, 0.5]),                 # Y only
        ([3 * PI + 5e-10, 0.1], [-PI + 5e-10, 0.2]),     # Y at a lower k
        ([-PI - 5e-10, 0.1], [-PI + 5e-10, 0.2]),        # both, same k
    ])
    def test_ambiguous_eigenvalue_raises_as_region_measures(self, x_imag,
                                                            y_imag):
        dec_x = normal_eig(np.diag([0.5 + 1j * t for t in x_imag]))
        dec_y = normal_eig(np.diag([-0.5 + 1j * t for t in y_imag]))
        expected = _first_ambiguous_strip(dec_x, dec_y, -1, 1)
        assert expected is not None
        with pytest.raises(AmbiguousBoundary) as info:
            strip_projections(dec_x, dec_y, -1, 1)
        assert str(info.value) == expected

    def test_empty_selection_is_zero(self):
        dec = normal_eig(np.diag([0.5, 1.5j]))
        zero = dec.select([False, False])
        assert zero.dtype == complex and zero.shape == (2, 2)
        assert not zero.any() and not np.signbit(zero.view(float)).any()
