import cmath
import math

import numpy as np
import pytest

from normlog.errors import AmbiguousBoundary, NotNormal, OutOfFoldRange
from normlog.linalg import frob
from normlog.spectral import (
    HLine,
    Points,
    Rect,
    RegionUnion,
    borel_calculus,
    fold_scalar,
    normal_eig,
    odd_line,
    open_branch_strip,
    spectral_measure,
    strip,
    strip_boundary,
    strip_interior,
    strip_projections,
    verify_pushforward,
    whole_plane,
)

from normlog.harness import Family, InstanceSpec, make_pair

from util import random_normal_matrix

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

    def test_union(self):
        union = RegionUnion((Rect(im_lo=1.0), HLine(-5.0)))
        assert union.contains(-5j)
        assert union.contains(2j)
        assert not union.contains(-2j)

    def test_strip_constructors(self):
        z_on = 1 + PI * 1j
        assert strip().contains(z_on)
        assert not strip_interior().contains(z_on)
        assert strip_boundary().contains(z_on)
        assert strip_boundary().contains(1 - PI * 1j)
        assert not strip_boundary().contains(1j)
        assert whole_plane().contains(1e6 - 1e6j)


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
    "whole-plane": (whole_plane(), (0.0,), (0.0,)),
    "hline": (HLine(PI), (0.0,), (PI,)),
    "points": (Points((1 + 1j, 1 + 1.5j), radius=1e-9), (1.0,), (1.0, 1.5)),
    "union": (RegionUnion((strip_interior(), strip_boundary(), Points((4j,)))),
              (0.0,), (-PI, PI, 4.0)),
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
        assert whole_plane().contains(np.complex128(3 + 4j)) is True

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
        with pytest.raises(NotNormal):
            normal_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_invariants_random(self, n):
        for seed in range(3):
            x, _, _ = random_normal_matrix(n, 9000 + 10 * n + seed)
            dec = normal_eig(x)
            res = dec.validate(x)
            bound = 1e-10 * n * max(1.0, frob(x))
            assert max(res.values()) <= bound, res
            reps = dec.eigenvalues
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    assert abs(a - b) > 1e-8


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
        assert np.allclose(spectral_measure(dec, whole_plane()), np.eye(5))
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
        rep = verify_pushforward(normal_eig(x), lambda z: z, whole_plane())
        assert rep.passed

    def test_square_collapses_pair(self):
        dec = normal_eig(np.diag([1j, -1j]))
        rep = verify_pushforward(dec, lambda z: z * z, Points((-1 + 0j,), 1e-9))
        assert rep.passed
        assert rep.residuals["pushforward"] <= 1e-12


class TestFoldScalar:
    def test_zero(self):
        assert fold_scalar(0.0, -1, 1) == 0.0

    def test_three_pi(self):
        assert abs(fold_scalar(3 * PI, -1, 1) - PI) <= 1e-12

    def test_minus_pi_maps_to_plus_pi(self):
        assert abs(fold_scalar(-PI, 0, 0) - PI) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(OutOfFoldRange):
            fold_scalar(4 * PI, -1, 1)
        with pytest.raises(OutOfFoldRange):
            fold_scalar(-4 * PI, 0, 1)

    def test_exponential_identity(self):
        for i in range(200):
            t = -7 * PI + i * (14 * PI / 199)
            r = fold_scalar(t, -4, 4)
            assert -PI < r <= PI + 1e-15
            assert abs(cmath.exp(1j * r) - cmath.exp(1j * t)) <= 1e-12


class TestStripProjections:
    def test_boundary_pair(self):
        dec_x = normal_eig(np.diag([PI * 1j, -PI * 1j]))
        dec_y = normal_eig(np.diag([-PI * 1j, PI * 1j]))
        sp = strip_projections(dec_x, dec_y, -1, 0)
        assert np.allclose(sp.e[0], np.diag([1, 0]))    # line Im = +pi for X
        assert np.allclose(sp.f[0], np.diag([0, 1]))
        assert np.allclose(sp.e[-1], np.diag([0, 1]))   # line Im = -pi for X
        assert np.allclose(sp.f[-1], np.diag([1, 0]))
        for k in (-1, 0):
            assert frob(sp.p[k]) == 0.0
            assert frob(sp.q[k]) == 0.0

    def test_interior_zero(self):
        dec = normal_eig(np.diag([0.0]))
        sp = strip_projections(dec, dec, -1, 0)
        assert np.allclose(sp.p[0], np.eye(1))
        assert np.allclose(sp.q[0], np.eye(1))
        assert frob(sp.e[-1]) == frob(sp.e[0]) == 0.0

    def test_shifted_scalars(self):
        # 3 < pi, so 3i sits in the central strip; 3 - 2*pi lands in the
        # strip below it, which the window must therefore include
        dec_x = normal_eig(np.diag([3j]))
        dec_y = normal_eig(np.diag([3j - 2 * PI * 1j]))
        sp = strip_projections(dec_x, dec_y, -2, 1)
        assert np.allclose(sp.p[0], np.eye(1))
        assert np.allclose(sp.q[-1], np.eye(1))
        assert frob(sp.p[1]) == frob(sp.q[0]) == 0.0

    def test_resolution_of_identity(self):
        vals = [0.5 + PI * 1j, -1 - PI * 1j, 0.3 + (2 * PI + 1) * 1j, 0.1]
        dec = normal_eig(np.diag(vals))
        sp = strip_projections(dec, dec, -1, 1)
        total = sum(sp.p[k] + sp.e[k] for k in range(-1, 2))
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
        assert sorted(sp.p) == sorted(sp.e) == list(range(k_lo, k_hi + 1))
        for k in range(k_lo, k_hi + 1):
            for got, dec, region in (
                    (sp.p[k], dec_x, open_branch_strip(k)),
                    (sp.q[k], dec_y, open_branch_strip(k)),
                    (sp.e[k], dec_x, odd_line(k)),
                    (sp.f[k], dec_y, odd_line(k))):
                want = spectral_measure(dec, region)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (k, region)

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
