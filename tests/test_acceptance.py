"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Tolerances are fixed here, not configurable: they are the contract.
"""

import cmath
import json
import math
import time

import numpy as np

from normlog.checks import (
    PairAnalysis,
    check_corollary_cases,
    check_difference_formula,
    check_double_commutant,
    check_modulus_commute,
    check_modulus_equal,
    check_one_boundary_eigenvalue,
    check_square_commute,
    check_y_in_bicommutant_of_exp,
)
from normlog.harness import Family, InstanceSpec, make_pair, run_suite
from normlog.harness.rng import Stream, random_unitary
from normlog.linalg import dagger, frob
from normlog.logs import kurepa_decompose, principal_log
from normlog.spectral import (
    Points,
    Rect,
    _fold_branch,
    borel_calculus,
    normal_eig,
)

from util import verify_pushforward

PI = math.pi
SIZES = (2, 4, 8, 16)


def _random_normal(n, seed, im_range, re_range=1.5, min_gap=1e-3):
    stream = Stream(seed)
    eigs = []
    while len(eigs) < n:
        z = complex(stream.uniform(-re_range, re_range),
                    stream.uniform(-im_range, im_range))
        if all(abs(z - w) >= min_gap for w in eigs):
            eigs.append(z)
    u = random_unitary(n, stream.subseed())
    return u @ np.diag(eigs) @ dagger(u), eigs


def _instances(family, count, seed0, params=None):
    per_size = count // len(SIZES)
    out = []
    for n in SIZES:
        for i in range(per_size):
            spec = InstanceSpec(family=family, n=n, seed=seed0 + 1000 * n + i,
                                params=params or {})
            out.append(make_pair(spec))
    return out


def test_criterion_1_eigensolver_suite():
    t0 = time.time()
    count = 0
    for n in (2, 4, 8, 16, 32):
        for i in range(20):
            x, _ = _random_normal(n, 10_000 + 100 * n + i, im_range=3.0)
            res = normal_eig(x).validate(x)
            bound = 1e-10 * n * frob(x)
            assert max(res.values()) <= bound, (n, i, res)
            count += 1
    elapsed = time.time() - t0
    assert count == 100 and elapsed <= 60.0
    print(f"\n[acceptance 1] PASS - decomposition invariants on {count} "
          f"random normal matrices in {elapsed:.1f}s")


def _pushforward_regions(images):
    """Safe regions built from the image points of the spectrum."""
    regions = [Rect()]
    for w in images[:3]:
        regions.append(Points((w,), radius=1e-9))
        gap = min((abs(w - v) for v in images if abs(w - v) > 1e-8),
                  default=1.0)
        half = min(gap / 3.0, 0.5)
        if half > 1e-7:
            regions.append(Rect(w.real - half, w.real + half,
                                w.imag - half, w.imag + half))
    return regions


def test_criterion_2_pushforward():
    functions = {
        "exp": cmath.exp,
        "square": lambda z: z * z,
        "fold_im": lambda z: complex(z.real, _fold_branch(z.imag, 1e-12)[1]),
    }
    checked = 0
    for i in range(100):
        n = SIZES[i % 4]
        x, eigs = _random_normal(n, 20_000 + i, im_range=3 * PI - 0.2)
        if any(abs(_fold_branch(z.imag, 1e-12)[1]) > PI - 0.05 for z in eigs):
            # stay clear of the fold discontinuity lines
            x, eigs = _random_normal(n, 20_000 + i, im_range=PI - 0.1)
        dec = normal_eig(x)
        for f in functions.values():
            images = [f(z) for z in eigs]
            for omega in _pushforward_regions(images):
                rep = verify_pushforward(dec, f, omega)
                assert rep.passed
                assert rep.residuals["pushforward"] <= 1e-8 * n
        checked += 1
    print(f"\n[acceptance 2] PASS - pushforward identity for exp, square and "
          f"fold on {checked} instances")


def test_criterion_3_log_round_trip():
    count = 0
    for n in (2, 4, 8, 16, 32):
        for i in range(20):
            x, _ = _random_normal(n, 30_000 + 100 * n + i,
                                  im_range=PI - 0.011)
            back = principal_log(borel_calculus(normal_eig(x), cmath.exp))
            assert frob(back - x) <= 1e-8 * frob(x)
            count += 1
    print(f"\n[acceptance 3] PASS - principal-log round trip on {count} "
          f"strip-interior instances")


def test_criterion_4_modulus_equality():
    total = 0
    for family, seed0 in ((Family.BOUNDARY_FLIP_PAIR, 40_000),
                          (Family.DISTINCT_PROJECTION_PAIR, 41_000)):
        for x, y, _ in _instances(family, 100, seed0):
            rep = check_modulus_equal(PairAnalysis(x, y))
            assert rep.passed and rep.residuals["modulus"] <= 1e-8
            total += 1
    assert total == 200
    print(f"\n[acceptance 4] PASS - modulus equality on {total} boundary-flip "
          f"and distinct-projection instances")


def test_criterion_5_modulus_commute_and_kurepa():
    total = 0
    for x, y, _ in _instances(Family.NON_NORMAL_LOG_PAIR, 100, 50_000):
        rep = check_modulus_commute(PairAnalysis(x, y))
        assert rep.passed and rep.residuals["modulus_commutator"] <= 1e-8
        kd = kurepa_decompose(y)
        assert kd.commute_residual <= 1e-8
        assert kd.integer_spectrum_residual <= 1e-6
        total += 1
    # hand oracle: Y = T diag(i*pi, -i*pi) T^-1, T = [[1,1],[0,1]]
    y = np.array([[PI * 1j, -2 * PI * 1j], [0, -PI * 1j]])
    kd = kurepa_decompose(y)
    w_eigs = sorted(np.linalg.eigvals(kd.w).real)
    assert np.allclose(w_eigs, [-1.0, 0.0], atol=1e-10)
    assert kd.commute_residual <= 1e-8
    print(f"\n[acceptance 5] PASS - modulus commutation and branch-weight "
          f"splitting on {total} non-normal-log instances plus the shear "
          f"oracle")


def test_criterion_6_difference_formula():
    windows = [(-1, 1), (-2, 2), (-3, 3), (-3, 0), (0, 3), (-2, 1)]
    total = 0
    for i, (k_lo, k_hi) in enumerate(windows * 17):
        if total >= 100:
            break
        n = SIZES[i % 4]
        x, y, meta = make_pair(InstanceSpec(
            family=Family.SHIFTED_BRANCH_PAIR, n=n, seed=60_000 + i,
            params={"k_lo": k_lo, "k_hi": k_hi}))
        rep = check_difference_formula(PairAnalysis(x, y, k_lo=k_lo,
                                                    k_hi=k_hi))
        assert rep.passed and rep.residuals["difference"] <= 1e-8 * n
        total += 1
    for family, seed0 in ((Family.BOUNDARY_FLIP_PAIR, 61_000),
                          (Family.DISTINCT_PROJECTION_PAIR, 62_000)):
        for x, y, _ in _instances(family, 52, seed0):
            n = x.shape[0]
            rep = check_difference_formula(PairAnalysis(x, y, k_lo=-1, k_hi=0))
            assert rep.passed and rep.residuals["difference"] <= 1e-8 * n
            total += 1
    assert total >= 200
    # hand oracle: X - Y = 2*pi*i*diag(1, -1), reproduced essentially exactly
    x = np.diag([PI * 1j, -PI * 1j])
    rep = check_difference_formula(PairAnalysis(x, -x, k_lo=-1, k_hi=0))
    assert rep.passed and rep.residuals["difference"] <= 1e-12
    print(f"\n[acceptance 6] PASS - projection difference formula on {total} "
          f"instances across branch windows within [-3, 3]")


def test_criterion_7_corollary_cases():
    cases = 0
    for x, y, _ in _instances(Family.BOUNDARY_FLIP_PAIR, 40, 70_000,
                              params={"side": -1}):
        rep = check_corollary_cases(PairAnalysis(x, y))
        assert rep.passed and "top line empty" in rep.notes
        assert rep.residuals["difference_top"] <= 1e-8
        cases += 1
    for x, y, _ in _instances(Family.BOUNDARY_FLIP_PAIR, 40, 71_000,
                              params={"side": 1}):
        rep = check_corollary_cases(PairAnalysis(x, y))
        assert rep.passed and "bottom line empty" in rep.notes
        assert rep.residuals["difference_bottom"] <= 1e-8
        cases += 1
    for x, y, _ in _instances(Family.INTERIOR_PAIR, 40, 72_000):
        rep = check_corollary_cases(PairAnalysis(x, y))
        assert rep.passed and "X = Y" in rep.notes
        assert rep.residuals["equality"] <= 1e-8
        cases += 1
    print(f"\n[acceptance 7] PASS - all three empty-boundary cases on "
          f"{cases} targeted instances")


def test_criterion_8_unbounded_style_commutation():
    for x, y, _ in _instances(Family.SELF_ADJOINT_CONGRUENCE_FREE,
                              100, 80_000):
        rep = check_double_commutant(PairAnalysis(x, y))
        assert rep.passed and rep.residuals["double_commutant"] <= 1e-8
        rep3 = check_y_in_bicommutant_of_exp(PairAnalysis(x, y))
        assert rep3.passed
        assert rep3.residuals["fold_identity"] <= 1e-8
    for x, y, _ in _instances(Family.ODD_PI_EIGENVALUE, 100, 81_000):
        rep = check_one_boundary_eigenvalue(PairAnalysis(x, y))
        assert rep.passed
    # negative controls must gate out, never pass
    for x, y, _ in _instances(Family.SELF_ADJOINT_CONGRUENCE_FREE, 12, 82_000,
                              params={"violate": 1}):
        rep = check_double_commutant(PairAnalysis(x, y))
        assert not rep.hypothesis_met and not rep.passed
    for x, y, _ in _instances(Family.ODD_PI_EIGENVALUE, 12, 83_000,
                              params={"violate": 1}):
        rep = check_one_boundary_eigenvalue(PairAnalysis(x, y))
        assert not rep.hypothesis_met and not rep.passed
    print("\n[acceptance 8] PASS - double-commutant membership, single "
          "odd-pi commutation, folded-identity checks, and gated negative "
          "controls")


def test_criterion_9_square_commutation():
    total = 0
    for family, seed0 in ((Family.BOUNDARY_FLIP_PAIR, 90_000),
                          (Family.DISTINCT_PROJECTION_PAIR, 91_000)):
        for x, y, _ in _instances(family, 52, seed0):
            rep = check_square_commute(PairAnalysis(x, y))
            assert rep.passed and rep.residuals["square_commutator"] <= 1e-8
            total += 1
    violations = 0
    for x, y, _ in _instances(Family.BOUNDARY_FLIP_PAIR, 12, 92_000,
                              params={"conjugate_pair": 1, "boundary": 2}):
        rep = check_square_commute(PairAnalysis(x, y))
        assert not rep.hypothesis_met and not rep.passed
        violations += 1
    print(f"\n[acceptance 9] PASS - square commutation on {total} "
          f"conjugate-free instances; {violations} planted conjugate pairs "
          f"correctly gated")


def test_criterion_10_full_suite():
    t0 = time.time()
    first = run_suite()
    elapsed = time.time() - t0
    assert first["summary"]["failed"] == 0
    assert elapsed <= 300.0
    second = run_suite()
    assert json.dumps(first) == json.dumps(second)
    s = first["summary"]
    print(f"\n[acceptance 10] PASS - default suite: {s['total']} checks, "
          f"{s['passed']} passed, {s['skipped_hypothesis']} hypothesis-"
          f"skipped, 0 failed, {elapsed:.0f}s per run, byte-identical reruns")
