"""The chunk's array-code builds and decompositions against the scalar
oracle in ``util``: one instance, one draw and one cluster at a time."""

import numpy as np
import pytest

import normlog.checks
import normlog.harness.generators
import normlog.spectral
import util
from normlog.checks import PairAnalysis
from normlog.errors import ConstructionFailed
from normlog.harness import Family, InstanceSpec, default_config, make_pair
from normlog.harness.rng import random_unitary
from normlog.spectral import SpectralDecomposition
from util import make_pairs, normal_eig_stack

from test_spectral import _clustered_spectrum, _mixed_stack

SIZES = (1, 2, 3, 4, 8, 16, 24, 64)
SEEDS = (0, 1, 5, 17, 20240901)
ENTRIES = default_config()["families"]


def _spec(entry, n, seed):
    return InstanceSpec(Family(entry["family"]), n, seed,
                        params=entry.get("params", {}))


def _oracle(spec):
    try:
        return util.scalar_make_pair(spec)
    except ConstructionFailed as exc:
        return exc


def _same_pair(got, want):
    (x, y, meta), (x0, y0, meta0) = got, want
    return (x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
            and meta == meta0 and meta["self_test_residual"].hex()
            == meta0["self_test_residual"].hex())


def _same_decomposition(got, want):
    if isinstance(want, type):  # the error type the oracle found
        return isinstance(got, want)
    return (isinstance(got, SpectralDecomposition)
            and got.v.tobytes() == want.v.tobytes()
            and (np.array(got.eigenvalues).tobytes()
                 == np.array(want.eigenvalues).tobytes())
            and got.bounds == want.bounds)


def _check_chunk(specs):
    """The chunk of ``specs`` raises what its first failing spec raises
    alone, and without the failing specs equals the oracle's builds, and
    its operands' stacked decompositions equal the oracle's."""
    want = [_oracle(spec) for spec in specs]
    failed = [w for w in want if isinstance(w, ConstructionFailed)]
    if failed:
        with pytest.raises(ConstructionFailed) as raised:
            make_pairs(specs)
        assert str(raised.value) == str(failed[0])
    built = [spec for spec, w in zip(specs, want)
             if not isinstance(w, ConstructionFailed)]
    got = make_pairs(built)
    want = [w for w in want if not isinstance(w, ConstructionFailed)]
    assert len(got) == len(want)
    for spec, one, ref in zip(built, got, want):
        assert _same_pair(one, ref), spec
    return got


class TestScalarOracle:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=lambda e: e.get("label", e["family"]))
    def test_entry_chunk_equals_scalar(self, entry, n):
        specs = [_spec(entry, n, seed) for seed in SEEDS]
        got = _check_chunk(specs)
        operands = [m for x, y, _ in got for m in (x, y)]
        if operands:
            for m, dec in zip(operands, normal_eig_stack(operands)):
                assert _same_decomposition(dec, util.scalar_normal_eig(m))

    def test_mixed_chunk_equals_scalar(self):
        # every entry at several sizes in one chunk: the rejection loops
        # of its rows run for different lengths
        specs = [_spec(entry, n, seed) for n in (2, 3, 8, 24)
                 for entry in ENTRIES for seed in SEEDS[:3]]
        assert len(_check_chunk(specs)) == len(specs)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_failure_mid_chunk_raises_in_chunk_order(self, where):
        valid = [_spec(entry, 4, seed) for entry in ENTRIES[:4]
                 for seed in SEEDS[:2]]
        no_block = InstanceSpec(Family.DISTINCT_PROJECTION_PAIR, 1, 3)
        no_slot = InstanceSpec(Family.ODD_PI_EIGENVALUE, 1, 2,
                               params={"violate": 1})
        at = {"first": 0, "middle": len(valid) // 2, "last": len(valid)}[where]
        specs = valid[:at] + [no_block] + valid[at:] + [no_slot]
        _check_chunk(specs)

    @pytest.mark.parametrize("tries", [17, 20, 24])
    def test_rejection_failures_mid_chunk(self, tries, monkeypatch):
        # with few tries some rows of a chunk give up and others place all
        # their values: each row fails or succeeds as it would alone
        for module in (normlog.harness.generators, util):
            monkeypatch.setattr(module, "_REAL_TRIES", tries)
            monkeypatch.setattr(module, "_EIG_TRIES", tries)
        specs = [InstanceSpec(family, 16, seed) for seed in range(12)
                 for family in (Family.SELF_ADJOINT_CONGRUENCE_FREE,
                                Family.BOUNDARY_FLIP_PAIR)]
        outcomes = {isinstance(_oracle(s), ConstructionFailed) for s in specs}
        assert outcomes == {True, False}
        _check_chunk(specs)

    def test_lone_make_pair_equals_scalar(self):
        for entry in ENTRIES:
            for n in (1, 2, 16):
                spec = _spec(entry, n, 7)
                want = _oracle(spec)
                if isinstance(want, ConstructionFailed):
                    with pytest.raises(ConstructionFailed, match=str(want)):
                        make_pair(spec)
                else:
                    assert _same_pair(make_pair(spec), want)


class TestClusterOracle:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 33])
    def test_planted_clusters_equal_scalar(self, n):
        # chains, near misses and exact repeats about one merge radius
        # apart, as a diagonal and rotated, in one stack
        u = random_unitary(n, n)
        operands = []
        for seed in range(6):
            values = np.array(_clustered_spectrum(n, seed, 0.0))
            radius = 1e-8 * max(1.0, np.linalg.norm(values))
            values = np.array(_clustered_spectrum(n, seed, radius))
            operands += [np.diag(values), u @ np.diag(values) @ u.conj().T]
        decs = normal_eig_stack(operands)
        assert any(len(d.eigenvalues) < n for d in decs
                   if isinstance(d, SpectralDecomposition)) or n == 1
        for m, dec in zip(operands, decs):
            assert _same_decomposition(dec, util.scalar_normal_eig(m))

    def test_signed_zeros_and_repeats_equal_scalar(self):
        # means of clusters whose parts are -0.0 or 0.0, exact repeats,
        # chains and lone values, clustered together in one stack
        r = 1e-8
        rows = [[complex(-0.0, -0.0)] * 4,
                [complex(-0.0, 1.0), complex(-0.0, 1.0), 2.0, complex(3, -0.0)],
                [1.0, 1 + 0.6 * r, 1 + 1.2 * r, complex(-0.0, 5.0)],
                [complex(0.0, -0.0), complex(-0.0, 0.0), 1j, -1j],
                [0.5, -0.5, 0.5j, -0.5j]]
        lams = np.array(rows, dtype=complex)
        v = np.stack([random_unitary(4, seed) for seed in range(len(rows))])
        radius = np.full(len(rows), r)
        order, reps, start = normlog.spectral._clustered(lams, radius)
        vt = v.swapaxes(1, 2)[np.arange(len(rows))[:, None], order]
        got = normlog.spectral._Decompositions(vt, reps, start,
                                               [None] * len(rows))
        for i, (vi, row) in enumerate(zip(v, lams)):
            assert _same_decomposition(got[i],
                                       util.scalar_clustered(vi, row, r))

    def test_mixed_stack_equals_scalar(self):
        operands = _mixed_stack()
        for m, dec in zip(operands, normal_eig_stack(operands)):
            assert _same_decomposition(dec, util.scalar_normal_eig(m))


class TestInteriorMeasureSlots:
    @pytest.mark.parametrize("n", [1, 2, 8, 16, 64, 128])
    @pytest.mark.parametrize("family", [f for f in Family
                                        if f is not Family.NON_NORMAL_LOG_PAIR],
                             ids=lambda f: f.value)
    def test_regions_alone_equal_all_slots(self, family, n):
        # the masks of the regions alone give the measures the masks of
        # all 2n slots give, in chunks of one, two and five pairs
        seeds = range(5 if n <= 16 else 2)
        specs = [InstanceSpec(family, n, seed) for seed in seeds]
        if any(isinstance(_oracle(spec), ConstructionFailed) for spec in specs):
            return
        pairs = [PairAnalysis(x, y) for x, y, _ in make_pairs(specs)]
        for chunk in (pairs[:1], pairs[:2], pairs):
            c = normlog.checks._Chunk.of(chunk)
            cols_x, cols_y = c.columns("x"), c.columns("y")
            idx = np.arange(len(chunk))
            scales = np.array([p._chunk.array("norm_x")[0] for p in chunk])
            got = normlog.checks._interior_measures(cols_x, cols_y, idx, scales)
            want = util.all_slot_interior_measures(cols_x, cols_y, idx, scales)
            assert [v.hex() for v in got.tolist()] == [
                v.hex() for v in want.tolist()]
