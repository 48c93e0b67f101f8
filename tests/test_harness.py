import json
import math
import os
import platform
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import normlog.checks
import normlog.harness.generators
import normlog.harness.suite
import normlog.logs
from normlog.checks import CHECK_NAMES, PairAnalysis, run_check
from normlog.errors import ConstructionFailed
from normlog.harness import (
    Family,
    InstanceSpec,
    default_config,
    make_pair,
    matrix_from_obj,
    matrix_to_obj,
    mix64,
    random_unitary,
    read_pair,
    run_suite,
    write_pair,
    write_report,
)
from normlog.harness.rng import _gaussians, _Streams, _unitary_stack
from normlog.harness.cli import main as cli_main
from normlog.linalg import dagger, frob, is_normal
from normlog.logs import TWO_PI
from normlog.spectral import normal_eig

from util import Stream, _make_pairs, gaussian_matrix, make_pairs

PI = math.pi
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestStream:
    def test_mix64_reference_values(self):
        # frozen outputs of the documented counter hash; a change here
        # would silently re-seed every generated instance
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535

    def test_determinism(self):
        a = [Stream(123).u64() for _ in range(5)]
        b = [Stream(123).u64() for _ in range(5)]
        assert a == b

    def test_unit_range(self):
        s = Stream(9)
        vals = [s.unit() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.3 < sum(vals) / len(vals) < 0.7

    def test_integer_bounds(self):
        s = Stream(10)
        vals = [s.integer(-2, 3) for _ in range(500)]
        assert set(vals) == {-2, -1, 0, 1, 2, 3}

    def test_normal_moments(self):
        s = Stream(11)
        vals = [s.normal() for _ in range(4000)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert abs(mean) < 0.1 and abs(var - 1.0) < 0.15

    def test_stacked_streams_equal_scalar_streams(self):
        # every row draws what its seed's scalar stream draws, in order,
        # also when rows advance by different counts or draw alone
        seeds = [0, 5, -3, 2 ** 64 - 1, mix64(7), 5]
        rows = _Streams(seeds)
        scalar = [Stream(s) for s in seeds]
        got = rows.u64(3)
        assert got.dtype == np.uint64
        assert got.tolist() == [[s.u64() for _ in range(3)] for s in scalar]
        steps = np.array([0, 1, 2, 3, 4, 5])
        peeked = rows.peek(6)
        rows.advance(steps)
        for s, step, row in zip(scalar, steps.tolist(), peeked.tolist()):
            assert row[:step] == [s.u64() for _ in range(step)]
        assert rows.uniform(-1.5, 2.0, 2).tolist() == [
            [s.uniform(-1.5, 2.0) for _ in range(2)] for s in scalar]
        assert rows.integer(-2, 3, 4).tolist() == [
            [s.integer(-2, 3) for _ in range(4)] for s in scalar]
        some = np.array([4, 1])
        assert rows.peek(3, some).tolist() == [
            [scalar[i].u64() for _ in range(3)] for i in some.tolist()]
        rows.advance(3, some)
        assert rows.u64().ravel().tolist() == [s.u64() for s in scalar]


def _seed_sets(n: int) -> list:
    """Seed lists a stacked draw must not depend on: repeated, permuted,
    of odd and of even count, and alone."""
    seeds = [7, 2 ** 64 - 1, -3, mix64(n), 7]
    return [seeds, seeds[::-1], seeds[1:], [2 ** 63 + 5]]


# Stream.normal takes libm's log, cos and sin; _gaussians numpy's, whose
# SIMD loops may round log differently by an ulp. The bound on a
# Gaussian's distance from the libm one, fixed before measuring it
# (worst seen: 0.999 eps r on AVX-512), with r the pair's radius
_LIBM_BOUND = 4 * np.finfo(float).eps


class TestGaussianMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 128])
    def test_stacked_rows_equal_lone_rows(self, n):
        for seeds in _seed_sets(n):
            got = _gaussians(seeds, n * n)
            assert got.shape == (len(seeds), 2 * n * n)
            for s, row in zip(seeds, got):
                assert row.tobytes() == _gaussians([s], n * n)[0].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    def test_near_the_libm_stream(self, n, seed):
        # row i is the first 2 n^2 normal() draws of a fresh stream of
        # seeds[i] up to the rounding of log, cos and sin; over sqrt(2)
        # it is the scalar loop's Gaussian matrix, row-major
        seeds = [seed, mix64(seed), seed]
        got = _gaussians(np.array(seeds, dtype=np.uint64), n * n)
        assert got.shape == (3, 2 * n * n)
        for s, row in zip(seeds, got):
            stream = Stream(s)
            want = np.array([stream.normal() for _ in range(2 * n * n)])
            radius = np.repeat(np.hypot(want[0::2], want[1::2]), 2)
            assert (np.abs(row - want) <= _LIBM_BOUND * radius).all()
        matrix = gaussian_matrix(Stream(seed), n).view(float).ravel()
        assert (np.abs(got[0] / math.sqrt(2) - matrix)
                <= _LIBM_BOUND * np.abs(matrix).max()).all()


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_determinism(self):
        assert np.array_equal(random_unitary(6, 42), random_unitary(6, 42))
        assert not np.array_equal(random_unitary(6, 42), random_unitary(6, 43))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_unitarity(self, n):
        u = random_unitary(n, 1000 + n)
        assert frob(dagger(u) @ u - np.eye(n)) <= 1e-12 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 24, 64, 128])
    def test_stacked_draw_equals_lone_draws(self, n):
        for seeds in _seed_sets(n):
            stack = _unitary_stack(n, seeds)
            assert stack.shape == (len(seeds), n, n)
            for seed, u in zip(seeds, stack):
                # the lone draw, and the QR-with-phases recipe step by
                # step on the seed's Gaussians
                g = (_gaussians([seed], n * n)[0] / math.sqrt(2)).view(complex)
                q, r = np.linalg.qr(g.reshape(n, n))
                d = np.diag(r)
                assert u.tobytes() == random_unitary(n, seed).tobytes()
                assert u.tobytes() == (q * (d / np.abs(d))).tobytes()


class TestFamilies:
    def test_all_families_self_test(self):
        # n=32 included: placement heuristics must not stall at scale
        for fam in Family:
            for n in (2, 4, 8, 32):
                x, y, meta = make_pair(InstanceSpec(family=fam, n=n, seed=5))
                assert meta["self_test_residual"] <= 1e-10

    def test_determinism(self):
        spec = InstanceSpec(family=Family.BOUNDARY_FLIP_PAIR, n=6, seed=99)
        x1, y1, _ = make_pair(spec)
        x2, y2, _ = make_pair(spec)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_interior_pair_is_identical(self):
        x, y, _ = make_pair(InstanceSpec(family=Family.INTERIOR_PAIR,
                                         n=4, seed=3))
        assert np.array_equal(x, y)
        assert all(abs(lam.imag) < PI - 1e-7
                   for lam in normal_eig(x).eigenvalues)

    def test_boundary_flip_changes_matrix(self):
        x, y, meta = make_pair(InstanceSpec(family=Family.BOUNDARY_FLIP_PAIR,
                                            n=4, seed=8))
        assert meta["flipped"] >= 1
        assert frob(x - y) > 1e-6

    def test_distinct_projection_pair_non_commuting(self):
        x, y, _ = make_pair(InstanceSpec(
            family=Family.DISTINCT_PROJECTION_PAIR, n=4, seed=17))
        assert frob(x @ y - y @ x) > 1e-3

    def test_shifted_branch_difference_is_integer_spectrum(self):
        x, y, meta = make_pair(InstanceSpec(family=Family.SHIFTED_BRANCH_PAIR,
                                            n=5, seed=23))
        diffs = np.linalg.eigvals((x - y) / (TWO_PI * 1j))
        assert all(abs(d - round(d.real)) <= 1e-9 for d in diffs)
        assert meta["k_lo"] == -1 and meta["k_hi"] == 1

    def test_non_normal_log_pair_shape(self):
        x, y, _ = make_pair(InstanceSpec(family=Family.NON_NORMAL_LOG_PAIR,
                                         n=4, seed=29))
        assert is_normal(x)
        assert not is_normal(y)

    def test_self_adjoint_family_is_hermitian(self):
        x, y, _ = make_pair(InstanceSpec(
            family=Family.SELF_ADJOINT_CONGRUENCE_FREE, n=6, seed=31))
        assert frob(x - dagger(x)) <= 1e-12 * frob(x)
        assert is_normal(y)

    def test_odd_pi_family_places_exact_boundary_value(self):
        x, _, meta = make_pair(InstanceSpec(family=Family.ODD_PI_EIGENVALUE,
                                            n=5, seed=37))
        eigs = normal_eig(x).eigenvalues
        hits = [lam for lam in eigs if abs(lam.real - meta["odd_value"]) < 1e-9]
        assert len(hits) == 1       # one cluster at the odd-pi value

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConstructionFailed):
            make_pair(InstanceSpec(family=Family.DISTINCT_PROJECTION_PAIR,
                                   n=1, seed=1))


def _entry_specs(n: int, seeds) -> list:
    """A spec per default-config entry, negative controls included, and
    seed."""
    return [InstanceSpec(Family(e["family"]), n, seed,
                         params=e.get("params", {}))
            for e in default_config()["families"] for seed in seeds]


def _lone_or_error(spec):
    try:
        return make_pair(spec)
    except ConstructionFailed as exc:
        return exc


def _same_pair(got, want) -> bool:
    (x, y, meta), (x0, y0, meta0) = got, want
    return (x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
            and meta == meta0 and meta["self_test_residual"].hex()
            == meta0["self_test_residual"].hex())


class TestChunkBuilder:
    @pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (4,), (8,), (16,),
                                       (24,), (64,), (2, 3, 8, 24)],
                             ids=lambda sizes: "n" + "-".join(map(str, sizes)))
    def test_chunk_equals_lone_builds(self, sizes):
        specs = [spec for n in sizes for spec in _entry_specs(n, (0, 1, 5))]
        lone = [_lone_or_error(spec) for spec in specs]
        built = [spec for spec, one in zip(specs, lone)
                 if not isinstance(one, ConstructionFailed)]
        assert len({spec.family for spec in built}) == len(Family) or 1 in sizes
        chunk = make_pairs(built)
        assert len(chunk) == len(built)
        for got, want in zip(chunk, (one for one in lone
                                     if not isinstance(one, ConstructionFailed))):
            assert _same_pair(got, want)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_kept_exp_y_is_exp_general(self, n):
        specs = _entry_specs(n, (0, 1, 5))
        specs = [spec for spec in specs
                 if not isinstance(_lone_or_error(spec), ConstructionFailed)]
        for (x, y, meta, exp_y), lone in zip(_make_pairs(specs),
                                             make_pairs(specs)):
            assert _same_pair((x, y, meta), lone)
            assert exp_y.tobytes() == normlog.logs.exp_general(y).tobytes()

    def test_empty_chunk(self):
        assert make_pairs([]) == []

    @pytest.mark.parametrize("order", ["odd-pi first", "window first"])
    def test_first_invalid_spec_in_chunk_order_raises(self, order):
        valid = InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 4, 3)
        no_slot = InstanceSpec(Family.ODD_PI_EIGENVALUE, 1, 2,
                               params={"violate": 1})
        no_window = InstanceSpec(Family.SHIFTED_BRANCH_PAIR, 3, 4,
                                 params={"k_lo": 0, "k_hi": 0})
        bad = [no_slot, no_window] if order == "odd-pi first" else [
            no_window, no_slot]
        with pytest.raises(ConstructionFailed) as lone:
            make_pair(bad[0])
        with pytest.raises(ConstructionFailed) as chunk:
            make_pairs([valid, *bad, valid])
        assert str(chunk.value) == str(lone.value)

    def test_self_test_failure_raises_in_chunk_order(self, monkeypatch):
        # at a zero tolerance every pair fails its self-test except an
        # InteriorPair, whose X equals Y; the build failure of the later
        # spec must not preempt the earlier self-test failure
        monkeypatch.setattr(normlog.harness.generators, "_SELF_TEST_TOL", 0.0)
        interior = InstanceSpec(Family.INTERIOR_PAIR, 3, 1)
        flip = InstanceSpec(Family.BOUNDARY_FLIP_PAIR, 3, 1)
        no_slot = InstanceSpec(Family.ODD_PI_EIGENVALUE, 1, 2,
                               params={"violate": 1})
        assert make_pair(interior)[2]["self_test_residual"] == 0.0
        with pytest.raises(ConstructionFailed, match="self-test") as lone:
            make_pair(flip)
        with pytest.raises(ConstructionFailed) as chunk:
            make_pairs([interior, flip, no_slot])
        assert str(chunk.value) == str(lone.value)


def _workloads() -> dict:
    """The benchmark's workloads, from ``perfbench/workloads.py``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS


class _Recording(dict):
    """Family parameters that record every key a builder reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


# The family parameters that became constants, each with a value.
_CONSTANTS = [
    *((fam, name, 1.0) for fam in ("InteriorPair", "BoundaryFlipPair",
                                   "DistinctProjectionPair",
                                   "ShiftedBranchPair")
      for name in ("re_range", "im_margin")),
    ("DistinctProjectionPair", "pairs", 1), ("NonNormalLogPair", "pairs", 1),
    ("SelfAdjointCongruenceFree", "span", 8.0),
    ("OddPiEigenvalue", "span", 8.0), ("OddPiEigenvalue", "mult", 2),
]


class TestFamilyParameters:
    @pytest.mark.parametrize("family", list(Family))
    def test_builders_read_exactly_the_declared_names(self, family):
        declared = set(normlog.harness.generators._BUILDERS[family][2])
        for n in (2, 8):
            params = _Recording()
            make_pair(InstanceSpec(family, n, 3, params=params))
            assert params.read == declared, n

    def test_seven_parameters(self):
        assert sum(len(names) for _, _, names in
                   normlog.harness.generators._BUILDERS.values()) == 7

    @pytest.mark.parametrize("family, name, value", _CONSTANTS,
                             ids=lambda v: str(v))
    def test_constants_are_rejected(self, family, name, value):
        assert len(_CONSTANTS) == 13
        with pytest.raises(ValueError, match=f"unknown keys .'{name}'. "
                                             f"in {family} params"):
            InstanceSpec(Family(family), 4, 1, params={name: value})

    def test_misspelt_parameter_names_the_known_ones(self):
        with pytest.raises(ValueError, match=(
                r"\['violat'\] in OddPiEigenvalue params; expected names "
                r"from \['violate'\]")):
            InstanceSpec(Family.ODD_PI_EIGENVALUE, 4, 1,
                         params={"violat": 1})

    @pytest.mark.parametrize("params", [[("violate", 1)], None, "violate"])
    def test_params_must_be_a_dict(self, params):
        with pytest.raises(ValueError, match="params must be an object"):
            InstanceSpec(Family.ODD_PI_EIGENVALUE, 4, 1, params=params)

    @pytest.mark.parametrize("family, n", [("Nope", 4), ("InteriorPair", 0)])
    def test_bad_family_or_size(self, family, n):
        with pytest.raises(ValueError):
            InstanceSpec(family, n, 1)

    @pytest.mark.parametrize("family, name, value", [
        ("BoundaryFlipPair", "side", "up"), ("BoundaryFlipPair", "side", -1.0),
        ("BoundaryFlipPair", "boundary", True),
        ("BoundaryFlipPair", "conjugate_pair", [1]),
        ("ShiftedBranchPair", "k_lo", None), ("ShiftedBranchPair", "k_hi", "1"),
        ("SelfAdjointCongruenceFree", "violate", 1.0),
        ("OddPiEigenvalue", "violate", "no")], ids=str)
    def test_values_must_be_integers(self, family, name, value):
        kind = ("an integer or a boolean"
                if name in ("violate", "conjugate_pair") else "an integer")
        with pytest.raises(ValueError, match=f"{family} param '{name}' must "
                                             f"be {kind}, got"):
            InstanceSpec(Family(family), 4, 1, params={name: value})

    @pytest.mark.parametrize("family, name", [
        ("BoundaryFlipPair", "conjugate_pair"),
        ("SelfAdjointCongruenceFree", "violate"),
        ("OddPiEigenvalue", "violate")])
    def test_switches_take_booleans(self, family, name):
        for flag, number in ((True, 1), (False, 0)):
            params = {name: flag, "boundary": 2} if name == "conjugate_pair" \
                else {name: flag}
            as_bool = make_pair(InstanceSpec(Family(family), 4, 3, params=params))
            params[name] = number
            as_int = make_pair(InstanceSpec(Family(family), 4, 3, params=params))
            assert as_bool[0].tobytes() == as_int[0].tobytes()
            assert as_bool[1].tobytes() == as_int[1].tobytes()

    @pytest.mark.parametrize("n", ["4", 4.0, True, None])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            InstanceSpec(Family.INTERIOR_PAIR, n, 1)
        assert InstanceSpec(Family.INTERIOR_PAIR, np.int64(4), 1).n == 4

    @pytest.mark.parametrize("seed", [1.5, "3", None, True],
                             ids=["float", "string", "null", "bool"])
    def test_seed_must_be_an_integer(self, seed):
        # before, 1.5, "3" and None raised TypeError inside the stream
        # hash, and True built a pair whose metadata read "seed": true
        with pytest.raises(ValueError,
                           match=f"seed must be an integer, got {seed!r}"):
            InstanceSpec(Family.INTERIOR_PAIR, 4, seed)
        assert InstanceSpec(Family.INTERIOR_PAIR, 4, np.int64(3)).seed == 3


class TestMatrixFormat:
    def test_round_trip_exact(self, tmp_path):
        x, y, meta = make_pair(InstanceSpec(family=Family.SHIFTED_BRANCH_PAIR,
                                            n=4, seed=11))
        path = tmp_path / "pair.json"
        write_pair(str(path), x, y, meta)
        x2, y2, meta2 = read_pair(str(path))
        assert np.array_equal(x, x2) and np.array_equal(y, y2)
        assert meta2["family"] == "ShiftedBranchPair"

    def test_matrix_obj_schema(self):
        obj = matrix_to_obj(np.array([[1 + 2j]]))
        assert obj == {"n": 1, "entries": [[[1.0, 2.0]]]}
        assert np.array_equal(matrix_from_obj(obj), np.array([[1 + 2j]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 2, "entries": [[[0.0, 0.0]]]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_from_obj({"n": 1, "entries": [[[float("inf"), 0.0]]]})


class TestReportWriter:
    @staticmethod
    def _assert_as_json_dump(tmp_path, doc):
        written = tmp_path / "streamed.json"
        write_report(str(written), doc)
        reference = tmp_path / "dumped.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        assert written.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("workload", ["suite-serial", "large-n",
                                          "bicommutant"])
    def test_workload_reports(self, tmp_path, workload):
        config = _workloads()[workload].config(20240901)
        self._assert_as_json_dump(tmp_path, run_suite(config))

    def test_empty_results(self, tmp_path):
        self._assert_as_json_dump(tmp_path, normlog.harness.suite.report(
            "normlog", {"sizes": [2], "seeds": 1}, []))

    def test_quotes_and_non_ascii(self, tmp_path):
        config = {"base_seed": 3, "sizes": [2], "seeds": 2, "families": [
            {"family": "InteriorPair", "label": 'say "pi" \\ \u00e9t\u00e9'},
            {"family": "OddPiEigenvalue", "label": "\u03c0/\u5bf9\u6570\n\t",
             "checks": ["double_commutant"]}]}
        doc = run_suite(config)
        assert {row["family"] for row in doc["results"]} == {
            e["label"] for e in config["families"]}
        self._assert_as_json_dump(tmp_path, doc)

    @pytest.mark.parametrize("doc", [
        {}, [], {"results": []}, {"results": [{}], "summary": {}},
        {"config": {"k": [1, [2.5, {}], (3, "x")], 7: None},
         "results": [{"n": None, "r": {"a": float("inf"), "b": float("nan"),
                                       "c": -0.0, "d": 1e-300},
                      "f": Family.INTERIOR_PAIR, "g": np.float64(0.1),
                      "h": {1: True}, "l": [], "t": 10 ** 30}, [1], "s"]},
    ], ids=["empty", "list", "no-rows", "empty-row", "odd-values"])
    def test_other_values(self, tmp_path, doc):
        self._assert_as_json_dump(tmp_path, doc)

    def test_check_report_without_size_and_seed(self, tmp_path):
        # a pair file without n and seed; both are written as null
        pair = str(tmp_path / "pair.json")
        write_pair(pair, np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                   {"family": "file \u00e9"})
        out = tmp_path / "check.json"
        assert cli_main(["check", "--name", "real_part", "--in", pair,
                         "--report", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        (row,) = doc["results"]
        assert row["n"] is None and row["seed"] is None
        reference = tmp_path / "dumped.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        assert out.read_bytes() == reference.read_bytes()


class TestSuite:
    CFG = {"base_seed": 77, "sizes": [2, 4], "seeds": 2,
           "families": [{"family": "InteriorPair"},
                        {"family": "NonNormalLogPair"},
                        {"family": "OddPiEigenvalue"}]}

    def test_small_run_passes(self):
        rep = run_suite(self.CFG)
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["total"] == rep["summary"]["passed"]

    def test_seeds_hash_each_label_once_per_size(self):
        # the per-character hash of the label, size and index, in full
        def reference(base, label, n, index):
            h = mix64(base)
            for ch in label:
                h = mix64(h ^ ord(ch))
            h = mix64(h ^ (n << 32))
            return mix64(h ^ index)

        cfg = default_config()
        for entry in cfg["families"]:
            label = entry.get("label", entry["family"])
            for n in cfg["sizes"]:
                h = normlog.harness.suite._label_hash(cfg["base_seed"], label, n)
                assert [mix64(h ^ i) for i in range(cfg["seeds"])] == [
                    reference(cfg["base_seed"], label, n, i)
                    for i in range(cfg["seeds"])]
        rows = run_suite(self.CFG)["results"]
        assert [row["seed"] for row in rows] == [
            reference(77, e["family"], n, i) for e in self.CFG["families"]
            for n in self.CFG["sizes"] for i in range(self.CFG["seeds"])
            for _ in normlog.harness.suite._FAMILY_CHECKS[Family(e["family"])]]

    def test_report_summary_counts(self):
        rows = [{"passed": True, "hypothesis_met": True},
                {"passed": False, "hypothesis_met": False},
                {"passed": False, "hypothesis_met": True},
                {"passed": False, "hypothesis_met": True}]
        rep = normlog.harness.suite.report("s", {"k": 1}, rows)
        assert rep == {"suite": "s", "config": {"k": 1}, "results": rows,
                       "summary": {"total": 4, "passed": 1,
                                   "skipped_hypothesis": 1, "failed": 2}}

    def test_byte_identical_reports(self):
        a = json.dumps(run_suite(self.CFG))
        b = json.dumps(run_suite(self.CFG))
        assert a == b

    def test_parallel_matches_serial(self):
        assert run_suite(self.CFG, jobs=2) == run_suite(self.CFG, jobs=1)

    def test_parallel_matches_serial_across_chunks(self):
        cfg = _chunked()
        assert run_suite(cfg, jobs=2) == run_suite(cfg, jobs=1)

    def test_process_pool_imported_only_for_parallel_runs(self):
        # a fresh interpreter, so this session's imports do not count
        code = ("import sys\n"
                "import normlog.harness as h\n"
                "pool = {'concurrent.futures.process', 'multiprocessing'}\n"
                "assert not pool & set(sys.modules), pool & set(sys.modules)\n"
                f"cfg = {self.CFG!r}\n"
                "assert h.run_suite(cfg, jobs=2) == h.run_suite(cfg, jobs=1)\n"
                "assert pool <= set(sys.modules)\n")
        proc = _python("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_negative_controls_skip(self):
        rep = run_suite({"base_seed": 5, "sizes": [4], "seeds": 2,
                         "families": [{"family": "OddPiEigenvalue",
                                       "params": {"violate": 1}}]})
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["skipped_hypothesis"] == rep["summary"]["total"]
        assert not any(r["passed"] for r in rep["results"])

    def test_unattainable_tolerance_fails(self):
        rep = run_suite({"base_seed": 5, "sizes": [2], "seeds": 1,
                         "tol": {"check": 1e-30},
                         "families": [{"family": "BoundaryFlipPair"}]})
        assert rep["summary"]["failed"] > 0

    def test_default_config_lists_all_families(self):
        families = {e["family"] for e in default_config()["families"]}
        assert families == {f.value for f in Family}

    @staticmethod
    def _count_built(monkeypatch) -> list:
        """The seeds the suite builds, through its chunk builder."""
        calls = []
        real = normlog.harness.suite._build

        def counting(spec, seeds):
            calls.extend(seeds)
            return real(spec, seeds)

        monkeypatch.setattr(normlog.harness.suite, "_build", counting)
        return calls

    def test_each_spec_validated_once(self, monkeypatch):
        # a spec is validated once per entry and size, before any build;
        # the chunks build its seeds without a spec per seed
        validated = []
        post_init = InstanceSpec.__post_init__

        def counting(spec):
            validated.append((spec.family, spec.n))
            post_init(spec)

        monkeypatch.setattr(InstanceSpec, "__post_init__", counting)
        calls = self._count_built(monkeypatch)
        cfg = {"base_seed": 3, "sizes": [2, 3], "seeds": 40,
               "families": [{"family": "InteriorPair"},
                            {"family": "OddPiEigenvalue"}]}
        rep = run_suite(cfg)
        assert sorted(validated) == sorted(
            (Family(f), n) for f in ("InteriorPair", "OddPiEigenvalue")
            for n in (2, 3))
        assert len(calls) == 2 * 2 * 40
        assert rep["summary"]["failed"] == 0

    @pytest.mark.parametrize("tol", [
        {"bogus": 1}, {"eig": 1e-12}, {"gate": 1e-8}, {"cluster": 1e-6},
        {"check": 0}, {"check": -1e-8},
        {"check": "1e-8"}, {"check": math.inf}, {"check": math.nan},
        {"check": True}, [1e-8]])
    def test_bad_tolerances_rejected_before_work(self, tol, monkeypatch):
        calls = self._count_built(monkeypatch)
        with pytest.raises(ValueError, match="tol"):
            run_suite({"sizes": [2], "seeds": 1, "tol": tol,
                       "families": [{"family": "InteriorPair"}]})
        assert calls == []

    def test_integer_tolerance_accepted(self):
        rep = run_suite({"base_seed": 5, "sizes": [2], "seeds": 1,
                         "tol": {"check": 1},
                         "families": [{"family": "InteriorPair"}]})
        assert rep["summary"]["failed"] == 0

    @pytest.mark.parametrize("change, match", [
        ({"seed": 5}, "unknown keys .'seed'. in config"),
        ({"sizes": [2, 0]}, "n must be >= 1"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "BoundaryFlipPair",
                        "check": ["real_part"]}]},
         "unknown keys .'check'. in family entry"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "OddPiEigenvalue",
                        "label": "OddPiEigenvalue/two-odd-control",
                        "params": {"violat": 1}}]},
         "unknown keys .'violat'. in OddPiEigenvalue params"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "ShiftedBranchPair",
                        "params": {"k_lo": -2, "re_range": 1.0}}]},
         "unknown keys .'re_range'. in ShiftedBranchPair params"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "InteriorPair", "label": "x",
                        "params": [1]}]},
         "params must be an object"),
        ({"families": [{"family": "InteriorPair"}, ["InteriorPair"]]},
         "family entry must be an object"),
        ({"families": [{"family": "InteriorPair"}, {"family": "Nope"}]},
         "Nope"),
        # a run that checks nothing would report total 0, failed 0
        ({"seeds": 0}, "seeds must be >= 1, got 0"),
        ({"seeds": -3}, "seeds must be >= 1, got -3"),
        ({"sizes": []}, "sizes must name at least one size"),
        ({"families": []}, "families must name at least one entry"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "OddPiEigenvalue", "label": "none",
                        "checks": []}]}, "entry 'none' names no checks"),
    ], ids=["config-key", "size", "entry-key", "misspelt-control",
            "constant", "params-list", "entry-list", "family", "seeds-zero",
            "seeds-negative", "sizes-empty", "families-empty", "checks-empty"])
    def test_bad_config_rejected_before_work(self, change, match,
                                             monkeypatch):
        calls = self._count_built(monkeypatch)
        cfg = {"sizes": [2], "seeds": 1,
               "families": [{"family": "InteriorPair"}]}
        cfg.update(change)
        with pytest.raises(ValueError, match=match):
            run_suite(cfg)
        assert calls == []

    @pytest.mark.parametrize("change, match", [
        ({"base_seed": "5"}, "base_seed must be an integer"),
        ({"base_seed": 5.0}, "base_seed must be an integer"),
        ({"sizes": ["2"]}, "each size must be an integer, got '2'"),
        ({"sizes": [2.0]}, "each size must be an integer"),
        ({"sizes": 2}, "sizes must be a list of integers, got 2"),
        ({"seeds": "1"}, "seeds must be an integer"),
        ({"seeds": True}, "seeds must be an integer"),
        ({"families": [{"family": "InteriorPair", "label": 5}]},
         "label must be a string, got 5"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "BoundaryFlipPair",
                        "params": {"side": "up"}}]},
         "BoundaryFlipPair param 'side' must be an integer, got 'up'"),
        ({"families": [{"family": "InteriorPair"},
                       {"family": "OddPiEigenvalue",
                        "params": {"violate": "no"}}]},
         "OddPiEigenvalue param 'violate' must be an integer or a boolean"),
    ], ids=["seed-str", "seed-float", "size-str", "size-float", "sizes-int",
            "seeds-str", "seeds-bool", "label", "side", "violate"])
    def test_wrongly_typed_values_rejected_before_work(self, change, match,
                                                       monkeypatch):
        calls = self._count_built(monkeypatch)
        cfg = {"sizes": [2], "seeds": 1,
               "families": [{"family": "InteriorPair"}]}
        cfg.update(change)
        with pytest.raises(ValueError, match=match):
            run_suite(cfg)
        assert calls == []

    def test_boolean_switches_accepted(self):
        rows = run_suite({"sizes": [4], "seeds": 1, "families": [
            {"family": "OddPiEigenvalue", "params": {"violate": True}},
            {"family": "OddPiEigenvalue", "label": "off",
             "params": {"violate": False}}]})["results"]
        assert [r["hypothesis_met"] for r in rows] == [False, False,
                                                        True, True]

    def test_config_must_be_a_dict(self):
        with pytest.raises(ValueError, match="config must be an object"):
            run_suite([{"family": "InteriorPair"}])

    def test_only_none_means_the_default_config(self, monkeypatch):
        # an empty config names no family entry: it is not the default
        calls = self._count_built(monkeypatch)
        with pytest.raises(ValueError,
                           match="families must name at least one entry"):
            run_suite({})
        for falsy in ([], False, 0):
            with pytest.raises(ValueError, match="config must be an object"):
                run_suite(falsy)
        assert calls == []

    def test_default_and_workload_configs_accepted(self, monkeypatch):
        # every key is read; no instance is built
        monkeypatch.setattr(normlog.harness.suite, "_run_chunk",
                            lambda task: [])
        configs = [default_config()] + [
            w.config(20240901) for w in _workloads().values()]
        for cfg in configs:
            assert run_suite(cfg)["summary"]["total"] == 0

    def test_unknown_check_rejected_before_work(self, monkeypatch):
        calls = self._count_built(monkeypatch)
        cfg = {"sizes": [2], "seeds": 1,
               "families": [{"family": "InteriorPair"},
                            {"family": "OddPiEigenvalue",
                             "checks": ["double_commutant", "nope"]}]}
        with pytest.raises(ValueError, match="nope"):
            run_suite(cfg)
        assert calls == []


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's malloc settings: normlog's heap policy leaves each threshold the
# caller set to the caller
_HEAP_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
              "MALLOC_TOP_PAD_", "GLIBC_TUNABLES")


def _python(*args, **policy_vars):
    """A fresh interpreter run from the repository root, with normlog's
    source first on ``PYTHONPATH`` and the BLAS thread and malloc
    variables of this process unset, apart from ``policy_vars``."""
    env = {k: v for k, v in os.environ.items()
           if k not in _THREAD_VARS + _HEAP_VARS}
    env.update(policy_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _n128_reports(tmp_path, *envs) -> list:
    """The bytes of the n = 128 InteriorPair suite report, one run of the
    CLI per environment in ``envs``."""
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "sizes": [128], "seeds": 1,
        "families": [{"family": "InteriorPair"}]}))
    reports = []
    for policy_vars in envs:
        report = tmp_path / f"report{len(reports)}.json"
        proc = _python("-m", "normlog.harness.cli", "suite", "--config",
                       str(config), "--report", str(report), **policy_vars)
        assert proc.returncode == 0, proc.stderr
        reports.append(report.read_bytes())
    return reports


class TestThreadPolicy:
    # in fresh interpreters: the pytest process may load numpy first,
    # and then keeps numpy's thread count
    SHOW = ("import os, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "import normlog\n"
            f"print(*(os.environ.get(v) for v in {_THREAD_VARS!r}))\n")

    def test_import_sets_one_thread(self):
        proc = _python("-c", self.SHOW)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1", "1"]

    def test_caller_thread_count_is_kept(self):
        proc = _python("-c", self.SHOW, OPENBLAS_NUM_THREADS="3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "1", "1"]

    def test_report_at_n128_equals_the_one_thread_report(self, tmp_path):
        # a multithreaded BLAS rounds n = 128 products differently; on a
        # one-core host both runs are at one thread whatever the policy
        reports = _n128_reports(tmp_path, {}, {"OPENBLAS_NUM_THREADS": "1"})
        assert reports[0] == reports[1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy sets glibc's malloc thresholds")
class TestHeapPolicy:
    # in fresh interpreters: glibc reads its MALLOC_*_ variables when the
    # process starts. FAULTS prints the minor page faults per call of
    # repeated exponentials of one 128 x 128 stack, after a warm-up
    FAULTS = ("import resource, sys\n"
              "assert 'numpy' not in sys.modules\n"
              "import normlog\n"
              "import numpy as np\n"
              "from normlog.logs import _exp_stack\n"
              "x = np.random.default_rng(0).standard_normal((1, 128, 128))\n"
              "x = (x / 16).astype(complex)\n"
              "for _ in range(3):\n"
              "    _exp_stack(x)\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "for _ in range(20):\n"
              "    _exp_stack(x)\n"
              "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "print((faults - before) / 20)\n")

    def test_freed_temporaries_stay_in_the_heap(self):
        # glibc's default gives the n = 128 temporaries back to the OS on
        # each call, and the next call faults them in again
        proc = _python("-c", self.FAULTS)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 4

    def test_caller_threshold_is_kept(self):
        proc = _python("-c", self.FAULTS, MALLOC_MMAP_THRESHOLD_="131072")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) >= 100

    def test_caller_tunable_is_kept(self):
        proc = _python("-c", self.FAULTS, GLIBC_TUNABLES=(
            "glibc.malloc.top_pad=0:glibc.malloc.mmap_threshold=131072"))
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) >= 100

    def test_thresholds_are_pinned_beside_the_callers_top_pad(self):
        # any malloc variable turns glibc's dynamic thresholds off; the
        # thresholds the caller left unset are pinned all the same
        proc = _python("-c", self.FAULTS, MALLOC_TOP_PAD_="131072")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 4

    def test_report_at_n128_does_not_depend_on_the_heap(self, tmp_path):
        reports = _n128_reports(tmp_path, {},
                                {"MALLOC_MMAP_THRESHOLD_": "131072"})
        assert reports[0] == reports[1]


def _one_of_each() -> dict:
    """The default config's entries, negative controls included, at one
    seed and one size."""
    cfg = default_config()
    cfg.update(sizes=[4], seeds=1)
    return cfg


def _chunked() -> dict:
    """25 seeds at n in {24, 64}: the suite splits each (entry, n) into
    chunks of 14 + 11 and of 2 instances (the last one alone). Every
    NonNormalLogPair Y fails normality inside a stack, and the control
    skips two of its checks."""
    cfg = default_config()
    cfg.update(sizes=[24, 64], seeds=25, families=[
        e for e in cfg["families"]
        if e.get("label", e["family"]) in (
            "BoundaryFlipPair/conjugate-control", "NonNormalLogPair")])
    return cfg


def _regenerate(cfg: dict, row: dict):
    entry = next(e for e in cfg["families"]
                 if e.get("label", e["family"]) == row["family"])
    return make_pair(InstanceSpec(family=Family(entry["family"]), n=row["n"],
                                  seed=row["seed"],
                                  params=entry.get("params", {})))


class TestSharedAnalysis:
    def test_registry_names_resolve(self):
        for name in CHECK_NAMES:
            assert callable(getattr(normlog.checks, f"check_{name}"))
        with pytest.raises(ValueError):
            run_check("nope", PairAnalysis(np.eye(2), np.eye(2)))

    def test_dispatch_reads_module_attribute_at_call_time(self, monkeypatch):
        monkeypatch.setattr(normlog.checks, "check_real_part",
                            lambda pair: "rebound")
        assert run_check("real_part", PairAnalysis(np.eye(2), np.eye(2))) \
            == "rebound"

    @pytest.mark.parametrize("make_config", [_one_of_each, _chunked])
    def test_sharing_never_changes_a_verdict(self, make_config):
        cfg = make_config()
        rows = run_suite(cfg)["results"]
        assert len({r["family"] for r in rows}) == len(cfg["families"])
        assert any(not r["hypothesis_met"] for r in rows)
        assert len({(r["family"], r["n"], r["seed"]) for r in rows}) == (
            len(cfg["families"]) * len(cfg["sizes"]) * cfg["seeds"])
        instances = {}
        for row in rows:
            key = (row["family"], row["n"], row["seed"])
            if key not in instances:
                instances[key] = _regenerate(cfg, row)
            x, y, meta = instances[key]
            fresh = PairAnalysis(x, y, k_lo=meta.get("k_lo", -1),
                                 k_hi=meta.get("k_hi", 0))
            report = getattr(normlog.checks, f"check_{row['check']}")(fresh)
            expected = {"family": row["family"], "n": row["n"],
                        "seed": row["seed"]}
            expected.update(report.to_dict())
            assert row == expected

    def test_each_operand_analysed_once_per_instance(self, monkeypatch):
        # The operands are matched by bytes, since the stacks hold copies.
        # Each chunk decomposes, in one stacked call, the operands its
        # checks read: X and Y, but X and e^Y for NonNormalLogPair, whose
        # checks never read Y's decomposition; every chunk keeps e^Y. InteriorPair's Y equals X
        # byte for byte, so it is decomposed, exponentiated and
        # square-rooted with X, once. The exponentials are evaluated once,
        # by the stacked self-test of make_pairs, whose residual the suite
        # gives the chunk's gate and whose e^Y kurepa reads.
        cfg = _one_of_each()
        cfg.update(seeds=3)
        built = []
        decomposed, moduli, exponentiated, checks_exp = [], [], [], []
        real_build = normlog.harness.suite._build
        real_stack = normlog.checks._decompose_stack
        real_moduli = normlog.checks._modulus_stack
        real_exp_stack = normlog.harness.generators._exp_stack

        def build_spy(spec, seeds):
            out = real_build(spec, seeds)
            built.extend(out)
            return out

        def spy(record, real):
            def call(ms, **kwargs):
                record.extend(m.tobytes() for m in ms)
                return real(ms, **kwargs)
            return call

        monkeypatch.setattr(normlog.harness.suite, "_build", build_spy)
        monkeypatch.setattr(normlog.checks, "_decompose_stack",
                            spy(decomposed, real_stack))
        monkeypatch.setattr(normlog.checks, "_modulus_stack",
                            spy(moduli, real_moduli))
        monkeypatch.setattr(normlog.harness.generators, "_exp_stack",
                            spy(exponentiated, real_exp_stack))
        monkeypatch.setattr(normlog.checks, "_exp_stack",
                            lambda ms: checks_exp.append(ms))
        run_suite(cfg)

        assert len(built) == 3 * len(cfg["families"])
        assert checks_exp == []
        want_dec, want_mod, want_exp = Counter(), Counter(), Counter()
        for x, y, meta, exp_y in built:
            non_normal = meta["family"] == "NonNormalLogPair"
            # e^Y is exp_general(y) bit for bit
            assert exp_y.tobytes() == normlog.logs.exp_general(y).tobytes()
            reads = {x.tobytes(), (exp_y if non_normal else y).tobytes()}
            want_dec.update(reads)
            if meta["family"] in ("InteriorPair", "BoundaryFlipPair",
                                  "DistinctProjectionPair"):
                want_mod.update({x.tobytes(), y.tobytes()})
            elif non_normal:
                want_mod.update({x.tobytes()})
            lhs = 1j * x if meta["equation"] == "exp(iX)=exp(Y)" else x
            want_exp.update({lhs.tobytes(), y.tobytes()})
        assert Counter(decomposed) == want_dec
        assert Counter(moduli) == want_mod
        assert Counter(exponentiated) == want_exp
        interior = [x for x, y, meta, _ in built
                    if meta["family"] == "InteriorPair"]
        assert all(Counter(decomposed)[x.tobytes()] == 1 for x in interior)

    @pytest.mark.parametrize("family", list(Family))
    def test_self_test_residual_is_the_gate_residual(self, family):
        for n in (2, 8):
            for seed in range(3):
                x, y, meta = make_pair(InstanceSpec(family, n, seed))
                fresh = PairAnalysis(x, y)
                gate = fresh._chunk.exp_gaps(meta["equation"])[0]
                assert meta["self_test_residual"].hex() == gate.hex()


class TestCli:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_overflowing_pair_exits_zero_on_every_check(self, tmp_path,
                                                        capsys):
        # e^800 overflows: every check reading an exponential skips, and
        # congruence_free, which reads none, passes
        pair = str(tmp_path / "pair.json")
        x = np.diag([800.0, 1.0])
        write_pair(pair, x, x, {"family": "file"})
        for name in CHECK_NAMES:
            assert cli_main(["check", "--name", name, "--in", pair]) == 0
            out = capsys.readouterr().out
            status = "PASS" if name == "congruence_free" else "SKIP"
            assert out.startswith(f"[{status}] {name}")

    def test_norm_that_overflows_gives_each_check_its_outcome(
            self, tmp_path, capsys):
        # X = diag(1e200, 1): ||X||_F overflows, without a warning. e^X
        # is not finite, so the exponential-gated checks skip; kurepa
        # reads only Y = I and passes; the others need X's decomposition,
        # which is SpectrumOutOfRange, and exit 2
        pair = str(tmp_path / "pair.json")
        write_pair(pair, np.diag([1e200, 1.0]), np.eye(2), {"family": "file"})
        skips = {"real_part", "difference_formula", "double_commutant",
                 "one_boundary_eigenvalue", "y_in_bicommutant_of_exp"}
        for name in CHECK_NAMES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli_main(["check", "--name", name, "--in", pair])
            out, err = capsys.readouterr()
            if name in skips or name == "kurepa":
                status = "SKIP" if name in skips else "PASS"
                assert code == 0 and out.startswith(f"[{status}] {name}")
            else:
                assert code == 2
                assert err == "error: the matrix norm is not finite\n"

    def test_generate_check_flow(self, tmp_path, capsys):
        pair = str(tmp_path / "pair.json")
        report = str(tmp_path / "report.json")
        assert cli_main(["generate", "--family", "DistinctProjectionPair",
                         "--n", "4", "--seed", "12", "--out", pair]) == 0
        assert cli_main(["check", "--name", "modulus_equal", "--in", pair,
                         "--report", report]) == 0
        out = capsys.readouterr().out
        assert "[PASS] modulus_equal" in out
        with open(report) as fh:
            doc = json.load(fh)
        assert doc["summary"]["passed"] == 1

    def test_check_report_layout(self, tmp_path):
        # a skipped row: the summary counts it as the suite's would
        pair = str(tmp_path / "pair.json")
        report = str(tmp_path / "report.json")
        assert cli_main(["generate", "--family", "DistinctProjectionPair",
                         "--n", "4", "--seed", "12", "--out", pair]) == 0
        assert cli_main(["check", "--name", "double_commutant", "--in", pair,
                         "--report", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        assert list(doc) == ["suite", "config", "results", "summary"]
        assert doc["suite"] == "normlog-check"
        assert doc["config"] == {"name": "double_commutant", "input": pair}
        assert [row["check"] for row in doc["results"]] == ["double_commutant"]
        assert doc["summary"] == {"total": 1, "passed": 0,
                                  "skipped_hypothesis": 1, "failed": 0}

    def test_check_difference_formula_window(self, tmp_path):
        pair = str(tmp_path / "pair.json")
        assert cli_main(["generate", "--family", "ShiftedBranchPair",
                         "--n", "4", "--seed", "3",
                         "--param", "k_lo=-2", "--param", "k_hi=2",
                         "--out", pair]) == 0
        assert cli_main(["check", "--name", "difference_formula",
                         "--in", pair]) == 0

    @pytest.mark.parametrize("key", ["k_lo", "k_hi"])
    @pytest.mark.parametrize("value, shown", [
        (1.7, "1.7"), (True, "True"), (None, "None"), ("abc", "'abc'")],
        ids=["float", "bool", "null", "string"])
    def test_non_integer_branch_window_exits_2(self, tmp_path, capsys, key,
                                               value, shown):
        # a pair file's window bound is read as written, never truncated
        path = str(tmp_path / "pair.json")
        assert cli_main(["generate", "--family", "ShiftedBranchPair",
                         "--n", "4", "--seed", "0", "--out", path]) == 0
        x, y, meta = read_pair(path)
        meta[key] = value
        write_pair(path, x, y, meta)
        capsys.readouterr()
        assert cli_main(["check", "--name", "difference_formula",
                         "--in", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {key} must be an integer, got {shown}" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("key, message", [
        ("x", 'a pair file has no matrix "x"'),
        ("y", 'a pair file has no matrix "y"'),
        ("entries", 'a matrix has no "entries"')])
    def test_missing_key_exits_2(self, tmp_path, capsys, key, message):
        path = str(tmp_path / "pair.json")
        assert cli_main(["generate", "--family", "InteriorPair", "--n", "2",
                         "--seed", "0", "--out", path]) == 0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        holder = doc["x"] if key == "entries" else doc  # X's entries
        del holder[key]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match=message):
            read_pair(path)
        capsys.readouterr()
        assert cli_main(["check", "--name", "real_part", "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_operands_of_different_sizes_exit_2(self, tmp_path, capsys, name):
        # a pair file whose X is 2x2 and whose Y is 3x3
        paths = [str(tmp_path / f"pair{n}.json") for n in (2, 3)]
        for n, path in zip((2, 3), paths):
            assert cli_main(["generate", "--family", "InteriorPair", "--n",
                             str(n), "--seed", "0", "--out", path]) == 0
        x, _, meta = read_pair(paths[0])
        write_pair(paths[0], x, read_pair(paths[1])[1], meta)
        capsys.readouterr()
        assert cli_main(["check", "--name", name, "--in", paths[0]]) == 2
        captured = capsys.readouterr()
        assert ("error: X and Y must be of one size, got 2x2 and 3x3"
                in captured.err)
        assert "Traceback" not in captured.err and not captured.out

    def test_check_failure_exit_code(self, tmp_path, capsys):
        pair = str(tmp_path / "pair.json")
        cli_main(["generate", "--family", "BoundaryFlipPair", "--n", "2",
                  "--seed", "4", "--out", pair])
        assert cli_main(["check", "--name", "real_part", "--in", pair,
                         "--tol", "1e-30"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert cli_main(["generate", "--family", "InteriorPair", "--n", "4",
                         "--seed", "1", "--param", "re_range=1",
                         "--out", str(pair)]) == 2
        assert not pair.exists()
        assert "re_range" in capsys.readouterr().err
        config = tmp_path / "suite.json"
        config.write_text(json.dumps({"sizes": [2], "seed": 5}))
        assert cli_main(["suite", "--config", str(config)]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"sizes": ["2"], "seeds": 1,
          "families": [{"family": "InteriorPair"}]},
         "each size must be an integer, got '2'"),
        ({"sizes": [2], "seeds": 1,
          "families": [{"family": "BoundaryFlipPair",
                        "params": {"side": "up"}}]},
         "param 'side' must be an integer, got 'up'"),
        ({"sizes": [4], "seeds": 1,
          "families": [{"family": "OddPiEigenvalue",
                        "params": {"violate": "no"}}]},
         "param 'violate' must be an integer or a boolean, got 'no'"),
        # a config that checks nothing
        ({"sizes": [2], "seeds": -3,
          "families": [{"family": "InteriorPair"}]},
         "seeds must be >= 1, got -3"),
        ({"sizes": [], "seeds": 1, "families": [{"family": "InteriorPair"}]},
         "sizes must name at least one size"),
        ({"sizes": [2], "seeds": 1, "families": []},
         "families must name at least one entry"),
        ({"sizes": [2], "seeds": 1,
          "families": [{"family": "InteriorPair", "checks": []}]},
         "entry 'InteriorPair' names no checks"),
        # mistyped lists
        ({"sizes": [2], "seeds": 1, "families": 5},
         "families must be a list of entries, got 5"),
        ({"sizes": [2], "seeds": 1,
          "families": [{"family": "InteriorPair", "checks": 5}]},
         "checks of 'InteriorPair' must be a list of names, got 5"),
        ({"sizes": [2], "seeds": 1,
          "families": [{"family": "InteriorPair", "checks": "real_part"}]},
         "checks of 'InteriorPair' must be a list of names, got 'real_part'"),
    ], ids=["size", "side", "violate", "seeds-negative", "sizes-empty",
            "families-empty", "checks-empty", "families-int", "checks-int",
            "checks-str"])
    def test_rejected_config_exits_2(self, tmp_path, capsys, config,
                                     message):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert cli_main(["suite", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert "total" not in captured.out

    @pytest.mark.parametrize("doc", [{}, [], None, False, 0],
                             ids=["object", "list", "null", "false", "zero"])
    def test_falsy_config_file_exits_2(self, tmp_path, capsys, doc):
        # before, each of these ran the whole default suite and exited 0
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["suite", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        message = ("families must name at least one entry" if doc == {}
                   else f"a config file must hold an object, got {doc!r}")
        assert message in captured.err and "Traceback" not in captured.err
        assert "total" not in captured.out

    @pytest.mark.parametrize("doc, message", [
        ({"x": {"n": 1, "entries": [[["a", 0]]]},
          "y": {"n": 1, "entries": [[[0.0, 0.0]]]}},
         "entries must be 1 rows of 1 [re, im] pairs of numbers"),
        ({"x": {"n": 1, "entries": 5},
          "y": {"n": 1, "entries": [[[0.0, 0.0]]]}},
         "entries must be 1 rows of 1 [re, im] pairs of numbers"),
        ([1, 2], "a pair file must hold an object, got [1, 2]"),
        ({"x": {"n": None, "entries": [[[0.0, 0.0]]]},
          "y": {"n": 1, "entries": [[[0.0, 0.0]]]}},
         "n must be an integer, got None"),
        ({"x": {"n": 1, "entries": [[[0.0, 0.0]]]},
          "y": {"n": 1.7, "entries": [[[0.0, 0.0]]]}},
         "n must be an integer, got 1.7"),
        ({"x": {"n": True, "entries": [[[0.0, 0.0]]]},
          "y": {"n": 1, "entries": [[[0.0, 0.0]]]}},
         "n must be an integer, got True"),
        ({"x": {"n": 2, "entries": [[[0.0, 0.0]]]},
          "y": {"n": 1, "entries": [[[0.0, 0.0]]]}},
         "entries must be 2 rows of 2 [re, im] pairs of numbers"),
    ], ids=["string-entry", "entries-int", "document-list", "n-null",
            "n-float", "n-bool", "n-not-the-row-count"])
    def test_malformed_pair_file_exits_2(self, tmp_path, capsys, doc,
                                         message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["check", "--name", "real_part", "--in",
                         str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err

    def test_check_recomputes_exp_gate_from_matrices(self, tmp_path, capsys):
        # a pair file's self_test_residual is not trusted for the gate
        path = str(tmp_path / "pair.json")
        assert cli_main(["generate", "--family", "InteriorPair", "--n", "4",
                         "--seed", "7", "--out", path]) == 0
        x, y, meta = read_pair(path)
        meta["self_test_residual"] = 0.0
        write_pair(path, x, y + 0.5 * np.eye(4), meta)  # still normal
        capsys.readouterr()
        assert cli_main(["check", "--name", "real_part", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] real_part" in out and "exponentials differ" in out

    def test_skip_exit_code_is_zero(self, tmp_path, capsys):
        pair = str(tmp_path / "pair.json")
        cli_main(["generate", "--family", "OddPiEigenvalue", "--n", "4",
                  "--seed", "4", "--param", "violate=1", "--out", pair])
        assert cli_main(["check", "--name", "one_boundary_eigenvalue",
                         "--in", pair]) == 0
        assert "[SKIP]" in capsys.readouterr().out

    def test_suite_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"base_seed": 2, "sizes": [2], "seeds": 1,
                                   "families": [{"family": "InteriorPair"}]}))
        report = str(tmp_path / "suite.json")
        assert cli_main(["suite", "--config", str(cfg),
                         "--report", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        assert doc["summary"]["failed"] == 0
        assert "total" in capsys.readouterr().out

    # only the check threshold is settable; every other one is fixed
    @pytest.mark.parametrize("key", ["bogus", "gate", "cluster"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [2], "seeds": 1,
                                   "tol": {key: 1},
                                   "families": [{"family": "InteriorPair"}]}))
        assert cli_main(["suite", "--config", str(cfg)]) == 2
        assert f"unknown keys ['{key}'] in tol" in capsys.readouterr().err

    def test_check_outside_branch_window_skips(self, tmp_path, capsys):
        # X's eigenvalue 0.3 + i(pi - d) and Y's 0.3 - i(pi + d): e^X = e^Y,
        # and Y lies below the window [-1, 0] at d = 1e-4
        d = 1e-4
        u = random_unitary(4, 0)
        rest = [-0.7 - 1.1j, 1.1 + 2.0j, -0.2 - 2.6j]
        x = u @ np.diag([0.3 + 1j * (math.pi - d)] + rest) @ dagger(u)
        y = u @ np.diag([0.3 - 1j * (math.pi + d)] + rest) @ dagger(u)
        pair = str(tmp_path / "pair.json")
        write_pair(pair, x, y, {"family": "file"})
        assert cli_main(["check", "--name", "difference_formula", "--in", pair,
                         "--k-lo", "-1", "--k-hi", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[SKIP] difference_formula")
        assert "spectrum outside branch window [-1, 0]" in out
        assert cli_main(["check", "--name", "difference_formula", "--in", pair,
                         "--k-lo", "-2", "--k-hi", "1"]) == 0
        assert capsys.readouterr().out.startswith("[PASS] difference_formula")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_check_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        # the pair's real parts agree exactly, so only a bad --tol can fail it
        pair = str(tmp_path / "pair.json")
        write_pair(pair, np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                   {"family": "file"})
        assert cli_main(["check", "--name", "real_part", "--in", pair]) == 0
        assert cli_main(["check", "--name", "real_part", "--in", pair,
                         f"--tol={tol}"]) == 2
        assert "tolerance 'check'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_suite_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs,
                                                 monkeypatch):
        def no_build(spec, seeds):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(normlog.harness.suite, "_build", no_build)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [2], "seeds": 1,
                                   "families": [{"family": "InteriorPair"}]}))
        assert cli_main(["suite", "--config", str(cfg), "--jobs", jobs]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_kurepa_holds_on_every_family(self, family, tmp_path):
        # a Y with e^Y normal splits into commuting N0 and W, whatever
        # its family; the commute residual is relative to
        # max(1, ||N0|| ||W||), so a W near zero does not inflate it
        pair = str(tmp_path / "pair.json")
        assert cli_main(["generate", "--family", family.value, "--n", "4",
                         "--seed", "0", "--out", pair]) == 0
        assert cli_main(["check", "--name", "kurepa", "--in", pair]) == 0

    def test_check_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["check", "--name", "nope", "--in", "pair.json"])
        err = capsys.readouterr().err
        assert all(name in err for name in CHECK_NAMES)

    def test_missing_file_is_usage_error(self, capsys):
        assert cli_main(["check", "--name", "real_part",
                         "--in", "/nonexistent/pair.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_precondition_violation_is_usage_error(self, tmp_path, capsys):
        pair = str(tmp_path / "bad.json")
        write_pair(pair, np.array([[0, 1], [0, 0]], dtype=complex),
                   np.eye(2, dtype=complex), {"family": "file"})
        assert cli_main(["check", "--name", "congruence_free",
                         "--in", pair]) == 2
        assert "error" in capsys.readouterr().err
