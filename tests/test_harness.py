import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import normlog.checks
import normlog.harness.generators
import normlog.harness.suite
from normlog.checks import CHECK_NAMES, PairAnalysis, run_check
from normlog.errors import ConstructionFailed
from normlog.harness import (
    Family,
    InstanceSpec,
    Stream,
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
from normlog.harness.generators import make_pairs
from normlog.harness.rng import _gaussians, _unitary_stack
from normlog.harness.cli import main as cli_main
from normlog.linalg import dagger, frob, is_normal
from normlog.logs import TWO_PI
from normlog.spectral import normal_eig

from util import gaussian_matrix

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


class TestGaussianMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    def test_equals_scalar_stream(self, n, seed):
        # row i is the first 2 n^2 normal() draws of a fresh stream of
        # seeds[i]; over sqrt(2) it is the scalar loop's Gaussian matrix
        seeds = [seed, mix64(seed), seed]
        got = _gaussians(np.array(seeds, dtype=np.uint64), n * n)
        assert got.shape == (3, 2 * n * n)
        for s, row in zip(seeds, got):
            stream = Stream(s)
            assert row.tolist() == [stream.normal() for _ in range(2 * n * n)]
        assert (got[0] / math.sqrt(2)).tobytes() == (
            gaussian_matrix(Stream(seed), n).tobytes())


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 24, 64])
    def test_stacked_draw_equals_lone_draws(self, n):
        seeds = [7, 2 ** 64 - 1, -3, mix64(n), 7]
        stack = _unitary_stack(n, seeds)
        assert stack.shape == (len(seeds), n, n)
        for seed, u in zip(seeds, stack):
            # the lone draw, and the QR-with-phases recipe step by step
            q, r = np.linalg.qr(gaussian_matrix(Stream(seed), n))
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
        self._assert_as_json_dump(tmp_path, run_suite(
            {"families": [], "sizes": [2], "seeds": 1}))

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

    def test_empty_family_list(self):
        rep = run_suite({"families": [], "sizes": [2], "seeds": 1})
        assert rep["summary"] == {"total": 0, "passed": 0,
                                  "skipped_hypothesis": 0, "failed": 0}

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
        # 25 seeds at n = 24 run as chunks of 14 and 11 instances; n = 64
        # is left out, where the pool's workers contend for BLAS threads
        cfg = dict(_chunked(), sizes=[24])
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
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
        """The specs the suite builds, through its chunk builder."""
        calls = []
        real = normlog.harness.suite.make_pairs

        def counting(specs):
            specs = list(specs)
            calls.extend(specs)
            return real(specs)

        monkeypatch.setattr(normlog.harness.suite, "make_pairs", counting)
        return calls

    @pytest.mark.parametrize("tol", [
        {"bogus": 1}, {"eig": 1e-12}, {"check": 0}, {"check": -1e-8},
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
    ], ids=["config-key", "size", "entry-key", "misspelt-control",
            "constant", "params-list", "entry-list", "family"])
    def test_bad_config_rejected_before_work(self, change, match,
                                             monkeypatch):
        calls = self._count_built(monkeypatch)
        cfg = {"sizes": [2], "seeds": 1,
               "families": [{"family": "InteriorPair"}]}
        cfg.update(change)
        with pytest.raises(ValueError, match=match):
            run_suite(cfg)
        assert calls == []

    def test_config_must_be_a_dict(self):
        with pytest.raises(ValueError, match="config must be an object"):
            run_suite([{"family": "InteriorPair"}])

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
        # calls per (instance, operand); operands are told apart by
        # identity, since InteriorPair has X equal to Y. Each chunk's
        # operands are decomposed in one stacked call, whose argument
        # lists them. The exponentials are evaluated once, by the stacked
        # self-test of make_pairs, whose residual the suite hands to the
        # pair's gate; the stacks hold copies, so their matrices are
        # matched to the sides of each pair's equation by value.
        cfg = _one_of_each()
        cfg.update(seeds=3)
        calls = []
        pairs = []
        exponentiated = []
        real_make_pairs = normlog.harness.suite.make_pairs
        real_stack = normlog.checks.normal_eig_stack
        real_exp_stack = normlog.harness.generators._exp_stack
        real_exp = normlog.checks.exp_general

        def operand(arg, k):
            x, y, _ = pairs[k]
            if arg is x:
                return "x"
            if arg is y:
                return "y"
            return "ix" if np.array_equal(arg, 1j * x) else "unknown"

        def instance(arg):
            return next((k for k, (x, y, _) in enumerate(pairs)
                         if arg is x or arg is y), len(pairs) - 1)

        def make_pairs_spy(specs):
            built = real_make_pairs(specs)
            pairs.extend(built)
            return built

        def self_test_exp_spy(stack):
            exponentiated.extend(m.tobytes() for m in stack)
            return real_exp_stack(stack)

        def checks_exp_spy(arg):
            k = instance(arg)
            calls.append(("checks.exp_general", k, operand(arg, k)))
            return real_exp(arg)

        def stack_spy(ms, **kwargs):
            for m in ms:
                k = instance(m)
                calls.append(("normal_eig_stack", k, operand(m, k)))
            return real_stack(ms, **kwargs)

        monkeypatch.setattr(normlog.harness.suite, "make_pairs", make_pairs_spy)
        monkeypatch.setattr(normlog.harness.generators, "_exp_stack",
                            self_test_exp_spy)
        monkeypatch.setattr(normlog.checks, "exp_general", checks_exp_spy)
        monkeypatch.setattr(normlog.checks, "normal_eig_stack", stack_spy)
        run_suite(cfg)

        assert len(pairs) == 3 * len(cfg["families"])
        assert {c[0] for c in calls} == {"normal_eig_stack"}
        assert all(c[2] != "unknown" for c in calls)
        assert len(calls) == len(set(calls))
        # X and Y of each instance decomposed, each once
        assert sorted(c[1:] for c in calls if c[0] == "normal_eig_stack") == [
            (k, side) for k in range(len(pairs)) for side in ("x", "y")]
        # both sides of each pair's equation, each once
        sides = [m.tobytes() for x, y, meta in pairs
                 for m in (1j * x if meta["equation"] == "exp(iX)=exp(Y)"
                           else x, y)]
        assert len(exponentiated) == 2 * len(pairs)
        assert Counter(exponentiated) == Counter(sides)

    @pytest.mark.parametrize("family", list(Family))
    def test_self_test_residual_is_the_gate_residual(self, family):
        for n in (2, 8):
            for seed in range(3):
                x, y, meta = make_pair(InstanceSpec(family, n, seed))
                fresh = PairAnalysis(x, y)
                gate = (fresh.exp_i_residual
                        if meta["equation"] == "exp(iX)=exp(Y)"
                        else fresh.exp_residual)
                assert meta["self_test_residual"].hex() == gate.hex()


class TestCli:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_generate_check_flow(self, tmp_path, capsys):
        pair = str(tmp_path / "pair.json")
        report = str(tmp_path / "report.json")
        assert cli_main(["generate", "--family", "DistinctProjectionPair",
                         "--n", "4", "--seed", "12", "--out", pair]) == 0
        assert cli_main(["check", "--name", "modulus_equal", "--in", pair,
                         "--report", report]) == 0
        out = capsys.readouterr().out
        assert "[PASS] modulus_equal" in out
        doc = json.loads(open(report).read())
        assert doc["summary"]["passed"] == 1

    def test_check_report_layout(self, tmp_path):
        # a skipped row: the summary counts it as the suite's would
        pair = str(tmp_path / "pair.json")
        report = str(tmp_path / "report.json")
        assert cli_main(["generate", "--family", "DistinctProjectionPair",
                         "--n", "4", "--seed", "12", "--out", pair]) == 0
        assert cli_main(["check", "--name", "double_commutant", "--in", pair,
                         "--report", report]) == 0
        doc = json.loads(open(report).read())
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
        doc = json.loads(open(report).read())
        assert doc["summary"]["failed"] == 0
        assert "total" in capsys.readouterr().out

    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [2], "seeds": 1,
                                   "tol": {"bogus": 1},
                                   "families": [{"family": "InteriorPair"}]}))
        assert cli_main(["suite", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

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
        def no_make_pairs(specs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(normlog.harness.suite, "make_pairs", no_make_pairs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [2], "seeds": 1,
                                   "families": [{"family": "InteriorPair"}]}))
        assert cli_main(["suite", "--config", str(cfg), "--jobs", jobs]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

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
