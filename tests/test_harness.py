import json
import math

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
)
from normlog.harness.cli import main as cli_main
from normlog.linalg import dagger, frob, is_normal
from normlog.logs import TWO_PI
from normlog.spectral import normal_eig

PI = math.pi


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


def _scalar_gaussian_matrix(stream, n):
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = complex(stream.normal(), stream.normal()) / math.sqrt(2)
    return out


class TestGaussianMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 128])
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare"])
    def test_equals_scalar_stream(self, n, seed, spare):
        array, scalar = Stream(seed), Stream(seed)
        if spare:  # one normal() leaves its Box-Muller partner pending
            array.normal()
            scalar.normal()
        got = array.complex_gaussian_matrix(n)
        want = _scalar_gaussian_matrix(scalar, n)
        assert got.shape == (n, n) and got.dtype == complex
        assert got.tobytes() == want.tobytes()
        assert array.counter == scalar.counter
        assert [array.normal() for _ in range(3)] == [scalar.normal() for _ in range(3)]
        assert array.u64() == scalar.u64()


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

    def test_byte_identical_reports(self):
        a = json.dumps(run_suite(self.CFG))
        b = json.dumps(run_suite(self.CFG))
        assert a == b

    def test_parallel_matches_serial(self):
        assert run_suite(self.CFG, jobs=2) == run_suite(self.CFG, jobs=1)

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
    def _count_make_pair(monkeypatch) -> list:
        calls = []
        real = normlog.harness.suite.make_pair

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(normlog.harness.suite, "make_pair", counting)
        return calls

    @pytest.mark.parametrize("tol", [
        {"bogus": 1}, {"eig": 1e-12}, {"check": 0}, {"check": -1e-8},
        {"check": "1e-8"}, {"check": math.inf}, {"check": math.nan},
        {"check": True}, [1e-8]])
    def test_bad_tolerances_rejected_before_work(self, tol, monkeypatch):
        calls = self._count_make_pair(monkeypatch)
        with pytest.raises(ValueError, match="tol"):
            run_suite({"sizes": [2], "seeds": 1, "tol": tol,
                       "families": [{"family": "InteriorPair"}]})
        assert calls == []

    def test_integer_tolerance_accepted(self):
        rep = run_suite({"base_seed": 5, "sizes": [2], "seeds": 1,
                         "tol": {"check": 1},
                         "families": [{"family": "InteriorPair"}]})
        assert rep["summary"]["failed"] == 0

    def test_unknown_check_rejected_before_work(self, monkeypatch):
        calls = self._count_make_pair(monkeypatch)
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

    def test_sharing_never_changes_a_verdict(self):
        cfg = _one_of_each()
        rows = run_suite(cfg)["results"]
        assert len({r["family"] for r in rows}) == len(cfg["families"])
        assert any(not r["hypothesis_met"] for r in rows)
        for row in rows:
            x, y, meta = _regenerate(cfg, row)
            fresh = PairAnalysis(x, y, k_lo=meta.get("k_lo", -1),
                                 k_hi=meta.get("k_hi", 0))
            report = getattr(normlog.checks, f"check_{row['check']}")(fresh)
            expected = {"family": row["family"], "n": row["n"],
                        "seed": row["seed"]}
            expected.update(report.to_dict())
            assert row == expected

    def test_each_operand_analysed_once_per_instance(self, monkeypatch):
        # calls per (instance, operand); operands are told apart by
        # identity, since InteriorPair has X equal to Y. The exponentials
        # are evaluated once, by make_pair's self-test, whose residual the
        # suite hands to the pair's gate.
        calls = []
        pairs = []
        self_test_args = []
        real_make_pair = normlog.harness.suite.make_pair
        real_normal_eig = normlog.checks.normal_eig
        real_exp = normlog.harness.generators.exp_general

        def operand(arg):
            x, y, _ = pairs[-1]
            if arg is x:
                return "x"
            if arg is y:
                return "y"
            return "ix" if np.array_equal(arg, 1j * x) else "unknown"

        def make_pair_spy(spec):
            self_test_args.clear()
            pairs.append(real_make_pair(spec))
            calls.extend((len(pairs), "exp_general", operand(arg))
                         for arg in self_test_args)
            return pairs[-1]

        def self_test_exp_spy(arg):
            self_test_args.append(arg)
            return real_exp(arg)

        def checks_exp_spy(arg):
            calls.append((len(pairs), "checks.exp_general", operand(arg)))
            return real_exp(arg)

        def normal_eig_spy(arg, **kwargs):
            calls.append((len(pairs), "normal_eig", operand(arg)))
            return real_normal_eig(arg, **kwargs)

        monkeypatch.setattr(normlog.harness.suite, "make_pair", make_pair_spy)
        monkeypatch.setattr(normlog.harness.generators, "exp_general",
                            self_test_exp_spy)
        monkeypatch.setattr(normlog.checks, "exp_general", checks_exp_spy)
        monkeypatch.setattr(normlog.checks, "normal_eig", normal_eig_spy)
        run_suite(_one_of_each())

        assert len(pairs) == len(_one_of_each()["families"])
        assert {c[1] for c in calls} == {"normal_eig", "exp_general"}
        assert all(c[2] != "unknown" for c in calls)
        assert len(calls) == len(set(calls))
        # both sides of each pair's equation, each once
        assert sum(c[1] == "exp_general" for c in calls) == 2 * len(pairs)

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
        def no_make_pair(spec):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(normlog.harness.suite, "make_pair", no_make_pair)
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
