"""The public surface: what the package exports, and nothing it dropped."""

import ast
import importlib
import inspect
import os
import re

import numpy as np
import pytest

import normlog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "normlog")
MODULES = ["normlog", "normlog.checks", "normlog.config", "normlog.errors",
           "normlog.linalg", "normlog.logs", "normlog.report",
           "normlog.spectral", "normlog.harness", "normlog.harness.cli",
           "normlog.harness.generators", "normlog.harness.io",
           "normlog.harness.rng", "normlog.harness.suite"]


def _public(module):
    """A module's ``__all__``, or, without one, every name ``import *``
    takes: those not starting with an underscore."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


@pytest.mark.parametrize("package", ["__init__.py",
                                     os.path.join("harness", "__init__.py")])
def test_reexports_are_public_in_their_module(package):
    path = os.path.join(SRC, package)
    prefix = "normlog" if package == "__init__.py" else "normlog.harness"
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"{prefix}.{node.module}")
        for alias in node.names:
            assert alias.name in _public(module), (node.module, alias.name)


@pytest.mark.parametrize("module, name", [
    ("spectral", "_branch_window"),
    ("spectral", "verify_pushforward"),
    ("spectral", "whole_plane"),
    ("spectral", "strip"),
    ("logs", "BranchShift"),
    ("logs", "exp_normal"),
    ("linalg", "CommutantBasis"),
    ("logs", "exp_stack"),
    ("linalg", "modulus_stack"),
    ("harness.rng", "unitary_stack"),
    ("harness.rng", "Stream"),
    ("spectral", "fold_scalar"),
    ("errors", "OutOfFoldRange"),
    ("spectral", "strip_boundary"),
    ("spectral", "RegionUnion"),
    ("config", "Tolerances"),
    ("config", "DEFAULT_TOL"),
    ("checks", "decompose_pairs"),
    ("checks", "_Stacked"),
    ("checks", "_facts"),
    ("checks", "_operands"),
    ("checks", "_analyse"),
    ("spectral", "_gather"),
    ("checks", "_EQUATIONS"),
    ("checks", "_row_of"),
    # the per-pair oracle, moved to tests/util.py
    ("spectral", "HLine"),
    ("spectral", "Points"),
    ("spectral", "odd_line"),
    ("spectral", "open_branch_strip"),
    ("spectral", "normal_eig_stack"),
    ("harness.generators", "make_pairs"),
    ("harness.generators", "_make_pairs"),
    ("spectral", "_isolated"),
    ("linalg", "_same_bytes"),
    ("linalg", "_as_square_stack"),
    ("checks", "_Row"),
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"normlog.{module}"), name)
    assert not hasattr(normlog, name)


def test_pairs_take_no_measured_facts():
    # e^Y and the exponential gaps a build measured reach the suite's
    # chunks, never a pair
    params = inspect.signature(normlog.PairAnalysis).parameters
    assert list(params) == ["x", "y", "check_tol", "k_lo", "k_hi"]
    assert [p.kind for p in params.values()] == (
        [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2
        + [inspect.Parameter.KEYWORD_ONLY] * 3)
    assert list(inspect.signature(normlog.harness.analyze_pair).parameters
                ) == ["x", "y", "metadata", "check_tol"]
    pair = normlog.PairAnalysis(np.eye(2), np.eye(2))
    with pytest.raises(AttributeError):
        pair.exp_y = np.eye(2)


# The facts a pair once exposed; each is read from a chunk.
PAIR_FACTS = ["normal_x", "normal_y", "norm_x", "norm_y",
              "commutator_residual", "real_part_residual", "hermitian_x",
              "exp_residual", "exp_i_residual", "congruence", "dec_x",
              "dec_y", "modulus_x", "modulus_y", "exp_y"]


@pytest.mark.parametrize("name", PAIR_FACTS)
def test_pairs_hold_no_facts(name):
    pair = normlog.PairAnalysis(np.eye(2), np.eye(2))
    assert not hasattr(normlog.PairAnalysis, name)
    assert not hasattr(pair, name)


def test_decompositions_have_no_validate():
    # the invariant oracle is tests/util.validate_decomposition
    assert not hasattr(normlog.SpectralDecomposition, "validate")


@pytest.mark.parametrize("name", ["bicommutant_distance", "_group_labels"])
def test_decompositions_have_no_bicommutant_distance(name):
    # the per-pair distance oracle is tests/util.bicommutant_distance
    assert not hasattr(normlog.SpectralDecomposition, name)


def test_branch_log_takes_no_offsets():
    params = inspect.signature(normlog.branch_log).parameters
    assert list(params) == ["dec_n"]


# Each fixed threshold, at the value it had as a field of the deleted
# ``Tolerances`` record.
FIXED_TOLERANCES = {
    "HERM_TOL": 1e-10, "NORM_TOL": 1e-10, "COMM_TOL": 1e-10,
    "CHECK_TOL": 1e-8, "GATE_TOL": 1e-8, "RANK_TOL": 1e-10,
    "BOUNDARY_TOL": 1e-9, "ON_FEATURE_TOL": 1e-12, "CLUSTER_TOL": 1e-8,
    "INTEGER_TOL": 1e-6, "INV_TOL": 1e-10,
}


@pytest.mark.parametrize("name, value", sorted(FIXED_TOLERANCES.items()))
def test_fixed_tolerance_keeps_its_value(name, value):
    assert getattr(normlog.config, name) == value


def test_config_holds_only_the_fixed_values():
    names = {n for n in vars(normlog.config) if n.isupper()}
    assert names == set(FIXED_TOLERANCES) | {"STACK_ENTRIES"}
    assert normlog.config.STACK_ENTRIES == 8192


def _public_callables():
    """``(qualified name, callable)`` for every public callable of the
    listed modules, and for every method of their public classes."""
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in sorted(_public(module)):
            obj = getattr(module, attr)
            if not callable(obj):
                continue
            yield f"{name}.{attr}", obj
            if inspect.isclass(obj):
                for member, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        yield f"{name}.{attr}.{member}", fn


def test_no_public_callable_takes_a_tolerance():
    # the check threshold is PairAnalysis' check_tol; nothing takes ``tol``
    seen = 0
    for qualname, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # no signature to inspect
            continue
        seen += 1
        assert "tol" not in params, qualname
    assert seen > 50


def _readme_python_blocks() -> list:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_a_library_tour():
    assert _readme_python_blocks()


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_python_block_runs(index):
    exec(compile(_readme_python_blocks()[index], f"README.md block {index}",
                 "exec"), {})
