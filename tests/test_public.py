"""The public surface: what the package exports, and nothing it dropped."""

import ast
import importlib
import os

import pytest

import normlog

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "normlog")
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
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"normlog.{module}"), name)
    assert not hasattr(normlog, name)
