"""Benchmark workloads and the verdict oracle.

The suite entries below are a frozen copy of ``default_config()`` at the
commit that defined this benchmark, so a later change to the default
config cannot change what the benchmark measures. Each workload picks
entries, sizes, a seed count and a ``--jobs`` value; the benchmark seed
becomes the config's ``base_seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 20240901

_NORMAL_PAIRS = [
    {"family": "InteriorPair"},
    {"family": "BoundaryFlipPair"},
    {"family": "BoundaryFlipPair", "label": "BoundaryFlipPair/conjugate-control",
     "params": {"conjugate_pair": 1, "boundary": 2}},
    {"family": "DistinctProjectionPair"},
    {"family": "ShiftedBranchPair"},
    {"family": "ShiftedBranchPair", "label": "ShiftedBranchPair/wide",
     "params": {"k_lo": -3, "k_hi": 3}},
    {"family": "NonNormalLogPair"},
]
_SELF_ADJOINT = [
    {"family": "SelfAdjointCongruenceFree"},
    {"family": "SelfAdjointCongruenceFree",
     "label": "SelfAdjointCongruenceFree/congruence-control",
     "params": {"violate": 1},
     "checks": ["double_commutant", "one_boundary_eigenvalue"]},
    {"family": "OddPiEigenvalue"},
    {"family": "OddPiEigenvalue", "label": "OddPiEigenvalue/two-odd-control",
     "params": {"violate": 1}},
]

# Checks each family runs when its entry names none (harness.suite).
_FAMILY_CHECKS = {
    "InteriorPair": ("spectral_agreement", "real_part", "modulus_equal",
                     "corollary_cases", "difference_formula"),
    "BoundaryFlipPair": ("spectral_agreement", "real_part", "modulus_equal",
                         "modulus_commute", "square_commute",
                         "corollary_cases", "difference_formula"),
    "DistinctProjectionPair": ("spectral_agreement", "real_part",
                               "modulus_equal", "modulus_commute",
                               "difference_formula"),
    "ShiftedBranchPair": ("real_part", "difference_formula"),
    "NonNormalLogPair": ("modulus_commute", "kurepa"),
    "SelfAdjointCongruenceFree": ("congruence_free", "double_commutant",
                                  "one_boundary_eigenvalue",
                                  "y_in_bicommutant_of_exp"),
    "OddPiEigenvalue": ("one_boundary_eigenvalue", "double_commutant"),
}

# Cells whose hypothesis fails by construction: the negative controls.
# Every other (family label, check) cell must pass, at any seed.
EXPECTED_SKIPS = frozenset({
    ("BoundaryFlipPair/conjugate-control", "corollary_cases"),
    ("BoundaryFlipPair/conjugate-control", "square_commute"),
    ("SelfAdjointCongruenceFree/congruence-control", "double_commutant"),
    ("OddPiEigenvalue/two-odd-control", "double_commutant"),
    ("OddPiEigenvalue/two-odd-control", "one_boundary_eigenvalue"),
})


@dataclass(frozen=True)
class Workload:
    entries: tuple
    sizes: tuple
    seeds: int
    parallel: bool = False

    @property
    def jobs(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1

    def config(self, seed: int) -> dict:
        return {"base_seed": seed, "sizes": list(self.sizes),
                "seeds": self.seeds, "tol": {},
                "families": [dict(e) for e in self.entries]}

    def checks_per_pass(self) -> int:
        per_size = sum(len(e.get("checks", _FAMILY_CHECKS[e["family"]]))
                       for e in self.entries)
        return per_size * len(self.sizes) * self.seeds


WORKLOADS = {
    # What users run: the default config. Per-call Python overhead and
    # work repeated across checks of one pair dominate.
    "suite-serial": Workload(tuple(_NORMAL_PAIRS + _SELF_ADJOINT),
                             (2, 4, 8, 16), 25),
    # The same instances fanned out over one worker per core: exercises
    # the process pool and the BLAS thread pool each worker inherits.
    "suite-parallel": Workload(tuple(_NORMAL_PAIRS + _SELF_ADJOINT),
                               (2, 4, 8, 16), 25, parallel=True),
    # O(n^3) kernels at large n; commutant_basis is never called.
    "large-n": Workload(tuple(_NORMAL_PAIRS), (64, 128), 2),
    # Dominated by the O(n^6) n^2 x n^2 SVDs in commutant_basis.
    "bicommutant": Workload(tuple(_SELF_ADJOINT), (16, 24, 32), 2),
}


def verdict(row: dict) -> str:
    if row["passed"]:
        return "pass"
    return "fail" if row["hypothesis_met"] else "skip"


def expected_verdict(label: str, check: str) -> str:
    return "skip" if (label, check) in EXPECTED_SKIPS else "pass"


def count_failures(workload: Workload, rows: list) -> int:
    """Checks that failed, got an unexpected verdict, or never reported.

    A negative control that passes counts as a failure, and so does a
    real check that is skipped.
    """
    wrong = sum(verdict(r) != expected_verdict(r["family"], r["check"])
                for r in rows)
    return wrong + max(0, workload.checks_per_pass() - len(rows))
