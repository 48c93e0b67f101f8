"""Suite runner: generate instance families, dispatch checks, aggregate.

Instance seeds derive deterministically from (base seed, family label,
size, index) through the counter hash, so two runs of the same config
produce byte-identical reports. Instances are independent; with
``jobs > 1`` they fan out across processes while the aggregation order
stays fixed.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor

from ..checks import CHECK_NAMES, PairAnalysis, run_check
from ..config import DEFAULT_TOL, Tolerances
from .generators import Family, InstanceSpec, make_pair
from .rng import mix64

__all__ = ["analyze_pair", "default_config", "run_suite",
           "tolerances_from_config"]

# Checks per family; difference_formula windows come from instance metadata.
_FAMILY_CHECKS = {
    Family.INTERIOR_PAIR: ("spectral_agreement", "real_part", "modulus_equal",
                           "corollary_cases", "difference_formula"),
    Family.BOUNDARY_FLIP_PAIR: ("spectral_agreement", "real_part",
                                "modulus_equal", "modulus_commute",
                                "square_commute", "corollary_cases",
                                "difference_formula"),
    Family.DISTINCT_PROJECTION_PAIR: ("spectral_agreement", "real_part",
                                      "modulus_equal", "modulus_commute",
                                      "difference_formula"),
    Family.SHIFTED_BRANCH_PAIR: ("real_part", "difference_formula"),
    Family.NON_NORMAL_LOG_PAIR: ("modulus_commute", "kurepa"),
    Family.SELF_ADJOINT_CONGRUENCE_FREE: ("congruence_free",
                                          "double_commutant",
                                          "one_boundary_eigenvalue",
                                          "y_in_bicommutant_of_exp"),
    Family.ODD_PI_EIGENVALUE: ("one_boundary_eigenvalue", "double_commutant"),
}


def default_config() -> dict:
    """All families at n in {2,4,8,16} with 25 seeds each, including
    hypothesis-violating negative controls (reported as skipped)."""
    return {
        "base_seed": 20240901,
        "sizes": [2, 4, 8, 16],
        "seeds": 25,
        "tol": {},
        "families": [
            {"family": "InteriorPair"},
            {"family": "BoundaryFlipPair"},
            {"family": "BoundaryFlipPair", "label": "BoundaryFlipPair/conjugate-control",
             "params": {"conjugate_pair": 1, "boundary": 2}},
            {"family": "DistinctProjectionPair"},
            {"family": "ShiftedBranchPair"},
            {"family": "ShiftedBranchPair", "label": "ShiftedBranchPair/wide",
             "params": {"k_lo": -3, "k_hi": 3}},
            {"family": "NonNormalLogPair"},
            {"family": "SelfAdjointCongruenceFree"},
            # negative control: the congruence_free classifier itself would
            # (correctly) report the planted collision, so the control runs
            # only the gated checks and expects them to be skipped
            {"family": "SelfAdjointCongruenceFree",
             "label": "SelfAdjointCongruenceFree/congruence-control",
             "params": {"violate": 1},
             "checks": ["double_commutant", "one_boundary_eigenvalue"]},
            {"family": "OddPiEigenvalue"},
            {"family": "OddPiEigenvalue", "label": "OddPiEigenvalue/two-odd-control",
             "params": {"violate": 1}},
        ],
    }


def tolerances_from_config(overrides) -> Tolerances:
    """Default tolerances with a config's ``tol`` overrides applied.

    Raises ValueError unless ``overrides`` maps field names to finite
    positive numbers.
    """
    if not isinstance(overrides, dict):
        raise ValueError(f"tol must be an object, got {overrides!r}")
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    for key, value in overrides.items():
        if key not in fields:
            raise ValueError(f"unknown tolerance {key!r}; expected one of "
                             f"{sorted(fields)}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not (math.isfinite(value) and value > 0)):
            raise ValueError(f"tolerance {key!r} must be a finite positive "
                             f"number, got {value!r}")
    return DEFAULT_TOL.replace(**overrides) if overrides else DEFAULT_TOL


def analyze_pair(x, y, metadata: dict, tol: Tolerances, *,
                 exp_gap=None) -> PairAnalysis:
    """The pair's analysis, with the branch window its metadata names.

    ``exp_gap`` is passed on to :class:`PairAnalysis` unchanged.
    """
    return PairAnalysis(x, y, tol=tol, k_lo=int(metadata.get("k_lo", -1)),
                        k_hi=int(metadata.get("k_hi", 0)), exp_gap=exp_gap)


def _derive_seed(base: int, label: str, n: int, index: int) -> int:
    h = mix64(base)
    for ch in label:
        h = mix64(h ^ ord(ch))
    h = mix64(h ^ (n << 32))
    return mix64(h ^ index)


def _run_instance(task) -> list[dict]:
    label, family, params, n, seed, tol, checks = task
    spec = InstanceSpec(family=Family(family), n=n, seed=seed,
                        params=dict(params))
    x, y, metadata = make_pair(spec)
    # make_pair's self-test measured the exponential gap on these arrays
    pair = analyze_pair(x, y, metadata, tol, exp_gap=(
        metadata["equation"], metadata["self_test_residual"]))
    rows = []
    for check_name in checks:
        row = {"family": label, "n": n, "seed": seed}
        row.update(run_check(check_name, pair).to_dict())
        rows.append(row)
    return rows


def run_suite(config: dict | None = None, jobs: int = 1) -> dict:
    """Run every configured family/size/seed and aggregate check reports.

    The returned report is a plain dict ready for JSON serialization;
    ``summary.failed == 0`` is the success criterion (hypothesis-skipped
    checks do not fail the suite). Raises ValueError for ``jobs < 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or default_config()
    base = int(config.get("base_seed", 0))
    sizes = list(config.get("sizes", [2, 4, 8, 16]))
    n_seeds = int(config.get("seeds", 25))
    tol = tolerances_from_config(config.get("tol", {}))

    tasks = []
    for entry in config.get("families", []):
        family = entry["family"]
        label = entry.get("label", family)
        params = entry.get("params", {})
        checks = tuple(entry.get("checks", _FAMILY_CHECKS[Family(family)]))
        unknown = [name for name in checks if name not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks {unknown} for {label!r}; "
                             f"expected names from {list(CHECK_NAMES)}")
        for n in sizes:
            for i in range(n_seeds):
                seed = _derive_seed(base, label, n, i)
                tasks.append((label, family, params, n, seed, tol, checks))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_rows = list(pool.map(_run_instance, tasks, chunksize=4))
    else:
        all_rows = [_run_instance(t) for t in tasks]

    results = [row for rows in all_rows for row in rows]
    passed = sum(r["passed"] for r in results)
    skipped = sum(not r["hypothesis_met"] for r in results)
    failed = sum(r["hypothesis_met"] and not r["passed"] for r in results)
    return {
        "suite": "normlog",
        "config": config,
        "results": results,
        "summary": {"total": len(results), "passed": passed,
                    "skipped_hypothesis": skipped, "failed": failed},
    }
