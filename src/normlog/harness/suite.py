"""Suite runner: generate instance families, dispatch checks, aggregate.

Instance seeds derive deterministically from (base seed, family label,
size, index) through the counter hash, so two runs of the same config
produce byte-identical reports. The instances of one (entry, size) run
in chunks of consecutive seeds. A chunk is the unit of work: its
instances are built together in array code (stacked draws, unitaries,
conjugations and self-test exponentials), its operands decomposed and
their moduli taken in stacked calls, and each check runs once over it;
with ``jobs > 1`` the chunks fan out across processes while the
aggregation order stays fixed.
"""

from __future__ import annotations

import math

from ..checks import CHECK_NAMES, PairAnalysis, _Chunk, _run_checks, _stack
from ..config import CHECK_TOL, STACK_ENTRIES
from .generators import (Family, InstanceSpec, _build, _first_failure,
                         _require_int, _require_keys)
from .rng import mix64

__all__ = ["analyze_pair", "default_config", "report", "run_suite",
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


# the keys of a suite config and of each of its family entries
_CONFIG_KEYS = ("base_seed", "sizes", "seeds", "tol", "families")
_ENTRY_KEYS = ("family", "label", "params", "checks")


def tolerances_from_config(overrides) -> float:
    """The check threshold a config's ``tol`` sets: ``overrides["check"]``,
    or ``CHECK_TOL`` without it.

    Raises ValueError unless ``overrides`` is a dict whose only key is
    ``check`` and whose value is a finite positive number; every other
    threshold is fixed.
    """
    _require_keys(overrides, ["check"], "tol")
    check = overrides.get("check", CHECK_TOL)
    if (isinstance(check, bool) or not isinstance(check, (int, float))
            or not (math.isfinite(check) and check > 0)):
        raise ValueError(f"tolerance 'check' must be a finite positive "
                         f"number, got {check!r}")
    return check


def analyze_pair(x, y, metadata: dict,
                 check_tol: float = CHECK_TOL) -> PairAnalysis:
    """The pair's analysis, with the branch window its metadata names
    and the check threshold ``check_tol``."""
    k_lo, k_hi = _window(metadata)
    return PairAnalysis(x, y, check_tol=check_tol, k_lo=k_lo, k_hi=k_hi)


def _window(metadata: dict) -> tuple:
    """The branch window ``(k_lo, k_hi)`` an instance's metadata names.
    Raises ValueError for a bound it names that is not an integer."""
    for key in ("k_lo", "k_hi"):
        if key in metadata:
            _require_int(metadata[key], key)
    return int(metadata.get("k_lo", -1)), int(metadata.get("k_hi", 0))


def _label_hash(base: int, label: str, n: int) -> int:
    """The counter-hash state of (base seed, label, size); instance
    ``index`` of that entry and size has seed ``mix64(h ^ index)``."""
    h = mix64(base)
    for ch in label:
        h = mix64(h ^ ord(ch))
    return mix64(h ^ (n << 32))


def _chunk(built, check_tol: float) -> _Chunk:
    """The chunk of :func:`_build`'s instances, given the e^Y and the
    exponential gap that the build's self-test measured on these same
    arrays. A chunk of one keeps its operands as views."""
    x, y, metadata, exp_y = zip(*built)
    return _Chunk(_stack(x), _stack(y), [check_tol] * len(x),
                  [_window(m) for m in metadata], exp_y,
                  [(m["equation"], m["self_test_residual"]) for m in metadata])


def _run_chunk(task) -> list[dict]:
    label, spec, seeds, check_tol, checks = task
    # run_suite validated the spec and checks; the instances differ only
    # in their seeds, so they are built without a spec per seed
    chunk = _chunk(_first_failure(_build(spec, seeds)), check_tol)
    rows = []
    # each check runs once over the chunk; the rows stay pair-major
    for seed, reports in zip(seeds, _run_checks(checks, chunk)):
        for report in reports:
            row = {"family": label, "n": spec.n, "seed": seed}
            row.update(report.to_dict())
            rows.append(row)
    return rows


def run_suite(config: dict | None = None, jobs: int = 1) -> dict:
    """Run every configured family/size/seed and aggregate check reports.

    The returned report is a plain dict ready for JSON serialization;
    ``summary.failed == 0`` is the success criterion (hypothesis-skipped
    checks do not fail the suite). Raises ValueError, before any instance
    is built, for ``jobs < 1``, for a config key, family, size,
    parameter, tolerance or check name it does not know, for a value of
    the wrong type: ``base_seed``, ``seeds``, each size and each family
    parameter must be an integer (``violate`` and ``conjugate_pair`` may
    also be a boolean), a label a string, and ``sizes``, ``families``
    and an entry's ``checks`` lists, and for a config that
    checks nothing: ``seeds < 1``, no sizes, no family entries, or an
    entry with an empty ``checks`` list.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or default_config()
    _require_keys(config, _CONFIG_KEYS, "config")
    base = config.get("base_seed", 0)
    _require_int(base, "base_seed")
    sizes = config.get("sizes", [2, 4, 8, 16])
    if not isinstance(sizes, (list, tuple)):
        raise ValueError(f"sizes must be a list of integers, got {sizes!r}")
    if not sizes:
        raise ValueError("sizes must name at least one size")
    for n in sizes:
        _require_int(n, "each size")
    n_seeds = config.get("seeds", 25)
    _require_int(n_seeds, "seeds")
    if n_seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {n_seeds}")
    check_tol = tolerances_from_config(config.get("tol", {}))
    families = config.get("families", [])
    if not isinstance(families, (list, tuple)):
        raise ValueError(f"families must be a list of entries, got "
                         f"{families!r}")
    if not families:
        raise ValueError("families must name at least one entry")

    tasks = []
    for entry in families:
        _require_keys(entry, _ENTRY_KEYS, "family entry")
        family = Family(entry["family"])
        label = entry.get("label", family.value)
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        params = entry.get("params", {})
        checks = entry.get("checks", _FAMILY_CHECKS[family])
        if not isinstance(checks, (list, tuple)):
            raise ValueError(f"checks of {label!r} must be a list of names, "
                             f"got {checks!r}")
        checks = tuple(checks)
        if not checks:
            raise ValueError(f"entry {label!r} names no checks")
        unknown = [name for name in checks if name not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks {unknown} for {label!r}; "
                             f"expected names from {list(CHECK_NAMES)}")
        for n in sizes:
            # the chunks' specs differ from this one only in their seeds
            spec = InstanceSpec(family, n, 0, params)
            h = _label_hash(base, label, n)
            seeds = [mix64(h ^ i) for i in range(n_seeds)]
            size = max(1, STACK_ENTRIES // (n * n))
            for start in range(0, n_seeds, size):
                tasks.append((label, spec, seeds[start:start + size],
                              check_tol, checks))

    if jobs > 1:
        # imported here: serial runs never pay for the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_rows = list(pool.map(_run_chunk, tasks, chunksize=1))
    else:
        all_rows = [_run_chunk(t) for t in tasks]

    return report("normlog", config,
                  [row for rows in all_rows for row in rows])


def report(suite: str, config: dict, results: list[dict]) -> dict:
    """A report of result rows: the config echo, the rows and a summary
    whose ``failed`` counts the rows that met their hypothesis and did
    not pass."""
    return {
        "suite": suite,
        "config": config,
        "results": results,
        "summary": {
            "total": len(results),
            "passed": sum(r["passed"] for r in results),
            "skipped_hypothesis": sum(not r["hypothesis_met"] for r in results),
            "failed": sum(r["hypothesis_met"] and not r["passed"]
                          for r in results)},
    }
