"""Tolerance configuration.

All numerical decisions in the toolkit flow through a single immutable
``Tolerances`` record so that a whole run can be tightened or loosened
from one place (library calls, CLI ``--tol``, suite config).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Knobs for every tolerance-based decision.

    Scale-free entries are relative factors; the consuming operation
    multiplies by the appropriate norm/dimension scale as documented there.

    herm        Hermitian precondition: ||H - H*|| <= herm * ||H||.
    norm        normality test: ||X*X - XX*|| <= norm * ||X||^2.
    comm        commutation preconditions.
    check       generic pass/fail threshold for identity checks.
    gate        hypothesis-gate threshold (exponential equality and case
                classification); kept separate from ``check`` so that
                tightening the verification threshold cannot silently
                reclassify instances as hypothesis violations.
    rank        SVD rank cutoff relative to the largest singular value.
    boundary    half-width of the uncertainty band around region edges.
    on_feature  snap distance: a point this close to an edge/line is
                treated as lying exactly on it (must be << boundary).
    cluster     eigenvalue cluster merge radius factor (times max(1, ||X||)).
    integer     allowed distance of branch-weight eigenvalues to integers.
    inv         invertibility floor factor (times ||N||).
    """

    herm: float = 1e-10
    norm: float = 1e-10
    comm: float = 1e-10
    check: float = 1e-8
    gate: float = 1e-8
    rank: float = 1e-10
    boundary: float = 1e-9
    on_feature: float = 1e-12
    cluster: float = 1e-8
    integer: float = 1e-6
    inv: float = 1e-10

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT_TOL = Tolerances()
