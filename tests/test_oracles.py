"""Independent oracles: normlog's kernels against scipy's.

scipy is not a dependency of normlog, nor of its test extra, so this
module is skipped where scipy is absent. Every family's X and Y at
n = 4, 16 and 64 and seeds 0-2 are compared in relative Frobenius
distance: ``exp_general`` with ``scipy.linalg.expm`` and ``modulus`` with
``scipy.linalg.sqrtm`` of X* X. ``principal_log`` is not compared with
``logm``: on the boundary families the two take opposite sides of the
branch cut.
"""

import numpy as np
import pytest

from normlog.harness import Family, InstanceSpec, make_pair
from normlog.linalg import dagger, modulus
from normlog.logs import exp_general

scipy_linalg = pytest.importorskip("scipy.linalg")

TOL = 1e-12


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module", params=[
    (family, n, seed) for family in Family for n in (4, 16, 64)
    for seed in range(3)], ids=lambda p: f"{p[0].value}-{p[1]}-{p[2]}")
def operands(request):
    family, n, seed = request.param
    x, y, _ = make_pair(InstanceSpec(family=family, n=n, seed=seed))
    return x, y


def test_exp_general_is_expm(operands):
    for m in operands:
        assert _rel(exp_general(m), scipy_linalg.expm(m)) <= TOL


def test_modulus_is_sqrtm_of_the_gram_matrix(operands):
    for m in operands:
        assert _rel(modulus(m), scipy_linalg.sqrtm(dagger(m) @ m)) <= TOL
