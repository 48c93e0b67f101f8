"""normlog: spectral measures and branch logarithms of normal matrices.

The toolkit decomposes normal complex matrices into eigenprojections,
evaluates projection-valued measures over plane regions, computes
principal logarithms, and mechanically verifies the identities that
constrain two logarithms of the same exponential.
"""

__version__ = "0.1.0"

from .checks import (
    CHECK_NAMES,
    PairAnalysis,
    check_congruence_free,
    check_corollary_cases,
    check_difference_formula,
    check_double_commutant,
    check_kurepa,
    check_modulus_commute,
    check_modulus_equal,
    check_one_boundary_eigenvalue,
    check_real_part,
    check_spectral_agreement,
    check_square_commute,
    check_y_in_bicommutant_of_exp,
    run_check,
    run_checks,
)
from .errors import (
    AmbiguousBoundary,
    ConstructionFailed,
    ExpNotNormal,
    NoConvergence,
    NormLogError,
    NotCommuting,
    NotHermitian,
    NotNormal,
    Singular,
    SpectrumOutOfRange,
)
from .linalg import (
    commutant_basis,
    herm_eig,
    in_double_commutant,
    is_normal,
    modulus,
    simultaneous_diagonalize,
)
from .logs import (
    KurepaDecomposition,
    branch_log,
    exp_general,
    kurepa_decompose,
    principal_log,
)
from .report import CheckReport
from .spectral import (
    Rect,
    Region,
    SpectralDecomposition,
    StripProjections,
    borel_calculus,
    normal_eig,
    spectral_measure,
    strip_interior,
    strip_projections,
)
