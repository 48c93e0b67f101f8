"""normlog: spectral measures and branch logarithms of normal matrices.

The toolkit decomposes normal complex matrices into eigenprojections,
evaluates projection-valued measures over plane regions, computes
principal logarithms, and mechanically verifies the identities that
constrain two logarithms of the same exponential.

BLAS and LAPACK run at one thread in every normlog process unless the
caller set a thread variable. One thread fixes the reduction order, so
reports carry the same bits on every host, and ``--jobs`` workers do not
contend with BLAS threads. numpy reads the variables when it loads, so
a process that imported numpy before normlog keeps its thread count.

On glibc, importing normlog also pins malloc's mmap threshold at 32 MiB
and its trim threshold at 64 MiB (the ceilings of glibc's own dynamic
thresholds) unless the caller set a ``MALLOC_*_`` threshold or a
``glibc.malloc`` tunable. A stacked kernel's freed temporaries then stay
in the heap for the next one: a ``large-n`` pass made 56k minor page
faults and 0.1 s of system time in 0.75 s, and now makes almost none.
The arithmetic is unchanged.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
if not (_os.environ.keys() & {"MALLOC_MMAP_THRESHOLD_",
                              "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"}
        or "glibc.malloc." in _os.environ.get("GLIBC_TUNABLES", "")):
    import ctypes as _ctypes
    try:
        _mallopt = _ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt: macOS, Windows
        pass
    else:
        _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, 32 MiB
        _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, 64 MiB
        del _mallopt
    del _ctypes
del _os, _var

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
