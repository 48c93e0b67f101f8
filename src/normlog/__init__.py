"""normlog: spectral measures and branch logarithms of normal matrices.

The toolkit decomposes normal complex matrices into eigenprojections,
evaluates projection-valued measures over plane regions, computes
principal logarithms, and mechanically verifies the identities that
constrain two logarithms of the same exponential.

BLAS and LAPACK run at one thread in every normlog process unless the
caller set a thread variable. One thread fixes the reduction order, so
a report's bits do not depend on the core count or on ``--jobs``, and
``--jobs`` workers do not contend with BLAS threads. numpy reads the
variables when it loads, so a process that imported numpy before
normlog keeps its thread count.

On glibc, importing normlog also pins malloc's mmap threshold at 32 MiB
and its trim threshold at 64 MiB (the ceilings of glibc's own dynamic
thresholds), each unless the caller set that threshold, by its
``MALLOC_*_THRESHOLD_`` variable or its ``glibc.malloc`` tunable. Any
malloc variable, ``MALLOC_TOP_PAD_`` too, turns glibc's dynamic
thresholds off, so one the caller left unset is pinned all the same. A
stacked kernel's freed temporaries then stay in the heap for the next
one: a ``large-n`` pass made 56k minor page faults and 0.1 s of system
time in 0.75 s, and now makes almost none. The arithmetic is unchanged.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
# each threshold the caller set, by its variable or its tunable, is kept
_tunables = {t.partition("=")[0]
             for t in _os.environ.get("GLIBC_TUNABLES", "").split(":")}
_pins = [(param, size) for param, size, name in (
             (-3, 32 << 20, "mmap_threshold"),  # M_MMAP_THRESHOLD, 32 MiB
             (-1, 64 << 20, "trim_threshold"))  # M_TRIM_THRESHOLD, 64 MiB
         if f"MALLOC_{name.upper()}_" not in _os.environ
         and f"glibc.malloc.{name}" not in _tunables]
if _pins:
    import ctypes as _ctypes
    try:
        _mallopt = _ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt: macOS, Windows
        pass
    else:
        _mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
        _mallopt.restype = _ctypes.c_int
        for _param, _size in _pins:
            _mallopt(_param, _size)
        del _mallopt, _param, _size
    del _ctypes
del _os, _var, _tunables, _pins

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
