"""Fixed numerical thresholds.

Every tolerance-based decision in the toolkit reads one of the constants
below. They are fixed: the identities are verified against these values,
and the only threshold a run may set is the pass/fail threshold of the
checks, which :class:`~normlog.checks.PairAnalysis` carries (CLI
``--tol``, suite config ``tol: {"check": x}``); ``CHECK_TOL`` is its
default.

Scale-free entries are relative factors; the consuming operation
multiplies by the appropriate norm/dimension scale as documented there.
"""

# Hermitian precondition: ||H - H*|| <= HERM_TOL * ||H||.
HERM_TOL = 1e-10
# Normality test: ||X*X - XX*|| <= NORM_TOL * ||X||^2.
NORM_TOL = 1e-10
# Commutation precondition: ||AB - BA|| <= COMM_TOL * max(1, ||A|| ||B||).
COMM_TOL = 1e-10
# Default pass/fail threshold of the identity checks.
CHECK_TOL = 1e-8
# Hypothesis-gate threshold (equality of the exponentials);
# kept apart from the check threshold so that tightening the verification
# threshold cannot silently reclassify instances as hypothesis violations.
GATE_TOL = 1e-8
# SVD rank cutoff relative to the largest singular value.
RANK_TOL = 1e-10
# Half-width of the uncertainty band around region edges.
BOUNDARY_TOL = 1e-9
# Snap distance: a point this close to an edge or line is treated as lying
# exactly on it (must be << BOUNDARY_TOL).
ON_FEATURE_TOL = 1e-12
# Eigenvalue cluster merge radius factor (times max(1, ||X||)).
CLUSTER_TOL = 1e-8
# Allowed distance of branch-weight eigenvalues to integers.
INTEGER_TOL = 1e-6
# Invertibility floor factor (times ||N||).
INV_TOL = 1e-10

# Matrix entries per stack: a stacked call holds at most
# max(1, STACK_ENTRIES // n^2) matrices (a suite chunk's instances, a block
# of projections), so no stack outgrows one n = 128 matrix.
STACK_ENTRIES = 8192
