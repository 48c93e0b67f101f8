"""Exception hierarchy shared across the toolkit."""


class NormLogError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(NormLogError):
    """Input violates the Hermitian precondition."""


class NotNormal(NormLogError):
    """Input matrix does not commute with its adjoint."""


class NotCommuting(NormLogError):
    """A pair of matrices expected to commute does not."""


class NoConvergence(NormLogError):
    """An iterative kernel (eigen/SVD) failed to converge."""


class AmbiguousBoundary(NormLogError):
    """A point sits inside the tolerance band of an excluded region edge,
    so membership cannot be decided reliably."""


class SpectrumOutOfRange(NormLogError):
    """Eigenvalues fall outside the range a computation requires: a strip
    window, or the magnitudes whose Frobenius norm is finite."""


class Singular(NormLogError):
    """Matrix is numerically singular where invertibility is required."""


class ExpNotNormal(NormLogError):
    """The exponential of the input is not normal, so no normal logarithm
    decomposition exists."""


class ConstructionFailed(NormLogError):
    """An instance generator produced a pair violating its own defining
    equation; indicates a generator bug, never returned silently."""
