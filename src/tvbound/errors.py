"""Exception types shared across the package."""


class TvBoundError(Exception):
    """Base class for all tvbound errors."""


class DegreeTooLow(TvBoundError):
    """A moment sequence does not carry enough degrees for the request."""


class DimensionMismatch(TvBoundError):
    """Two objects that must share a dimension do not."""


class UnsupportedDimension(TvBoundError):
    """The operation is only available in lower dimension (typically d=1)."""


class EmptySample(TvBoundError):
    """An empirical estimate was requested from an empty sample."""


class QuadratureNonConvergent(TvBoundError):
    """Adaptive quadrature could not reach the requested tolerance."""


class CertificateMismatch(TvBoundError):
    """A dual certificate violates one of its defining identities."""


class NotFlat(TvBoundError):
    """Atom extraction was requested from a moment matrix that is not flat."""


class IllConditioned(TvBoundError):
    """A numerical subproblem (Vandermonde solve, shift operator) failed its
    residual check."""
