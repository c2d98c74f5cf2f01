"""Exception types shared across the library."""


class RanditerError(Exception):
    """Base class for all library errors."""


class DimensionError(RanditerError):
    """Operands have incompatible shapes."""


class NotSymmetric(RanditerError):
    """A matrix required to be symmetric is not."""


class NotPositiveDefinite(RanditerError):
    """Cholesky factorization hit a non-positive pivot."""


class NegativeWeight(RanditerError):
    """A sampling weight is negative."""


class DegenerateWeights(RanditerError):
    """All sampling weights are zero."""


class ZeroNormRow(RanditerError):
    """A Kaczmarz step was asked to project onto a zero row."""


class ZeroNormColumn(RanditerError):
    """A coordinate step was asked to minimize along a zero column."""


class DegenerateMatrix(RanditerError):
    """A matrix has zero trace where a positive trace is required."""


class GenerationFailure(RanditerError):
    """A problem generator could not produce a full-rank instance."""


class OracleInconsistency(RanditerError):
    """The ridge targets from one solve fail the link it did not use: a linalg bug."""
