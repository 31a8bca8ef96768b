"""Exception types shared across the package."""


class SpectralPairsError(Exception):
    """Base class for all package errors."""


class RingMismatchError(SpectralPairsError):
    """Operands belong to different ring instances."""


class NonMonicError(SpectralPairsError):
    """A monic polynomial or operator was required."""


class NotCoveredError(SpectralPairsError):
    """The request lies outside what the package covers.

    Raised for a (family, g, eps) combination with no known closed form, and
    for a commuting pair whose spectral curve is not of rank two.
    """


class ConstraintError(SpectralPairsError):
    """Family parameters violate a required algebraic constraint."""


class TruncationError(SpectralPairsError):
    """A power series was too short for the requested operation."""


class DegenerateSampleError(SpectralPairsError):
    """A sampled configuration is degenerate (zero multiplier, vanishing data)."""


class CommutingOperatorNotFound(SpectralPairsError):
    """No commuting operator of the requested order was found.

    ``bounded`` is True when the search was limited to a coefficient degree
    bound, so the outcome is inconclusive; False means the search covered
    every operator of that order and proves that none commutes.
    """

    def __init__(self, message: str, bounded: bool = True):
        super().__init__(message)
        self.bounded = bounded


class UnsupportedDegreeError(SpectralPairsError):
    """Polynomial degree outside the supported range."""
