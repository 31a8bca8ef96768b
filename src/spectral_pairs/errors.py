"""Exception types shared across the package."""


class SpectralPairsError(Exception):
    """Base class for all package errors."""


class RingMismatchError(SpectralPairsError):
    """Operands belong to different ring instances."""


class NonMonicError(SpectralPairsError):
    """A monic polynomial or operator was required."""


class NotCoveredError(SpectralPairsError):
    """The request lies outside what the package covers.

    Raised for a (family, g, eps) combination with no known closed form or
    multiplier, a commuting pair whose spectral curve is not of rank two, a
    corollary check at symbolic parameters or outside the cubic family at
    g in {2, 4}, a partner search above the order cap or for the exponential
    family, and numeric work beyond its limits: an integration over the
    right-hand-side evaluation cap, a value beyond float range, and a
    solution that passes the overflow limit.
    """


class ConstraintError(SpectralPairsError):
    """Family parameters violate a required algebraic constraint."""


class TruncationError(SpectralPairsError):
    """The kernel basis's Taylor data is too short for the requested operation."""


class DegenerateSampleError(SpectralPairsError):
    """A sampled configuration is degenerate (zero multiplier, vanishing data)."""


class CommutingOperatorNotFound(SpectralPairsError):
    """No operator of the requested order commutes with L4.

    The search covers every operator of that order over Q[x], so this proves
    that none exists.
    """


class UnsupportedDegreeError(SpectralPairsError):
    """Polynomial degree outside the supported range."""
