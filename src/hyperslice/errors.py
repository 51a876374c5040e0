"""Exception types shared across the package."""


class HypersliceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HypersliceError, ValueError):
    """Malformed or out-of-domain input (zero direction, negative radius, bad range)."""


class CapacityError(HypersliceError):
    """The cut needs more terms than one exact computation may build
    (``geometry.MAX_TERMS``): grouped vertex terms of one vertex walk, or
    frequencies of the integral route's closed-form tail."""


class RegimeError(HypersliceError):
    """A specialized formula was called outside the cut regime it is valid for."""


class CellCrossingError(RegimeError):
    """A finite-difference step straddles a vertex crossing, so the
    difference quotient does not approximate the derivative."""


class ConvergenceError(HypersliceError):
    """An iterative computation could not reach the requested tolerance
    within its resource budget."""


class NonintegrableTailError(InvalidInputError):
    """The oscillatory integral has no integrable tail bound because fewer
    than two coordinates of the direction are positive."""
