"""Exception types shared across the package."""


class SphtriError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTriangle(SphtriError):
    """Two vertices coincide or are antipodal within tolerance."""


class DegenerateDual(SphtriError):
    """A pole cross product has norm too small to define a vertex."""


class NoSuchTriangle(SphtriError):
    """A coordinate triple does not correspond to any spherical triangle."""


class OutOfDomain(SphtriError):
    """An input lies outside the range where a formula or route is confirmed."""


class Divergent(SphtriError):
    """The requested quantity diverges (e.g. K at modulus 1)."""


class NonFiniteIntegrand(SphtriError):
    """A quadrature panel summed to NaN or infinity."""


class ToleranceNotMet(SphtriError):
    """A quadrature could not confirm its result to the requested tolerance.

    The best available estimate is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
