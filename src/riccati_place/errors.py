"""Exception types shared across the package."""


class RiccatiPlaceError(Exception):
    """Base class for all errors raised by this package."""


class UnstableGenerator(RiccatiPlaceError):
    """A generator's spectral abscissa is >= 0, so no decay certificate exists."""


class SingularSystem(RiccatiPlaceError):
    """A Lyapunov system is (numerically) singular: lambda_i(A) + lambda_j(A) ~ 0."""


class HorizonTooShort(RiccatiPlaceError):
    """The analytic tail bound of a truncated Bochner integral exceeds tolerance."""


class NewtonStall(RiccatiPlaceError):
    """Newton-Kleinman failed to meet its step tolerance within the iteration cap."""


class ClosedLoopUnstable(RiccatiPlaceError):
    """A closed-loop generator (A - XG or its adjoint) lost exponential stability."""


class DimensionMismatch(RiccatiPlaceError):
    """Operands have inconsistent dimensions."""


class DegenerateFamily(RiccatiPlaceError):
    """A device family violates the nonzero-derivative / invertibility assumptions."""


class MaxIterExceeded(RiccatiPlaceError):
    """An optimizer stopped away from a stationary point; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(RiccatiPlaceError):
    """An experiment configuration is invalid; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
