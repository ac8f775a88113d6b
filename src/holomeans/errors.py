"""Exception hierarchy shared across the package.

Every error raised by the library derives from ``HolomeansError`` so callers
can catch library failures without masking programming errors.  Subclasses
additionally derive from the closest builtin so idiomatic ``except ValueError``
style keeps working.
"""

__all__ = [
    "HolomeansError",
    "InvalidParameterError",
    "DomainError",
    "DegenerateDensityError",
    "ZeroFieldError",
    "NonFiniteSampleError",
    "InsufficientDataError",
    "InvalidSweepError",
    "DivergenceError",
    "ConfigError",
]


class HolomeansError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(HolomeansError, ValueError):
    """A structural parameter is out of range (e.g. an exponent p <= 1)."""


class DomainError(HolomeansError, ValueError):
    """An evaluation was requested outside a function's domain."""


class DegenerateDensityError(HolomeansError, ValueError):
    """A density violates strict convexity or invertibility assumptions."""


class ZeroFieldError(HolomeansError, ValueError):
    """A field modulus fell below the floor an operation requires."""


class NonFiniteSampleError(HolomeansError, FloatingPointError):
    """A field sample came back NaN or infinite."""


class InsufficientDataError(HolomeansError, RuntimeError):
    """Too few successful data points remain to extrapolate."""


class InvalidSweepError(HolomeansError, ValueError):
    """A radius sweep or fit request is structurally unusable."""


class DivergenceError(HolomeansError, RuntimeError):
    """The grid fixed-point iteration is diverging.

    Carries the residual history in ``history`` for post-mortem inspection.
    """

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)


class ConfigError(HolomeansError, ValueError):
    """A scenario configuration file is malformed."""


def _raise_first(results):
    """Return ``results`` unchanged, unless one is an error: raise the first."""
    for res in results:
        if isinstance(res, HolomeansError):
            raise res
    return results
