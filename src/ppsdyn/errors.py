"""Exception types shared across the package.

Integration failures form a small hierarchy under IntegrationFailed so
callers can catch the family without caring whether the step controller
underflowed or a state blew up.  The input errors (MaskViolation,
TooFewSamples, MissingColumn, NonNumericCell, UnmappedSpecies,
ConstantColumn) are also ValueErrors, so one `except ValueError` catches
every rejected input, whether the package or numpy raised it.

Two rules check every scalar argument the package takes from a caller:
integer(name, value, least) and real(name, value, sign).  Neither takes a
bool, Python's or numpy's, and each raises ValueError naming the argument.
"""

import math
from numbers import Integral, Real


class PpsdynError(Exception):
    """Base class for all package errors."""


class MaskViolation(PpsdynError, ValueError):
    """A subsystem was selected but the masked-out component is nonzero."""


class IntegrationFailed(PpsdynError):
    """The integrator could not complete the requested horizon."""

    def __init__(self, reason: str, t=None, params=None):
        super().__init__(reason)
        self.t = t
        self.params = params


class NumericalOverflow(IntegrationFailed):
    """A state component exceeded the overflow guard or became non-finite."""


class StepUnderflow(IntegrationFailed):
    """The adaptive step fell below the minimum step size."""


class ExistenceViolated(PpsdynError):
    """Stability classification requested for a nonexistent equilibrium."""


class NonFiniteLoss(PpsdynError):
    """An optimizer hit a non-finite loss; carries the partial history."""

    def __init__(self, message, history=None, best=None):
        super().__init__(message)
        self.history = history if history is not None else []
        # best finite iterate seen before the abort, when the caller tracks one
        self.best = best


class LineSearchFailed(PpsdynError):
    """No acceptable step found after the backtracking budget."""

    def __init__(self, message, x=None, history=None):
        super().__init__(message)
        self.x = x
        self.history = history if history is not None else []


class TooFewSamples(PpsdynError, ValueError):
    """Derivative estimation needs at least three samples."""


class MissingColumn(PpsdynError, ValueError):
    """A required CSV column is absent."""


class NonNumericCell(PpsdynError, ValueError):
    """A CSV cell could not be parsed as a number."""


class UnmappedSpecies(PpsdynError, ValueError):
    """A species column has no group assignment."""


class ConstantColumn(PpsdynError, ValueError):
    """A column is constant, so min-max scaling is undefined."""


def integer(name, value, least):
    """value, once it is an int or numpy integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def real(name, value, sign=None) -> float:
    """value as a float, once it is a real number, numpy's included, not a
    bool, finite as a float and, as sign asks, "positive" or "nonnegative"."""
    try:
        number = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        number = False
    if number:
        value = float(value)
        if sign is None or value > 0 or (sign == "nonnegative" and value == 0):
            return value
    raise ValueError(f"{name} must be {sign + ' and finite' if sign else 'a finite number'}, "
                     f"got {value!r}")
