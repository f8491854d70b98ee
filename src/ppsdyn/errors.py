"""Exception types shared across the package.

Integration failures form a small hierarchy under IntegrationFailed so
callers can catch the family without caring whether the step controller
underflowed or a state blew up.  The input errors (MaskViolation,
TooFewSamples, MissingColumn, NonNumericCell, UnmappedSpecies,
ConstantColumn) are also ValueErrors, so one `except ValueError` catches
every rejected input, whether the package or numpy raised it.
"""


class PpsdynError(Exception):
    """Base class for all package errors."""


class MaskViolation(PpsdynError, ValueError):
    """A subsystem was selected but the masked-out component is nonzero."""


class IntegrationFailed(PpsdynError):
    """The integrator could not complete the requested horizon."""

    def __init__(self, reason: str, t=None, params=None):
        super().__init__(reason)
        self.reason = reason
        self.t = t
        self.params = params


class NumericalOverflow(IntegrationFailed):
    """A state component exceeded the overflow guard or became non-finite."""


class StepUnderflow(IntegrationFailed):
    """The adaptive step fell below the minimum step size."""


class MultipleRoots(PpsdynError):
    """The interior solve found more than one admissible root."""

    def __init__(self, roots):
        super().__init__(f"{len(roots)} admissible interior roots: {roots}")
        self.roots = roots


class NoRoot(PpsdynError):
    """The interior solve found no admissible root."""


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
