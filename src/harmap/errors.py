"""Exception hierarchy shared across the package.

Callers that only care about "bad input" vs. "numerical failure" can catch
``ParameterError``/``DomainError`` (both subclass ``ValueError``) or
``NumericalError`` respectively; everything derives from ``HarmapError``.
"""


class HarmapError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HarmapError, ValueError):
    """A parameter lies outside the range an operation is defined for."""


class AdmissibilityError(ParameterError):
    """Parameters violate a class-admissibility constraint."""


class InfeasibilityError(ParameterError):
    """A requested construction has no solution for these parameters."""


class DomainError(HarmapError, ValueError):
    """An evaluation point lies outside the operation's domain."""


class BranchCutError(DomainError):
    """A principal-branch function was evaluated on its cut."""


class PoleError(ParameterError):
    """A special function was requested at a parameter pole."""


class NumericalError(HarmapError, ArithmeticError):
    """Base class for runtime numerical failures."""


class DivergenceError(NumericalError):
    """A series or integral diverges at the requested point."""


class ConvergenceError(NumericalError):
    """An iteration failed to reach the requested tolerance within its caps."""


class SingularityError(NumericalError):
    """An evaluation hit a zero denominator (e.g. vanishing derivative)."""


class SeriesOrderError(HarmapError, ValueError):
    """A truncated-series operation would underflow the truncation order."""


class OnCurveError(HarmapError, ValueError):
    """A winding-number target lies (numerically) on the curve itself."""
