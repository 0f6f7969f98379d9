"""Exception types shared across the package.

Every one derives from ``PtsusyError`` as well as from the builtin category
it belongs to, so a caller can catch all package errors at once.
"""


class PtsusyError(Exception):
    """Base class of every error the package raises."""


class PoleError(PtsusyError, ValueError):
    """Function evaluated at a pole (e.g. log-gamma at a nonpositive integer)."""


class DomainError(PtsusyError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class DegreeCapError(PtsusyError, ValueError):
    """Requested polynomial degree exceeds the configured cap."""


class SubdivisionLimitError(PtsusyError, RuntimeError):
    """Adaptive quadrature hit its panel budget before converging."""


class TailBoundError(PtsusyError, RuntimeError):
    """Real-line quadrature could not certify the truncated tails."""


class NonFiniteIntegrandError(PtsusyError, RuntimeError):
    """Integrand returned NaN or infinity inside the integration domain."""
