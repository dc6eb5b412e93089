"""Exception types raised by the ammix library."""


class AmmixError(Exception):
    """Base class for all ammix errors."""


class InvalidParameterError(AmmixError, ValueError):
    """A constructor or operation received an out-of-domain parameter."""


class ScheduleRangeError(AmmixError, ValueError):
    """A blend schedule produced a value outside [0, 1]."""


class NonDifferentiablePointError(AmmixError, ValueError):
    """A schedule derivative was requested at a singular point."""


class UnsupportedScheduleError(AmmixError, ValueError):
    """The schedule cannot be evaluated through this code path."""


class InvalidCurveError(AmmixError, ValueError):
    """The traced curve violated a structural assumption (e.g. x'(s) <= 0)."""


class DegenerateGradientError(AmmixError, ZeroDivisionError):
    """A price quotient was requested where the denominator partial vanishes."""


class OutOfRangeError(AmmixError, ValueError):
    """A target coordinate lies beyond the curve's reachable range.

    ``max_reachable`` carries the end of the range the target passed: the
    largest value of the coordinate that the solver reaches, or the
    smallest for a target below the range.
    """

    def __init__(self, message: str, max_reachable: float):
        super().__init__(message)
        self.max_reachable = max_reachable


class InsufficientLiquidityError(AmmixError, ValueError):
    """A trade would push past the curve's finite intercept.

    ``max_amount`` carries the largest tradable input amount: the largest
    float whose sum with the held reserve does not pass the curve's reach,
    so a trade of it is not refused for that, and one of the next float is.
    """

    def __init__(self, message: str, max_amount: float):
        super().__init__(message)
        self.max_amount = max_amount


class UnsupportedCurveError(AmmixError, ValueError):
    """The operation requires a convex curve and the certificate failed."""


class ConvergenceError(AmmixError):
    """An iterative solver used up its iteration cap without converging."""
