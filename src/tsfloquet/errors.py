"""Exception hierarchy shared by all tsfloquet modules.

Grouped by subsystem so the CLI can map them onto exit codes without
importing every module.
"""


class TsfloquetError(Exception):
    """Base class for all errors raised by this package."""


# -- time scale construction / queries -------------------------------------

class TimeScaleError(TsfloquetError):
    pass


class NonpositivePeriod(TimeScaleError):
    pass


class OverlappingSegments(TimeScaleError):
    pass


class InvalidSegment(TimeScaleError):
    """Degenerate or malformed segment (e.g. an interval with a >= b)."""


class EndpointNotCovered(TimeScaleError):
    """t0 or t0+T is not an extremity of the segment list."""


class PointNotInTimeScale(TimeScaleError):
    pass


# -- expression language ---------------------------------------------------

class ExpressionError(TsfloquetError):
    pass


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ArityError(ExpressionError):
    pass


class NonConstantExponent(ExpressionError):
    pass


class DomainError(ExpressionError):
    """sqrt of a negative number, division by zero, and similar."""


class ValuePastRange(DomainError, OverflowError):
    """exp past the float range, or neg1pow of +-inf: an OverflowError, as
    the math module raises there."""


class UndefinedValue(DomainError, ValueError):
    """sin or cos of +-inf, or neg1pow of NaN: a ValueError, as the math
    module raises there."""


class NonIntegerNeg1Pow(ExpressionError):
    pass


class NonDifferentiableNode(ExpressionError):
    """A derivative of neg1pow/mod was evaluated on a dense region."""


# -- calculus --------------------------------------------------------------

class CalculusError(TsfloquetError):
    pass


class QuadratureNonConvergence(CalculusError):
    pass


class NotRegressive(CalculusError):
    pass


# -- Floquet series --------------------------------------------------------

class FloquetError(TsfloquetError):
    pass


class PhiVanishes(FloquetError):
    pass


class NegativeQOnDense(FloquetError):
    pass


class DepthBudgetExceeded(FloquetError):
    pass


class NotContinuousScale(FloquetError):
    pass


class BNotOne(FloquetError):
    pass


# -- oracle ----------------------------------------------------------------

class OracleError(TsfloquetError):
    pass


class StepSizeUnderflow(OracleError):
    pass


class CheckFailed(OracleError):
    def __init__(self, message: str, a_delta: float, b_delta: float):
        super().__init__(message)
        self.a_delta = a_delta
        self.b_delta = b_delta


# -- CLI / config ----------------------------------------------------------

class ConfigError(TsfloquetError):
    pass


class ConfigParseError(ConfigError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ConfigError):
    pass
