"""Exception types shared across the library, and the one reader of a caller's integer."""

import operator


class FFProgError(Exception):
    """Base class for all library errors."""


class UsageError(FFProgError, ValueError):
    """An argument, flag or setting is malformed or out of range."""


class BudgetExceeded(FFProgError):
    """Estimated elementary-term count exceeds the global budget."""


class InvalidSpec(UsageError):
    """Progression spec violates the degree condition.

    `witness` holds integer coefficients of a combination with degree < m.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundViolation(FFProgError):
    """A theorem-backed numerical bound failed.

    `report` (if set) is the output assembled up to the failure: a SweepReport,
    or a command's text.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(UsageError):
    """Spec-string syntax error, with the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class IoFailure(FFProgError):
    """A report could not be written."""


class MalformedFixture(UsageError):
    """A fixture file does not hold p real and p imaginary parts."""


def _integer(value, what: str, low: int | None = None) -> int:
    """value as an int, never truncated: a float, a string, a bool or NaN is refused, as is a
    value below `low` when it is given. numpy integers pass."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise UsageError(f"{what} must be >= {low}, got {n}")
    return n
