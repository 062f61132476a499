"""Exception types shared across the library."""


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
