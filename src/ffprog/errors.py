"""Exception types shared across the library."""


class FFProgError(Exception):
    """Base class for all library errors."""


class UsageError(FFProgError, ValueError):
    """An argument, flag or setting is malformed or out of range."""


class CompositeModulus(FFProgError):
    """The requested modulus is not prime."""


class OddModulusRequired(FFProgError):
    """The operation needs an odd prime (it divides by 2 internally)."""


class OrderDoesNotDivide(FFProgError):
    """Requested character order does not divide p - 1."""


class BudgetExceeded(FFProgError):
    """Estimated elementary-term count exceeds the global budget."""


class ContextMismatch(FFProgError):
    """Functions passed to one operator live over different fields."""


class IndexOutOfRange(FFProgError):
    """Slot index lies outside the configuration."""


class DimensionBudget(FFProgError):
    """Linear-form evaluation grid is too large."""


class InvalidSpec(FFProgError):
    """Progression spec violates the degree condition.

    `witness` holds integer coefficients of a combination with degree < m.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ZeroPhase(FFProgError):
    """The counterexample phase multiplier must be nonzero."""


class PrincipalCharacter(FFProgError):
    """The principal character is excluded from this bound."""


class DegenerateConfiguration(FFProgError):
    """The sample points make the character's argument a k-th power.

    This happens when, for every point b, its count among b_1..b_r minus its
    count among b_{r+1}..b_{2r} is divisible by gcd(k, p - 1), e.g. when all
    points coincide. The Weil bound does not apply then.
    """


class BoundViolation(FFProgError):
    """A theorem-backed numerical bound failed.

    `report` (if set) is the output assembled up to the failure: a SweepReport,
    or a command's text.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ParseError(FFProgError):
    """Spec-string syntax error, with the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class IoFailure(FFProgError):
    """A report could not be written."""


class MalformedFixture(FFProgError):
    """A fixture file does not hold p real and p imaginary parts."""
