"""Global elementary-term budget guarding the heavyweight direct paths.

One knob for the whole library: exceeding it raises, it never truncates.
The FFPROG_BUDGET environment variable overrides the default; an explicit
set_budget() overrides both (pass None to fall back again).
"""

import contextlib
import math
import os

from .errors import BudgetExceeded, UsageError, _integer

DEFAULT_BUDGET = 10**9
ENV_VAR = "FFPROG_BUDGET"

_override: int | None = None


def set_budget(value: int | None) -> None:
    global _override
    _override = None if value is None else _integer(value, "budget", low=1)


def get_budget() -> int:
    if _override is not None:
        return _override
    raw = os.environ.get(ENV_VAR)
    if raw is None:  # the common case, kept cheap: searches charge as they go
        return DEFAULT_BUDGET
    with contextlib.suppress(ValueError):
        if int(raw) > 0:
            return int(raw)
    raise UsageError(f"{ENV_VAR} must be a positive integer, got {raw!r}")


def charge(terms: int, what: str) -> None:
    """Raise BudgetExceeded if `terms` elementary operations exceed the budget."""
    limit = get_budget()
    if terms > limit:
        raise BudgetExceeded(f"{what} needs ~{terms} elementary terms, budget is {limit}")


def charge_power(base: int, exponent: int, factor: int, what: str) -> None:
    """charge(factor * base**exponent, what), refusing first in log space, before the power
    is built, when base**exponent alone is over the budget by more than a factor of 2."""
    limit = get_budget()
    if exponent * math.log2(base) > limit.bit_length() + 1:
        raise BudgetExceeded(f"{what} needs at least {base}^{exponent} terms, budget is {limit}")
    charge(factor * base**exponent, what)
