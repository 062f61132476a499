import subprocess
import sys

import pytest

from ffprog import BudgetExceeded, UsageError, get_budget, set_budget
from ffprog.budget import DEFAULT_BUDGET, ENV_VAR, charge, charge_power


def test_default_budget():
    assert get_budget() == DEFAULT_BUDGET


def test_set_budget_overrides_and_resets():
    set_budget(123)
    try:
        assert get_budget() == 123
        with pytest.raises(BudgetExceeded):
            charge(124, "test")
        charge(123, "test")
    finally:
        set_budget(None)
    assert get_budget() == DEFAULT_BUDGET
    with pytest.raises(ValueError):
        set_budget(0)


def test_set_budget_refuses_nan():
    # NaN used to be kept, and every charge then passed, since terms > nan is False
    with pytest.raises(UsageError, match="budget must be an integer, got nan"):
        set_budget(float("nan"))
    assert get_budget() == DEFAULT_BUDGET
    charge(DEFAULT_BUDGET, "test")
    with pytest.raises(BudgetExceeded):
        charge(DEFAULT_BUDGET + 1, "test")


def test_charge_power_refuses_exactly_what_charge_refuses():
    # the log-space refusal only ever fires where the exact charge would fail too
    for limit in (1, 7, 100, 10**9, 2**40 - 1):
        set_budget(limit)
        try:
            for base in (2, 3, 7, 11, 1451):
                for exponent in range(1, 50):
                    for factor in (1, 11):
                        over = factor * base**exponent > limit
                        try:
                            charge_power(base, exponent, factor, "test")
                        except BudgetExceeded:
                            assert over, (limit, base, exponent, factor)
                        else:
                            assert not over, (limit, base, exponent, factor)
        finally:
            set_budget(None)


def test_env_var_override(monkeypatch):
    monkeypatch.setenv("FFPROG_BUDGET", "5000")
    assert get_budget() == 5000
    # explicit override beats the environment
    set_budget(7)
    try:
        assert get_budget() == 7
    finally:
        set_budget(None)


@pytest.mark.parametrize("raw", ["abc", "", "0", "-5", "1e9", "9" * 5000])
def test_env_var_must_be_positive_integer(raw, monkeypatch):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(UsageError, match="FFPROG_BUDGET must be a positive integer"):
        get_budget()
    with pytest.raises(UsageError):
        charge(1, "test")


def test_env_var_keeps_int_syntax(monkeypatch):
    monkeypatch.setenv(ENV_VAR, " +5000 ")
    assert get_budget() == 5000


def test_env_var_reaches_cli(child_env):
    # a gowers direct call that fits the default budget but not a tiny one
    code = (
        "import ffprog as fp\n"
        "f = fp.constant(fp.make_field(11))\n"
        "fp.gowers_direct(f, 3)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**child_env, "FFPROG_BUDGET": "100"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert "BudgetExceeded" in proc.stderr
