import subprocess
import sys

import pytest

from ffprog import BudgetExceeded, UsageError, get_budget, set_budget
from ffprog.budget import DEFAULT_BUDGET, ENV_VAR, charge


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
