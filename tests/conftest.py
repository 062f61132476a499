import pytest

from ffprog.budget import ENV_VAR


@pytest.fixture(autouse=True)
def _no_budget_from_caller(monkeypatch):
    """Run every test under the default budget, whatever the calling shell exports."""
    monkeypatch.delenv(ENV_VAR, raising=False)
