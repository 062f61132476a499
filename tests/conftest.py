import os
from pathlib import Path

import pytest

import ffprog
from ffprog.budget import ENV_VAR


@pytest.fixture(autouse=True)
def _no_budget_from_caller(monkeypatch):
    """Run every test under the default budget, whatever the calling shell exports."""
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture
def child_env():
    """Environment for a child interpreter: it imports the same ffprog as this process,
    however that was made importable (checkout via PYTHONPATH, editable or normal install),
    and writes no bytecode."""
    import_root = str(Path(ffprog.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([import_root, inherited] if inherited else [import_root])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}
