"""Every walkthrough in demos/ runs to completion against the ffprog under test."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=child_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
