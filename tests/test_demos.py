"""Each demo script runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, src_env):
    result = subprocess.run([sys.executable, str(demo)], env=src_env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
