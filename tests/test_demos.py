"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    # demos write their outputs to the working and temporary directories
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    # pyproject's filterwarnings does not reach a subprocess: a RuntimeWarning
    # (overflow, invalid value) or a DeprecationWarning fails the demo here
    warn = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    result = subprocess.run([sys.executable, *warn, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
