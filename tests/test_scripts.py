"""The scripts import the ncft of their own checkout, wherever they are
run from."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script", ["run_contrast.py", "riemann_outcomes.py",
                                    "h_convergence.py"])
def test_script_runs_outside_the_checkout_without_pythonpath(script,
                                                             tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
