"""The scripts under ``scripts/`` run from any working directory."""

import os
import subprocess
import sys

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "run_verification.py",
)


def test_run_verification_runs_outside_the_repository(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--samples", "1", "--dmax", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks hold" in proc.stdout
