"""The scripts under ``scripts/`` run from any working directory."""

import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "run_verification.py",
)


def run_script(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_verification_runs_outside_the_repository(tmp_path):
    proc = run_script(tmp_path, "--samples", "1", "--dmax", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all checks hold" in proc.stdout


@pytest.mark.parametrize("flag", ["--samples", "--dmax"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_verification_rejects_an_empty_scan(tmp_path, flag, value):
    # zero samples or an empty grid would print "all checks hold" vacuously
    proc = run_script(tmp_path, flag, value)
    assert proc.returncode == 2
    assert f"{flag} must be >= 1" in proc.stderr
    assert "all checks hold" not in proc.stdout
