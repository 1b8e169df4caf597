"""Smoke test: the experiment scripts still run against the library API."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SHAPE = ["--blocks", "4", "--hidden-dim", "32", "--mlp-dim", "64"]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_demo.py", SHAPE + ["--samples", "32", "--tokens", "16"]),
        ("sweep_retention.py", SHAPE + ["--retentions", "0.6", "--seeds", "1"]),
    ],
)
def test_script_exits_zero(script, args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
