"""Smoke test: the experiment scripts still run against the library API."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
REFERENCE = ROOT / "benchmark" / "reference.json"
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


def test_reference_checker_gates_and_never_writes(capsys):
    spec = importlib.util.spec_from_file_location("check_reference", SCRIPTS / "check_reference.py")
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    recorded = REFERENCE.read_bytes()
    reference = json.loads(recorded)

    assert checker.check("refit_unwhitened", 1, reference) == 0
    assert "refit_unwhitened: 1/1 variants pass" in capsys.readouterr().out

    doctored = json.loads(recorded)
    doctored["refit_unwhitened"]["0"] *= 1.0 + 1e-3
    assert checker.check("refit_unwhitened", 1, doctored) == 1
    assert "refit_unwhitened: 0/1 variants pass" in capsys.readouterr().out
    assert REFERENCE.read_bytes() == recorded
