"""Smoke test: the experiment scripts still run against the library API."""

import importlib.util
import json
import shutil
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


def test_same_outputs_finds_only_real_differences(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPTS / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)

    assert same_outputs.compare(ROOT, ROOT, ["refit_unwhitened"], [0]) == []
    assert capsys.readouterr().out == "refit_unwhitened variant 0: identical\n"

    def copy_with(name, module, old, new):
        """A copy of the sources, in ``tmp_path / name``, with ``old`` replaced in one module."""
        root = tmp_path / name
        shutil.copytree(ROOT / "src" / "lowrank", root / "src" / "lowrank",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = root / "src" / "lowrank" / module
        assert old in source.read_text()
        source.write_text(source.read_text().replace(old, new))
        return root

    # the eval report bins the output histogram differently
    bins = copy_with("bins", "pipeline.py", "OVERLAP_BINS = 64", "OVERLAP_BINS = 32")
    assert same_outputs.compare(bins, ROOT, ["refit_unwhitened"], [0]) == ["refit_unwhitened/0/eval/report.json"]
    assert capsys.readouterr().out == "refit_unwhitened variant 0: differ in eval/report.json\n"

    # synth and compress write their manifests with another indent
    indent = copy_with("indent", "model.py", "json.dumps(model.manifest.to_json(), indent=2)",
                       "json.dumps(model.manifest.to_json(), indent=1)")
    assert same_outputs.compare(indent, ROOT, ["refit_unwhitened"], [0]) == [
        "refit_unwhitened/0/synth/model.json", "refit_unwhitened/0/compress/model.json"]
    assert capsys.readouterr().out == (
        "refit_unwhitened variant 0: differ in synth/model.json, compress/model.json\n")
