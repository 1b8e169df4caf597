"""Self-tests of the benchmark at toy shapes.

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import record_reference  # noqa: E402
import run  # noqa: E402
from common import ROOT, use_checkout_sources  # noqa: E402
from tracer import TARGETS, Span, Tracer, self_times  # noqa: E402

use_checkout_sources()

TOY = run.Workload("toy", 4, 32, 64, 20, 16, 8, ("--whiten", "--iters", "1"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toy_reference(tmp_path_factory):
    work = tmp_path_factory.mktemp("record")
    return {"toy": record_reference.record(TOY, run.VARIANTS, work / "toy")}


def run_toy(monkeypatch, tmp_path, capsys, reference: dict, trace: int):
    ref_file = tmp_path / "reference.json"
    ref_file.write_text(json.dumps(reference))
    monkeypatch.setitem(run.WORKLOADS, "toy", TOY)
    monkeypatch.setattr(run, "REFERENCE_FILE", ref_file)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    code = run.main(["--workload", "toy", "--seed", "21", "--seconds", "0.1", "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), captured.err


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, tmp_path, capsys, toy_reference, trace, section):
    code, lines, result, err = run_toy(monkeypatch, tmp_path, capsys, toy_reference, trace)
    assert code == 0
    assert result["correct"] is True, err
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    text = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[2] == unit for line in lines[:-1]), name
        assert isinstance(result["metrics"][name]["value"], float)
    assert "error_rate" in text


def test_tampered_reference_fails_the_gate(monkeypatch, tmp_path, capsys, toy_reference):
    variant = str(21 % run.VARIANTS)
    tampered = {"toy": dict(toy_reference["toy"])}
    tampered["toy"][variant] *= 1.0 + 1e-4
    code, _, result, err = run_toy(monkeypatch, tmp_path, capsys, tampered, 0)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "differs from the reference" in err


def test_reference_tolerance_is_floating_point_noise():
    ref = {"w": {"3": 2.0}}
    assert run.check_reference(ref, "w", 3, 2.0 * (1 + 1e-9)) is None
    assert run.check_reference(ref, "w", 3, 2.0 * (1 + 1e-5)) is not None
    assert run.check_reference(ref, "w", 4, 2.0) is not None


def _bound_names():
    found = {}
    for module_name, attr, *_ in TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            found[(module_name, attr)] = getattr(module, attr)
    return found


def test_tracer_restores_every_wrapped_name(tmp_path):
    originals = _bound_names()
    assert originals
    with Tracer() as tracer:
        for (module_name, attr), original in originals.items():
            assert getattr(importlib.import_module(module_name), attr) is not original
        base, out = tmp_path / "base", tmp_path / "out"
        assert child.run_commands(TOY.synth_argv(base, 0), 1, 0.0, False)["codes"] == [0]
        assert child.run_commands(TOY.compress_argv(base, out, 0), 1, 0.0, False)["codes"] == [0]
    assert {s.name for s in tracer.spans} >= {"pipeline.compress_model", "linalg.svd", "calibration.gram"}
    assert _bound_names() == originals

    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("boom")
    assert _bound_names() == originals


def test_untraced_runs_are_never_wrapped(tmp_path):
    base, out = tmp_path / "base", tmp_path / "out"
    originals = _bound_names()
    traced = child.run_commands(TOY.synth_argv(base, 0), 1, 0.0, True)
    assert traced["spans"] and _bound_names() == originals
    untraced = child.run_commands(TOY.compress_argv(base, out, 0), 1, 0.0, False)
    assert untraced["codes"] == [0] and untraced["spans"] == []
    assert _bound_names() == originals


def test_self_time_is_per_thread():
    spans = [
        Span(0, "outer", thread=1, parent=None, start=0.0, end=10.0),
        Span(1, "inner", thread=1, parent=0, start=1.0, end=4.0),
        Span(2, "inner", thread=1, parent=0, start=5.0, end=6.0),
        Span(3, "outer", thread=2, parent=None, start=2.0, end=9.0),  # overlaps thread 1
    ]
    assert self_times(spans) == {(1, "outer"): 6.0, (1, "inner"): 4.0, (2, "outer"): 7.0}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "calib_heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".bench_work").exists()
