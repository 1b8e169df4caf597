"""The experiment scripts: the sweep runs against the library API, and compare.py gates and compares."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
REFERENCE = ROOT / "benchmark" / "reference.json"
LADDER = ("plain truncated SVD (uniform)", "+ alternating compensation", "+ whitening", "+ adaptive ratios (full)",
          "+ adaptive (one_minus_cos)")


@pytest.fixture(scope="module")
def compare_script():
    spec = importlib.util.spec_from_file_location("compare", SCRIPTS / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(compare_script):
    return compare_script.compare


def copy_with(root, module, old, new):
    """A copy of the sources, in ``root``, with ``old`` replaced in one module."""
    shutil.copytree(ROOT / "src" / "lowrank", root / "src" / "lowrank", ignore=shutil.ignore_patterns("__pycache__"))
    source = root / "src" / "lowrank" / module
    assert old in source.read_text()
    source.write_text(source.read_text().replace(old, new))
    return root


def test_sweep_prints_the_ladder():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "sweep_retention.py"), "--blocks", "4", "--hidden-dim", "32",
         "--mlp-dim", "64", "--samples", "32", "--tokens", "16", "--retentions", "0.6", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if any(name in line for name in LADDER)]
    assert len(rows) == 5 and all(name in row for name, row in zip(LADDER, rows))
    assert rows[0].split()[0] == "0.60"


def test_reference_checker_gates_and_never_writes(compare, capsys):
    recorded = REFERENCE.read_bytes()
    reference = json.loads(recorded)

    assert compare(["refit_unwhitened"], reference, variants=[0]) == []
    assert "refit_unwhitened: 1/1 variants pass" in capsys.readouterr().out

    doctored = json.loads(recorded)
    doctored["refit_unwhitened"]["0"] *= 1.0 + 1e-3
    problems = compare(["refit_unwhitened"], doctored, variants=[0])
    assert len(problems) == 1 and problems[0].startswith("refit_unwhitened/0: heldout_mse ")
    assert "refit_unwhitened: 0/1 variants pass" in capsys.readouterr().out
    assert REFERENCE.read_bytes() == recorded


def test_same_outputs_finds_only_real_differences(compare, tmp_path, capsys):
    reference = json.loads(REFERENCE.read_bytes())

    def assert_printed(line):
        """``line``, the rank line of equal plans, then the workload's pass line, and nothing else."""
        assert re.fullmatch(re.escape(line + "\nrefit_unwhitened variant 0: ranks identical"
                                      "\nrefit_unwhitened: 1/1 variants pass, max relative heldout_mse "
                                      "deviation ") + r"\S+\n", capsys.readouterr().out)

    assert compare(["refit_unwhitened"], reference, ROOT, [0]) == []
    assert_printed("refit_unwhitened variant 0: identical")

    # the eval report bins the output histogram differently
    bins = copy_with(tmp_path / "bins", "pipeline.py", "OVERLAP_BINS = 64", "OVERLAP_BINS = 32")
    assert compare(["refit_unwhitened"], reference, bins, [0]) == ["refit_unwhitened/0/eval/report.json"]
    assert_printed("refit_unwhitened variant 0: differ in eval/report.json")

    # synth and compress write their manifests with each block's dense and low-rank slot maps swapped
    fields = ("    matrices: dict[str, str] = field(default_factory=dict)\n",
              "    lowrank: dict[str, LowRankRef] = field(default_factory=dict)\n")
    swapped = copy_with(tmp_path / "swapped", "model.py", "".join(fields), "".join(reversed(fields)))
    assert compare(["refit_unwhitened"], reference, swapped, [0]) == [
        "refit_unwhitened/0/synth/model.json", "refit_unwhitened/0/compress/model.json"]
    assert_printed("refit_unwhitened variant 0: differ in synth/model.json, compress/model.json")


def test_one_run_feeds_the_gate_and_the_byte_comparison(compare, tmp_path, capsys):
    """A BASE copy that bins differently and a doctored reference: one call reports both."""
    doctored = json.loads(REFERENCE.read_bytes())
    doctored["refit_unwhitened"]["5"] *= 1.0 - 1e-3
    bins = copy_with(tmp_path / "bins", "pipeline.py", "OVERLAP_BINS = 64", "OVERLAP_BINS = 32")
    problems = compare(["refit_unwhitened"], doctored, bins, [5])
    assert len(problems) == 2 and problems[0].startswith("refit_unwhitened/5: heldout_mse ")
    assert problems[1] == "refit_unwhitened/5/eval/report.json"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("refit_unwhitened variant 5: heldout_mse ")
    assert lines[1:] == [
        "refit_unwhitened variant 5: differ in eval/report.json",
        "refit_unwhitened variant 5: ranks identical",
        "refit_unwhitened: 0/1 variants pass, max relative heldout_mse deviation 0.001",
    ]


def test_rank_line_names_the_first_slot_whose_rank_moved(compare, tmp_path, capsys):
    """A BASE copy that records every rank one higher in plan.json: the first compressed slot is named."""
    reference = json.loads(REFERENCE.read_bytes())
    written = 'write_json(plan, out / "plan.json")'
    shifted = copy_with(tmp_path / "shifted", "cli.py", written,
                        "for b in plan.blocks:\n        b.ranks = {slot: rank and rank + 1 for slot, rank in b.ranks.items()}"
                        f"\n    {written}")
    assert compare(["refit_unwhitened"], reference, shifted, [0]) == ["refit_unwhitened/0/compress/plan.json"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "refit_unwhitened variant 0: differ in compress/plan.json"
    moved = re.fullmatch(r"refit_unwhitened variant 0: rank of blocks\.0\.w1 differs: (\d+) here, (\d+) in BASE",
                         lines[1])
    assert moved and int(moved[2]) == int(moved[1]) + 1
    assert lines[2].startswith("refit_unwhitened: 1/1 variants pass") and len(lines) == 3


def test_timing_rounds_rotate_the_sides_and_summarize(compare_script, capsys):
    """A stubbed runner: each side reads fixed compress_s values, HEAD's lower but one, and an equal eval_s."""
    reads = {"BASE": [1.00, 1.10, 1.20, 1.05], "A/A": [1.02, 1.12, 1.22, 1.07], "HEAD": [0.80, 0.85, 1.30, 0.90]}
    calls = []

    def runner(checkout, workload, seconds, seed):
        calls.append((checkout, workload, seconds, seed))
        side = str(checkout)
        return {"compress_s": reads[side][sum(c[0] == checkout for c in calls) - 1], "eval_s": 0.5}

    checkouts = {side: Path(side) for side in compare_script.SIDES}
    runs = compare_script.time_rounds(["toy"], 4, 2.0, 7, checkouts, runner)
    assert [str(c[0]) for c in calls] == ["BASE", "A/A", "HEAD", "A/A", "HEAD", "BASE",
                                           "HEAD", "BASE", "A/A", "BASE", "A/A", "HEAD"]
    assert all(c[1:] == ("toy", 2.0, 7) for c in calls)
    assert [r["compress_s"] for r in runs["toy"]["HEAD"]] == reads["HEAD"]
    assert capsys.readouterr().out.splitlines()[0] == "toy round 1/4 BASE: compress_s=1 eval_s=0.5"

    lines = compare_script.summarize("toy", runs["toy"], {"compress_s": "lower"})
    assert lines == [
        "toy compress_s (lower is better), 4 rounds:",
        "  BASE median 1.075, quartiles 1.0375 to 1.125",
        "  A/A  median 1.095, quartiles 1.0575 to 1.145",
        "  HEAD median 0.875, quartiles 0.8375 to 1",
        "  HEAD better than BASE in 3/4; gap -0.2 (-18.6%), BASE IQR 0.0875, A/A offset +0.02: resolved",
        "toy eval_s (lower is better), 4 rounds:",
        "  BASE median 0.5, quartiles 0.5 to 0.5",
        "  A/A  median 0.5, quartiles 0.5 to 0.5",
        "  HEAD median 0.5, quartiles 0.5 to 0.5",
        "  HEAD better than BASE in 0/4; gap +0 (+0.0%), BASE IQR 0, A/A offset +0: not resolved",
    ]
    # a higher-is-better metric counts HEAD's lower reads as losses; an A/A offset wider than the gap leaves it open
    runs["toy"]["A/A"] = [{"compress_s": 0.5, "eval_s": 0.5}] * 4
    assert compare_script.summarize("toy", runs["toy"], {"compress_s": "higher"})[4] == (
        "  HEAD better than BASE in 1/4; gap -0.2 (-18.6%), BASE IQR 0.0875, A/A offset -0.575: not resolved")
