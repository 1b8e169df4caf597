import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lowrank.cli import run_cli
from lowrank.container import load_container
from lowrank.model import load_model


@pytest.fixture
def workspace(tmp_path):
    code = run_cli([
        "synth", "--out", str(tmp_path / "base"), "--seed", "42",
        "--blocks", "4", "--hidden-dim", "32", "--mlp-dim", "64",
        "--samples", "20", "--tokens", "16",
    ])
    assert code == 0
    return tmp_path


def test_synth_writes_model_and_calibration(workspace):
    base = workspace / "base"
    assert (base / "model.json").exists()
    assert (base / "model.st").exists()
    assert (base / "calib.st").exists()
    assert load_container(base / "calib.st")["samples"].shape == (20, 16, 32)


def test_compress_happy_path(workspace, capsys):
    out = workspace / "out"
    code = run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--mrr", "0.5", "--iters", "1",
        "--bucket-size", "32", "--whiten", "--seed", "42",
        "--out", str(out),
    ])
    assert code == 0
    # every output is written under a temp name and moved into place; none is left over
    assert sorted(p.name for p in out.iterdir()) == ["model.json", "model.st", "plan.json", "traces.csv"]
    plan = json.loads((out / "plan.json").read_text())
    assert set(plan) == {"blocks", "trr", "mrr", "achieved_retention", "importance_mode"}
    assert plan["trr"] == 0.6 and plan["mrr"] == 0.5
    compressed = load_model(out / "model.json")
    assert compressed.param_count() < 4 * 2 * 32 * 64


def test_compress_may_write_over_the_model_it_maps(workspace):
    base = workspace / "base"
    args = [
        "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
        "--target-retention", "0.6", "--mrr", "0.5", "--seed", "3",
    ]
    assert run_cli([*args, "--out", str(workspace / "fresh")]) == 0
    # the outputs replace the model.json and model.st this run has loaded (and mapped)
    assert run_cli([*args, "--out", str(base)]) == 0
    for name in ("model.json", "model.st", "plan.json", "traces.csv"):
        assert (base / name).read_bytes() == (workspace / "fresh" / name).read_bytes()


def test_nonfinite_loss_trace_exits_2_and_writes_nothing(workspace, capsys, monkeypatch):
    import lowrank.pipeline

    compensate = lowrank.pipeline.compensate

    def nan_trace(*args, **kwargs):
        pair, trace = compensate(*args, **kwargs)
        trace.per_half_step[-1] = float("nan")
        return pair, trace

    monkeypatch.setattr(lowrank.pipeline, "compensate", nan_trace)
    base = workspace / "base"
    capsys.readouterr()
    code = run_cli([
        "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
        "--target-retention", "0.6", "--out", str(workspace / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "numerical error: slot blocks.0.w1: half-step 2 has a non-finite loss (nan)\n"
    assert not (workspace / "x").exists()


def test_compression_ratio_flag_converts(workspace):
    out = workspace / "out_cr"
    code = run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--compression-ratio", "0.4", "--mrr", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["trr"] == pytest.approx(0.6)


def test_compress_defaults_are_the_config_defaults(workspace, monkeypatch):
    """With only its required flags, compress walks in 32 buckets at seed 0 and hands on ``PipelineConfig(trr=...)``."""
    import lowrank.cli
    from lowrank.pipeline import PipelineConfig

    walks, configs = [], []
    calibrate_file, compress_model = lowrank.cli.calibrate_file, lowrank.cli.compress_model

    def recording_calibrate(model, calib, bucket_size, seed, with_grams=True):
        walks.append((bucket_size, seed, with_grams))
        return calibrate_file(model, calib, bucket_size, seed, with_grams)

    def recording_compress(model, calibration, cfg):
        configs.append(cfg)
        return compress_model(model, calibration, cfg)

    monkeypatch.setattr(lowrank.cli, "calibrate_file", recording_calibrate)
    monkeypatch.setattr(lowrank.cli, "compress_model", recording_compress)
    assert run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"), "--target-retention", "0.6", "--out", str(workspace / "out"),
    ]) == 0
    assert walks == [(32, 0, True)]
    assert configs == [PipelineConfig(trr=0.6)]


def test_importance_prints_plan_without_writing(workspace, capsys):
    before = sorted(p.name for p in workspace.rglob("*"))
    code = run_cli([
        "importance", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--mrr", "0.5",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {b["block_id"] for b in doc["blocks"]} == {0, 1, 2, 3}
    assert sorted(p.name for p in workspace.rglob("*")) == before


def test_importance_forms_no_gram(workspace, capsys, monkeypatch):
    import lowrank.pipeline

    calls = []
    gram_accumulate = lowrank.pipeline.gram_accumulate
    monkeypatch.setattr(lowrank.pipeline, "gram_accumulate", lambda x: calls.append(x.shape) or gram_accumulate(x))
    flags = [
        "--model", str(workspace / "base" / "model.json"), "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--mrr", "0.5",
    ]
    assert run_cli(["importance", *flags]) == 0
    assert calls == []
    printed = capsys.readouterr().out
    out = workspace / "out_gram"
    assert run_cli(["compress", *flags, "--out", str(out)]) == 0
    assert len(calls) == 8  # the counter binds: compress forms one Gram per slot
    assert (out / "plan.json").read_text() == printed


@pytest.mark.parametrize("whiten", ["--whiten", "--no-whiten"])
def test_compress_takes_no_svd(workspace, monkeypatch, whiten):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    np.linalg.svd(np.eye(2))
    assert calls == [(2, 2)]  # the spy binds
    base = workspace / "base"
    assert run_cli([
        "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
        "--target-retention", "0.6", "--iters", "2", whiten, "--out", str(workspace / "out"),
    ]) == 0
    assert calls == [(2, 2)]


def test_eval_reports_json(workspace, capsys):
    out = workspace / "out_eval"
    assert run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = run_cli([
        "eval", "--model", str(workspace / "base" / "model.json"),
        "--compressed", str(out / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["per_slot", "end_to_end", "params", "scored_on_all"]
    assert doc["end_to_end"]["output_mse"] >= 0


def test_retention_out_of_range_exits_1(workspace, capsys):
    code = run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "1.2", "--out", str(workspace / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "1.2" in err or "(0, 1]" in err


def test_unreachable_budget_band_names_the_smallest_rank_step(tmp_path, capsys):
    # One rank step of a 16x32 slot is 48 of the 3072 parameters, 1.56%: wider
    # than the +-1% band around 0.6, 1.2% of them, so the steps can jump it.
    base = tmp_path / "base"
    assert run_cli(["synth", "--out", str(base), "--seed", "3", "--blocks", "3",
                    "--hidden-dim", "32", "--mlp-dim", "16"]) == 0
    capsys.readouterr()
    code = run_cli(["compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
                    "--out", str(tmp_path / "out"), "--target-retention", "0.6", "--no-whiten", "--iters", "3"])
    assert code == 1 and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (
        "error: achieved retention 0.5938 cannot reach 0.6 within 1%: the smallest rank step, k +- 1 of a "
        "16x32 slot, is 48 of the model's 3072 parameters (1.56%), wider than the +-1% band "
        "(1.20% of the parameters)\n"
    )


@pytest.mark.parametrize(
    "flag",
    [["--bogus-flag", "1"], ["--rel-tol", "1e-3"], ["--rel-damping", "1e-5"], ["--dump-activations", "acts.st"]],
    ids=["bogus-flag", "rel-tol", "rel-damping", "dump-activations"],
)
def test_unknown_flag_exits_1(workspace, capsys, flag):
    code = run_cli([
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--out", str(workspace / "x"), *flag,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize("command", ["synth", "compress", "importance"])
def test_negative_seed_exits_1(workspace, capsys, command):
    base = workspace / "base"
    argv = {
        "synth": ["synth", "--out", str(workspace / "x")],
        "compress": [
            "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
            "--target-retention", "0.6", "--out", str(workspace / "x"),
        ],
        "importance": ["importance", "--model", str(base / "model.json"), "--calib", str(base / "calib.st")],
    }[command]
    capsys.readouterr()
    assert run_cli([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_relu_run_never_imports_scipy(tmp_path):
    # scipy is needed for gelu's erf only; a relu synth -> compress -> eval must not load it.
    script = f"""
import sys
from lowrank.cli import run_cli
base, out = {str(tmp_path / "base")!r}, {str(tmp_path / "out")!r}
assert run_cli(["synth", "--out", base, "--samples", "10", "--tokens", "8"]) == 0
assert run_cli(["compress", "--model", base + "/model.json", "--calib", base + "/calib.st",
                "--target-retention", "0.6", "--out", out]) == 0
assert run_cli(["eval", "--model", base + "/model.json", "--compressed", out + "/model.json",
                "--calib", base + "/calib.st", "--out", out + "/eval.json"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


AFFINITY_CHILD = """
import os, sys
usable = sorted(os.sched_getaffinity(0))
# One CPU, or every usable CPU up to the pool's 8 workers; set before numpy loads
# so that OpenBLAS sizes its default thread count from it.
os.sched_setaffinity(0, usable[:1] if sys.argv[1] == "one" else usable[:8])
from lowrank.cli import run_cli
sys.exit(run_cli(sys.argv[2:]))
"""


AFFINITY_CASES = {
    # 8 walk chunks of 4 buckets (256 tokens each), 8 planned slots and a
    # held-out tail of 2 chunks of 256 tokens: on 1 to 8 CPUs every pool stage
    # runs one BLAS thread per worker, so compress and eval on one CPU and on
    # all of them must write the same bytes.
    "pooled": (
        ["--blocks", "4", "--hidden-dim", "64", "--mlp-dim", "1024", "--samples", "40", "--tokens", "64"],
        [256] * 8, [256, 256], 8, ("compress", "eval"),
    ),
    # A walk of one chunk (4 fitting samples of 128 tokens, 512 wide) runs its
    # one task at the BLAS's own thread count, which follows the CPU set; the
    # whitening damping compress reads from every slot's mean diagonal must not.
    # The held-out tail is one 128-token chunk, and eval pools its two walks
    # with the 4 slots' weight errors, so its report must not follow the CPU set either.
    "one-chunk-walk": (
        ["--blocks", "2", "--hidden-dim", "512", "--mlp-dim", "2048", "--samples", "5", "--tokens", "128"],
        [512], [128], 4, ("compress", "eval"),
    ),
}


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 usable CPUs and sched_setaffinity"
)
@pytest.mark.parametrize("case", sorted(AFFINITY_CASES))
def test_outputs_do_not_depend_on_cpu_affinity(tmp_path, case):
    # The children get no thread variable, so OpenBLAS starts at its own
    # per-CPU default.
    from lowrank import pipeline

    synth, fit_chunks, heldout_chunks, planned, commands = AFFINITY_CASES[case]
    base = tmp_path / "base"
    assert run_cli(["synth", "--out", str(base), "--seed", "2", *synth]) == 0
    model = load_model(base / "model.json")
    fit, heldout = pipeline.split_calibration(load_container(base / "calib.st")["samples"])
    assert [sum(map(len, chunk)) for chunk in pipeline._walk_chunks(model, fit)] == fit_chunks
    assert [sum(map(len, chunk)) for chunk in pipeline._walk_chunks(model, heldout)] == heldout_chunks
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        argv = {
            "compress": ["compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
                         "--target-retention", "0.6", "--whiten", "--out", str(out)],
            "eval": ["eval", "--model", str(base / "model.json"), "--compressed", str(out / "model.json"),
                     "--calib", str(base / "calib.st"), "--out", str(out / "report.json")],
        }
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-c", AFFINITY_CHILD, cpus, *argv[command]],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
    plan = json.loads((tmp_path / "all" / "plan.json").read_text())
    assert sum(rank is not None for block in plan["blocks"] for rank in block["ranks"].values()) == planned
    names = ["model.st", "plan.json", "traces.csv"] + (["report.json"] if "eval" in commands else [])
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name


def test_missing_model_file_exits_1(workspace, capsys):
    code = run_cli([
        "compress", "--model", str(workspace / "nope.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--out", str(workspace / "x"),
    ])
    assert code == 1


@pytest.mark.parametrize("command", ["compress", "eval"])
def test_numerical_error_exits_2(workspace, capsys, command):
    from lowrank.container import save_container

    base = workspace / "base"
    compress = [
        "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
        "--target-retention", "0.6", "--out",
    ]
    if command == "compress":
        container, name, bad = base / "model.st", "blocks.1.w1", np.inf
        argv = [*compress, str(workspace / "x")]
    else:
        assert run_cli([*compress, str(workspace / "c")]) == 0
        container, name, bad = workspace / "c" / "model.st", "blocks.1.w1.u", np.nan
        argv = [
            "eval", "--model", str(base / "model.json"),
            "--compressed", str(workspace / "c" / "model.json"), "--calib", str(base / "calib.st"),
        ]
    tensors = load_container(container)
    tensors[name] = tensors[name].copy()
    tensors[name][0, 0] = bad
    save_container(container, tensors)
    capsys.readouterr()
    with np.errstate(invalid="ignore"):
        code = run_cli(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert "block 1" in captured.err
    assert captured.out == ""  # no report with a NaN in it


def _poison_calibration(calib, bad):
    """Put ``bad`` into the first token of every sample: the fitting buckets and the held-out tail."""
    from lowrank.container import save_container

    samples = load_container(calib)["samples"].copy()
    samples[:, 0, 0] = bad
    save_container(calib, {"samples": samples})


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["compress", "importance", "eval"])
def test_nonfinite_calibration_exits_2(workspace, capsys, command, bad):
    base = workspace / "base"
    flags = ["--model", str(base / "model.json"), "--calib", str(base / "calib.st")]
    if command == "eval":
        assert run_cli(["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "c")]) == 0
        argv = ["eval", *flags, "--compressed", str(workspace / "c" / "model.json")]
    elif command == "compress":
        argv = ["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "x")]
    else:
        argv = ["importance", *flags, "--target-retention", "0.6"]
    _poison_calibration(base / "calib.st", bad)
    capsys.readouterr()
    with np.errstate(invalid="ignore"):
        code = run_cli(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical error: non-finite activations in block 0\n"
    assert captured.out == ""
    assert not (workspace / "x").exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_nonfinite_report_exits_2(workspace, capsys, monkeypatch, to_file):
    import lowrank.cli

    base = workspace / "base"
    flags = ["--model", str(base / "model.json"), "--calib", str(base / "calib.st")]
    assert run_cli(["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "c")]) == 0
    eval_compression = lowrank.cli.eval_compression

    def nan_cosine(*args, **kwargs):
        report = eval_compression(*args, **kwargs)
        report.end_to_end.output_cosine_mean = float("nan")
        return report

    monkeypatch.setattr(lowrank.cli, "eval_compression", nan_cosine)
    report = workspace / "report.json"
    argv = [
        "eval", *flags, "--compressed", str(workspace / "c" / "model.json"),
        *(["--out", str(report)] if to_file else []),
    ]
    capsys.readouterr()
    code = run_cli(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical error: cannot write ")
    assert "NaN" not in captured.out
    assert sorted(p.name for p in workspace.iterdir()) == ["base", "c"]


def assert_scaled_calibration_exits_2(workspace, capsys, command, scale, what):
    """``command`` on the calibration data times ``scale`` exits 2 naming block 0, with no warning and no file."""
    from lowrank.container import save_container

    base = workspace / "base"
    flags = ["--model", str(base / "model.json"), "--calib", str(workspace / "scaled.st")]
    if command == "eval":
        assert run_cli([
            "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
            "--target-retention", "0.6", "--out", str(workspace / "c"),
        ]) == 0
        argv = ["eval", *flags, "--compressed", str(workspace / "c" / "model.json"),
                "--out", str(workspace / "report.json")]
    elif command == "compress":
        argv = ["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "x")]
    else:
        argv = ["importance", *flags, "--target-retention", "0.6"]
    save_container(workspace / "scaled.st", {"samples": load_container(base / "calib.st")["samples"] * scale})
    before = sorted(p.name for p in workspace.rglob("*"))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical error: activations {what} in block 0")
    assert "Warning" not in captured.err and caught == []
    assert captured.out == ""
    assert sorted(p.name for p in workspace.rglob("*")) == before


@pytest.mark.parametrize("command", ["compress", "importance", "eval"])
def test_overflowing_calibration_exits_2(workspace, capsys, command):
    """Finite calibration data whose per-token sums of squares overflow is a numerical error, with no warning."""
    assert_scaled_calibration_exits_2(workspace, capsys, command, 1e160, "overflow")


@pytest.mark.parametrize("scale", [1e-170, 1e-160])
@pytest.mark.parametrize("command", ["compress", "importance", "eval"])
def test_underflowing_calibration_exits_2(workspace, capsys, command, scale):
    """Nonzero tokens whose sums of squares underflow to 0 or to a subnormal are a numerical error, not a silent 0."""
    if scale == 1e-160:
        samples = load_container(workspace / "base" / "calib.st")["samples"] * scale
        squares = np.einsum("ijk,ijk->ij", samples, samples)
        assert np.all(squares > 0) and np.all(squares < np.finfo(np.float64).tiny)
    assert_scaled_calibration_exits_2(workspace, capsys, command, scale, "underflow")


@pytest.mark.parametrize("scaled, scale, message", [
    (["blocks.1.w2"], 1e160, "activations overflow in block 1"),
    # every slot: block 0's w2 product overflows itself, where numpy would warn
    (None, 1e160, "non-finite activations in block 0\n"),
    (None, 1e200, "non-finite activations in block 0\n"),
    (None, 1e300, "non-finite activations in block 0\n"),
], ids=["w2-of-block-1", "every-slot-1e160", "every-slot-1e200", "every-slot-1e300"])
@pytest.mark.parametrize("command", ["compress", "importance", "eval"])
def test_overflowing_weights_exit_2(workspace, capsys, command, scaled, scale, message):
    """Finite weights whose slot outputs overflow are a numerical error naming the block, under warnings as errors."""
    import shutil

    from lowrank.container import save_container

    base, big = workspace / "base", workspace / "big"
    big.mkdir()
    shutil.copy(base / "model.json", big / "model.json")
    tensors = {name: np.array(t) for name, t in load_container(base / "model.st").items()}
    for name in tensors if scaled is None else scaled:
        tensors[name] *= scale
    save_container(big / "model.st", tensors)
    flags = ["--model", str(big / "model.json"), "--calib", str(base / "calib.st")]
    if command == "eval":
        assert run_cli([
            "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
            "--target-retention", "0.6", "--out", str(workspace / "c"),
        ]) == 0
        argv = ["eval", *flags, "--compressed", str(workspace / "c" / "model.json"),
                "--out", str(workspace / "report.json")]
    elif command == "compress":
        argv = ["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "x")]
    else:
        argv = ["importance", *flags, "--target-retention", "0.6"]
    before = sorted(p.name for p in workspace.rglob("*"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical error: {message}") and "Warning" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in workspace.rglob("*")) == before


@pytest.mark.parametrize("case", ["weights-1e-90", "zero-w1"])
def test_underflowing_slot_gram_exits_2_but_a_zero_one_does_not(tmp_path, capsys, case):
    """A slot Gram that underflows to 0 from nonzero outputs is a numerical error; one from zero outputs is not.

    With every weight x1e-90, w2's outputs are about 1e-180, so their Gram
    rounds to 0 while the block outputs stay normal. With w1 = 0, w2 sees only
    zeros, and its zero Gram is the true one.
    """
    from lowrank.container import save_container

    base, model = tmp_path / "base", tmp_path / "model"
    assert run_cli([
        "synth", "--out", str(base), "--seed", "0", "--blocks", "2", "--hidden-dim", "16", "--mlp-dim", "24",
        "--samples", "20", "--tokens", "16",
    ]) == 0
    model.mkdir()
    (model / "model.json").write_bytes((base / "model.json").read_bytes())
    tensors = {name: np.array(t) for name, t in load_container(base / "model.st").items()}
    for name in tensors:
        if case == "weights-1e-90":
            tensors[name] *= 1e-90
        elif name.endswith(".w1"):
            tensors[name][:] = 0.0
    save_container(model / "model.st", tensors)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([
            "compress", "--model", str(model / "model.json"), "--calib", str(base / "calib.st"),
            "--target-retention", "0.7", "--out", str(tmp_path / "out"),
        ])
    captured = capsys.readouterr()
    if case == "zero-w1":
        assert code == 0 and (tmp_path / "out" / "model.st").exists()
        return
    assert code == 2
    assert captured.err == ("numerical error: activations underflow in block 0: slot blocks.0.w2's Gram trace "
                            "is below 2.2e-308, but its outputs are nonzero\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_nonfinite_calibration_in_a_walk_worker(workspace, capsys, monkeypatch):
    import threading

    import lowrank.pipeline
    from lowrank.runtime import BlasControl

    state = [2]
    controls = [BlasControl("lib0", lambda: state[0], lambda n: state.__setitem__(0, n))]
    monkeypatch.setattr(lowrank.pipeline, "blas_controls", lambda: controls)
    monkeypatch.setattr(lowrank.pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lowrank.pipeline, "CHUNK_BYTES", 8 * 64 * 64)  # 4 chunks of 4 buckets
    walkers = []
    walk_blocks = lowrank.pipeline.walk_blocks

    def recording(*args, **kwargs):
        walkers.append((threading.current_thread() is threading.main_thread(), state[0]))
        return walk_blocks(*args, **kwargs)

    monkeypatch.setattr(lowrank.pipeline, "walk_blocks", recording)
    base = workspace / "base"
    _poison_calibration(base / "calib.st", np.nan)
    capsys.readouterr()
    code = run_cli([
        "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
        "--target-retention", "0.6", "--out", str(workspace / "x"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "numerical error: non-finite activations in block 0\n"
    assert walkers and all(w == (False, 1) for w in walkers)  # pool threads, 2 workers x 1 thread
    assert state == [2]


def test_numerical_error_in_an_eval_worker(workspace, capsys, monkeypatch):
    import threading

    import lowrank.pipeline
    from lowrank.container import save_container
    from lowrank.runtime import BlasControl

    base = workspace / "base"
    flags = ["--model", str(base / "model.json"), "--calib", str(base / "calib.st")]
    assert run_cli(["compress", *flags, "--target-retention", "0.6", "--out", str(workspace / "c")]) == 0
    container = workspace / "c" / "model.st"
    tensors = load_container(container)
    tensors["blocks.1.w1.u"] = tensors["blocks.1.w1.u"].copy()
    tensors["blocks.1.w1.u"][0, 0] = np.nan
    save_container(container, tensors)

    state = [2]
    controls = [BlasControl("lib0", lambda: state[0], lambda n: state.__setitem__(0, n))]
    monkeypatch.setattr(lowrank.pipeline, "blas_controls", lambda: controls)
    monkeypatch.setattr(lowrank.pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lowrank.pipeline, "CHUNK_BYTES", 8 * 64 * 32)  # the 4 held-out samples in 2 chunks
    walkers = []
    walk_blocks = lowrank.pipeline.walk_blocks

    def recording(*args, **kwargs):
        walkers.append((threading.current_thread() is threading.main_thread(), state[0]))
        return walk_blocks(*args, **kwargs)

    monkeypatch.setattr(lowrank.pipeline, "walk_blocks", recording)
    capsys.readouterr()
    with np.errstate(invalid="ignore"):
        code = run_cli(["eval", *flags, "--compressed", str(workspace / "c" / "model.json")])
    assert code == 2
    assert capsys.readouterr() == ("", "numerical error: non-finite activations in block 1\n")
    # Each chunk walks both models on a pool thread at 2 workers x 1 thread; once the first chunk
    # fails, the pool cancels the other if it has not started, so the count of walks varies.
    assert len(walkers) >= 2 and all(w == (False, 1) for w in walkers)
    assert state == [2]


@pytest.mark.parametrize("flags, message", [
    (["--activation", "gelu"], "models differ in hidden_dim or activation"),
    (["--hidden-dim", "16"], "models differ in hidden_dim or activation"),
    (["--blocks", "3"], "models have different block structure"),
    (["--mlp-dim", "48"], "slot blocks.0.w1 shapes differ between the two models"),
], ids=["activation", "hidden-dim", "blocks", "slot-shape"])
def test_eval_of_unaligned_models_exits_1(workspace, capsys, flags, message):
    """``eval`` of two models that differ in structure is a ManifestMismatch of one line, with no report."""
    base, other = workspace / "base", workspace / "other"
    synth = ["synth", "--out", str(other), "--seed", "42", "--blocks", "4", "--hidden-dim", "32",
             "--mlp-dim", "64", "--samples", "20", "--tokens", "16"]
    assert run_cli([*synth, *flags]) == 0  # argparse keeps the last of a repeated flag
    capsys.readouterr()
    code = run_cli([
        "eval", "--model", str(base / "model.json"), "--compressed", str(other / "model.json"),
        "--calib", str(base / "calib.st"), "--out", str(workspace / "report.json"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (workspace / "report.json").exists()


def test_eval_notes_an_empty_heldout_tail(tmp_path, capsys):
    synth = ["synth", "--blocks", "2", "--hidden-dim", "8", "--mlp-dim", "16", "--tokens", "8"]
    reports = {}
    for samples in ("4", "5"):
        base = tmp_path / samples
        assert run_cli([*synth, "--samples", samples, "--out", str(base)]) == 0
        capsys.readouterr()
        assert run_cli([
            "eval", "--model", str(base / "model.json"), "--compressed", str(base / "model.json"),
            "--calib", str(base / "calib.st"),
        ]) == 0
        captured = capsys.readouterr()
        reports[samples] = (json.loads(captured.out), captured.err)
    doc, err = reports["4"]
    assert err == f"note: {tmp_path / '4' / 'calib.st'} is too small for a held-out tail; eval scored every sample\n"
    assert list(doc) == ["per_slot", "end_to_end", "params", "scored_on_all"]
    assert list(doc) == list(reports["5"][0])
    assert doc["scored_on_all"] is True and reports["5"][0]["scored_on_all"] is False
    assert reports["5"][1] == ""


def test_cli_runs_are_bit_identical(workspace):
    args = [
        "compress", "--model", str(workspace / "base" / "model.json"),
        "--calib", str(workspace / "base" / "calib.st"),
        "--target-retention", "0.6", "--mrr", "0.5", "--iters", "1",
        "--whiten", "--seed", "7",
    ]
    assert run_cli(args + ["--out", str(workspace / "r1")]) == 0
    assert run_cli(args + ["--out", str(workspace / "r2")]) == 0
    for name in ("plan.json", "model.st", "model.json", "traces.csv"):
        assert (workspace / "r1" / name).read_bytes() == (workspace / "r2" / name).read_bytes()


def _drop_vt(doc):
    doc["blocks"][0]["lowrank"] = {"w1": {"u": "blocks.0.w1", "rank": 4}}
    del doc["blocks"][0]["matrices"]["w1"]


def _drop_block_id(doc):
    del doc["blocks"][1]["block_id"]


def _blocks_not_a_list(doc):
    doc["blocks"] = "abc"


def _duplicate_block_id(doc):
    doc["blocks"][1]["block_id"] = 0


def _no_blocks(doc):
    doc["blocks"] = []


def _infinite_hidden_dim(doc):
    doc["hidden_dim"] = float("inf")  # written as Infinity, which parses to inf as 1e400 does


def _infinite_rank(doc):
    doc["blocks"][0]["lowrank"] = {"w1": {"u": "blocks.0.w1", "vt": "blocks.0.w2", "rank": float("inf")}}
    del doc["blocks"][0]["matrices"]["w1"]


def _list_tensor_name(doc):
    doc["blocks"][0]["matrices"]["w1"] = ["blocks.0.w1"]


def _object_tensor_name(doc):
    doc["blocks"][0]["lowrank"] = {"w1": {"u": {"name": "blocks.0.w1"}, "vt": "blocks.0.w2", "rank": 4}}
    del doc["blocks"][0]["matrices"]["w1"]


@pytest.mark.parametrize(
    "mutate",
    [
        _drop_vt, _drop_block_id, _blocks_not_a_list, _duplicate_block_id, _no_blocks,
        _infinite_hidden_dim, _infinite_rank, _list_tensor_name, _object_tensor_name,
    ],
)
def test_malformed_manifest_is_a_format_error(workspace, capsys, mutate):
    manifest = workspace / "base" / "model.json"
    doc = json.loads(manifest.read_text())
    mutate(doc)
    manifest.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may precede the error
        code = run_cli([
            "compress", "--model", str(manifest),
            "--calib", str(workspace / "base" / "calib.st"),
            "--target-retention", "0.6", "--out", str(workspace / "x"),
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
