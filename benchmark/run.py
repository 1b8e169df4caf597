#!/usr/bin/env python3
"""Stage-level benchmark of ``lowrank compress`` and ``lowrank eval``.

    python3 benchmark/run.py --workload desk --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The seed picks one of ``VARIANTS`` input
variants of the workload; ``lowrank synth`` generates the model and the
calibration set from it (the set-up, timed as ``setup_s``). Then cycles of
one compress and one eval process run until ``--seconds`` have passed, at
least ``MIN_CYCLES`` of them. Every command goes through
``lowrank.cli.run_cli`` in a fresh process, exactly as a user runs it, and is
checked: every compress must write the same ``model.st`` and ``plan.json``
bytes and reach the target retention, and every eval must report the recorded
reference held-out MSE.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
cycles the same way (at least one), then one traced cycle, and prints the
per-layer metrics.
The last line of standard output is the result as JSON. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, ROOT, CheckoutError, environment, use_checkout_sources
from tracer import CONTAINER_TARGETS, Span, Tracer, self_times, span_from_json, span_to_json

STARTED = time.perf_counter()

TARGET_RETENTION = 0.6
MRR = 0.5
VARIANTS = 16            # the seed selects variant seed % VARIANTS
SETUP_REPEATS = 5        # setup_s is the median of this many synth runs
MIN_CYCLES = 2           # so the byte-identity check always compares two compress runs
EVAL_MIN_REPEATS = 4     # eval repeats inside its process, at least this often...
EVAL_MIN_SECONDS = 1.0   # ...and until this much eval time has been measured
MSE_RTOL = 1e-6          # "floating-point noise" for the held-out MSE reference
RETENTION_TOL = 0.01     # achieved retention within 1% of the target
USEFUL_GAIN = 1e-9       # a half-step is useful if it cuts the loss by more than this, relative
BUDGET_S = 150.0         # no command starts that would end after this, counted from start-up
DEADLINE_S = 172.0       # every child process is killed by then

WORK_ROOT = ROOT / ".bench_work"
REFERENCE_FILE = BENCH_DIR / "reference.json"
INPUT_FILES = ("model.json", "model.st", "calib.st")
IDENTICAL_OUTPUTS = ("model.st", "plan.json")


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int
    hidden_dim: int
    mlp_dim: int
    samples: int
    tokens: int
    buckets: int
    flags: tuple[str, ...]

    def synth_argv(self, base: Path, variant: int) -> list[str]:
        return [
            "synth", "--out", str(base), "--seed", str(variant),
            "--blocks", str(self.blocks), "--hidden-dim", str(self.hidden_dim),
            "--mlp-dim", str(self.mlp_dim), "--samples", str(self.samples),
            "--tokens", str(self.tokens),
        ]

    def compress_argv(self, base: Path, out: Path, variant: int) -> list[str]:
        return [
            "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
            "--out", str(out), "--target-retention", str(TARGET_RETENTION), "--mrr", str(MRR),
            "--bucket-size", str(self.buckets), "--seed", str(variant), *self.flags,
        ]

    def eval_argv(self, base: Path, out: Path, report: Path) -> list[str]:
        return [
            "eval", "--model", str(base / "model.json"), "--compressed", str(out / "model.json"),
            "--calib", str(base / "calib.st"), "--out", str(report),
        ]


# Why each workload was chosen is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", 4, 512, 2048, 40, 128, 32, ("--whiten", "--iters", "1")),
        Workload("calib_heavy", 8, 64, 128, 640, 64, 512, ("--whiten", "--iters", "1")),
        Workload("refit_unwhitened", 4, 256, 1024, 20, 48, 16, ("--no-whiten", "--iters", "3")),
    )
}

END_TO_END = {
    "setup_s": "s",
    "compress_s": "s",
    "eval_s": "s",
    "compress_rss_mb": "MB",
    "eval_rss_mb": "MB",
    "heldout_mse": "1",
}
PER_LAYER = {
    "container.load_s": "s",
    "container.save_s": "s",
    "container.read_mb": "MB",
    "container.written_mb": "MB",
    "model.load_s": "s",
    "model.forward_s": "s",
    "model.forward_tokens": "count",
    "calibration.stack_of_batch_s": "s",
    "calibration.capture_s": "s",
    "calibration.captured_mb": "MB",
    "calibration.gram_s": "s",
    "calibration.gram_calls": "count",
    "allocation.build_plan_s": "s",
    "allocation.rank_steps": "count",
    "linalg.gram_factor_s": "s",
    "linalg.cholesky_s": "s",
    "linalg.cholesky_calls": "count",
    "linalg.svd_s": "s",
    "linalg.pinv_s": "s",
    "linalg.pinv_calls": "count",
    "linalg.gflop_computed": "GFLOP",
    "compensation.compensate_s": "s",
    "compensation.update_u_s": "s",
    "compensation.update_v_s": "s",
    "compensation.half_steps": "count",
    "compensation.useful_half_step_ratio": "ratio",
    "pipeline.slots": "count",
    "pipeline.slot_wall_s": "s",
    "pipeline.slot_busy_s": "s",
    "pipeline.slot_queue_s": "s",
    "pipeline.workers_seen": "count",
    "pipeline.blas_threads": "count",
    "pipeline.cpu_s": "s",
    "pipeline.eval_self_s": "s",
    "cli.write_outputs_s": "s",
    "trace.compress_s": "s",
    "trace.untraced_compress_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer times are per-thread self time summed over threads, from these spans.
SELF_TIME_SPANS = {
    "container.load_s": "container.load",
    "container.save_s": "container.save",
    "model.load_s": "model.load",
    "model.forward_s": "model.forward",
    "calibration.stack_of_batch_s": "calibration.stack_of_batch",
    "calibration.capture_s": "calibration.capture",
    "calibration.gram_s": "calibration.gram",
    "allocation.build_plan_s": "allocation.build_plan",
    "linalg.gram_factor_s": "linalg.gram_factor",
    "linalg.cholesky_s": "linalg.cholesky",
    "linalg.svd_s": "linalg.svd",
    "linalg.pinv_s": "linalg.pinv",
    "compensation.compensate_s": "compensation.compensate",
    "compensation.update_u_s": "compensation.update_u",
    "compensation.update_v_s": "compensation.update_v",
    "pipeline.eval_self_s": "pipeline.eval_compression",
    "cli.write_outputs_s": "cli.write_outputs",
}


@dataclass
class Command:
    """One ``run_cli`` call; it failed if it exited non-zero or failed a check."""

    name: str
    code: int
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Measured:
    """Reports of the run's child processes (see child.py)."""

    compress: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)
    traced_compress: dict | None = None
    traced_eval: dict | None = None


class Run:
    """State of one benchmark run: its commands and their checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, reference: dict):
        self.workload = workload
        self.variant = seed % VARIANTS
        self.work = work
        self.base = work / "input"
        self.out = work / "out"
        self.reference = reference
        self.commands: list[Command] = []
        self.first_hashes: dict[str, str] | None = None

    def record(self, name: str, code: int) -> Command:
        cmd = Command(name, code)
        self.commands.append(cmd)
        return cmd

    # --- set-up -------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Run ``synth`` in this process ``repeats`` times; outputs must not change."""
        from lowrank.cli import run_cli

        argv = self.workload.synth_argv(self.base, self.variant)
        times: list[float] = []
        first = None
        for _ in range(repeats):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = run_cli(argv)
                times.append(time.perf_counter() - start)
            cmd = self.record("synth", code)
            if code != 0:
                break
            hashes = file_hashes(self.base, INPUT_FILES)
            if first is None:
                first = hashes
            elif hashes != first:
                cmd.problems.append("synth outputs differ between repeats")
        return times

    def traced_setup(self) -> list[Span]:
        from lowrank.cli import run_cli

        with Tracer(CONTAINER_TARGETS) as tracer, contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(self.workload.synth_argv(self.base, self.variant))
        self.record("synth", code)
        return tracer.spans

    # --- compress and eval processes --------------------------------------------

    def compress(self, traced: bool) -> dict | None:
        """One checked compress process; None if it failed to run."""
        argv = self.workload.compress_argv(self.base, self.out, self.variant)
        report = self.child(argv, 1, 0.0, traced, "compress")
        if report is None:
            return None
        problems = self.commands[-1].problems
        hashes = file_hashes(self.out, IDENTICAL_OUTPUTS)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            problems.append("model.st or plan.json differs from the first compress of this seed")
        achieved = json.loads((self.out / "plan.json").read_text())["achieved_retention"]
        if abs(achieved - TARGET_RETENTION) > RETENTION_TOL * TARGET_RETENTION:
            problems.append(f"achieved retention {achieved} is not within 1% of {TARGET_RETENTION}")
        return report

    def evaluate(self, traced: bool) -> dict | None:
        """One checked eval process; None if it failed to run.

        Untraced, eval repeats inside the process; traced, it runs once, so
        the traced counts cover exactly one eval.
        """
        path = self.work / "report.json"
        argv = self.workload.eval_argv(self.base, self.out, path)
        if traced:
            report = self.child(argv, 1, 0.0, True, "eval")
        else:
            report = self.child(argv, EVAL_MIN_REPEATS, EVAL_MIN_SECONDS, False, "eval")
        if report is None:
            return None
        report["heldout_mse"] = json.loads(path.read_text())["end_to_end"]["output_mse"]
        problem = check_reference(self.reference, self.workload.name, self.variant, report["heldout_mse"])
        if problem:
            self.commands[-1].problems.append(problem)
        return report

    def child(self, argv: list[str], repeats: int, min_seconds: float, traced: bool, name: str):
        """Run the command in a fresh process; returns its report, or None on failure."""
        result = self.work / f"{name}.child.json"
        result.unlink(missing_ok=True)
        spec = {"argv": argv, "repeats": repeats, "min_seconds": min_seconds,
                "trace": traced, "result": str(result)}
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.record(name, -1).problems.append(f"timed out after {timeout:.0f} s")
            return None
        if done.returncode != 0 or not result.exists():
            self.record(name, done.returncode or -1).problems.append(done.stderr.strip()[-2000:])
            return None
        report = json.loads(result.read_text())
        for code in report["codes"]:
            self.record(name, code)
        if any(report["codes"]):
            self.commands[-1].problems.append(done.stderr.strip()[-2000:])
            return None
        return report

    def measure(self, seconds: float, trace: bool) -> Measured | None:
        """Cycles of one compress and one eval process until ``seconds`` have passed.

        An untraced run makes at least MIN_CYCLES cycles. A traced run makes at
        least one untraced cycle, then one traced cycle. Returns None as soon
        as a command fails to run.
        """
        m = Measured()
        begin = time.perf_counter()
        minimum = 1 if trace else MIN_CYCLES
        last = 0.0
        while len(m.compress) < minimum or time.perf_counter() - begin < seconds:
            # Stop early rather than overrun the process deadline.
            reserve = last * (2 if trace else 1)
            if len(m.compress) >= minimum and time.perf_counter() - STARTED + reserve > BUDGET_S:
                break
            start = time.perf_counter()
            compressed = self.compress(traced=False)
            evaluated = self.evaluate(traced=False) if compressed else None
            if evaluated is None:
                return None
            m.compress.append(compressed)
            m.evals.append(evaluated)
            last = time.perf_counter() - start
        if trace:
            m.traced_compress = self.compress(traced=True)
            m.traced_eval = self.evaluate(traced=True) if m.traced_compress else None
            if m.traced_eval is None:
                return None
        return m

    @property
    def attempted(self) -> int:
        return len(self.commands)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.commands)


def check_reference(reference: dict, workload: str, variant: int, mse: float) -> str | None:
    expected = reference.get(workload, {}).get(str(variant))
    if expected is None:
        return f"no recorded heldout_mse reference for {workload} variant {variant}"
    if abs(mse - expected) > MSE_RTOL * abs(expected):
        return f"heldout_mse {mse!r} differs from the reference {expected!r}"
    return None


def file_hashes(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# --- metrics -----------------------------------------------------------------


def end_to_end_metrics(setup_times: list[float], m: Measured) -> dict[str, float]:
    return {
        "setup_s": median(setup_times),
        "compress_s": median(c["seconds"][0] for c in m.compress),
        "eval_s": median(t for e in m.evals for t in e["seconds"]),
        "compress_rss_mb": median(c["peak_rss_mb"] for c in m.compress),
        "eval_rss_mb": median(e["peak_rss_mb"] for e in m.evals),
        "heldout_mse": median(e["heldout_mse"] for e in m.evals),
    }


def per_layer_metrics(run: Run, setup_spans: list[Span], m: Measured) -> dict:
    traced = m.traced_compress
    compress = [span_from_json(s) for s in traced["spans"]]
    evaluate = [span_from_json(s) for s in m.traced_eval["spans"]]
    spans = setup_spans + compress + evaluate
    by_name: dict[str, float] = {}
    for phase in (setup_spans, compress, evaluate):  # span and thread ids are per process
        for (_, name), t in self_times(phase).items():
            by_name[name] = by_name.get(name, 0.0) + t

    def total(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0.0) for s in spans if s.name == name)

    def calls(name: str) -> float:
        return float(sum(s.name == name for s in spans))

    out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIME_SPANS.items()}
    plan = json.loads((run.out / "plan.json").read_text())
    half_steps, useful = half_step_counts(run.out / "traces.csv")
    flop = sum(total(n, "flop") for n in ("linalg.gram_factor", "linalg.cholesky", "linalg.svd", "linalg.pinv"))
    out.update({
        "container.read_mb": total("container.load", "mb"),
        "container.written_mb": total("container.save", "mb"),
        "model.forward_tokens": total("model.forward", "tokens"),
        "calibration.captured_mb": total("calibration.capture", "mb"),
        "calibration.gram_calls": calls("calibration.gram"),
        "allocation.rank_steps": float(rank_steps(plan, run.workload)),
        "linalg.cholesky_calls": calls("linalg.cholesky"),
        "linalg.pinv_calls": calls("linalg.pinv"),
        "linalg.gflop_computed": flop / 1e9,
        "compensation.half_steps": float(half_steps),
        "compensation.useful_half_step_ratio": useful / half_steps if half_steps else 0.0,
        "pipeline.slots": float(sum(r is not None for b in plan["blocks"] for r in b["ranks"].values())),
        "pipeline.blas_threads": float(max((b["threads"] for b in traced["blas"]), default=0)),
        "pipeline.cpu_s": traced["cpu_s"],
    })
    out.update(slot_stage(compress))
    untraced_s = median(c["seconds"][0] for c in m.compress)
    out["trace.compress_s"] = traced["seconds"][0]
    out["trace.untraced_compress_s"] = untraced_s
    out["trace.overhead_s"] = out["trace.compress_s"] - untraced_s
    return out


def slot_stage(spans: list[Span]) -> dict[str, float]:
    """Slot stage of compress: from the end of the plan to the end of compress_model.

    Busy time is the span time of the stage's outermost work on every thread:
    pool tasks on the workers, or the slot kernels on the calling thread when
    compress runs serially. Queue time is how long pool tasks waited for a worker.
    """
    top = [s for s in spans if s.name == "pipeline.compress_model"]
    if not top:
        return {"pipeline.slot_wall_s": 0.0, "pipeline.slot_busy_s": 0.0,
                "pipeline.slot_queue_s": 0.0, "pipeline.workers_seen": 0.0}
    root = top[0]
    plans = [s.end for s in spans if s.name == "allocation.build_plan" and s.parent == root.id]
    begin = max(plans, default=root.start)
    work = [s for s in spans
            if s.start >= begin and s.end <= root.end and s.parent in (None, root.id)]
    queued = [s.start - s.queued for s in spans if s.queued is not None]
    return {
        "pipeline.slot_wall_s": root.end - begin,
        "pipeline.slot_busy_s": sum(s.end - s.start for s in work),
        "pipeline.slot_queue_s": sum(queued),
        "pipeline.workers_seen": float(len({s.thread for s in work})),
    }


def half_step_counts(traces_csv: Path) -> tuple[int, int]:
    """(half-steps, half-steps that cut the loss by more than USEFUL_GAIN relative)."""
    with open(traces_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = useful = 0
    previous: dict[str, float] = {}
    for row in rows:
        loss = float(row["loss"])
        if int(row["half_step"]) > 0:
            total += 1
            before = previous[row["slot"]]
            useful += (before - loss) > USEFUL_GAIN * abs(before)
        previous[row["slot"]] = loss
    return total, useful


def rank_steps(plan: dict, workload: Workload) -> int:
    """Distance of the final ranks from the parameter-budget floor ranks."""
    from lowrank.linalg import rank_for_retention

    shapes = {"w1": (workload.mlp_dim, workload.hidden_dim), "w2": (workload.hidden_dim, workload.mlp_dim)}
    steps = 0
    for block in plan["blocks"]:
        for slot, rank in block["ranks"].items():
            if rank is not None:
                steps += abs(rank - rank_for_retention(*shapes[slot], block["retention"]))
    return steps


def thread_table(spans: list[Span]) -> list[str]:
    """Per-thread self time of the traced compress, busiest spans first."""
    main = next((s.thread for s in spans if s.name == "pipeline.compress_model"), None)
    by_start = dict.fromkeys(s.thread for s in sorted(spans, key=lambda s: s.start))
    labels = {t: f"worker-{i}" for i, t in enumerate((t for t in by_start if t != main), start=1)}
    labels[main] = "main"
    lines = []
    for (thread, name), t in sorted(self_times(spans).items(), key=lambda kv: (labels[kv[0][0]], -kv[1])):
        lines.append(f"  {labels[thread]:<10} {name:<32} {t:10.4f} s")
    return lines


# --- entry point ---------------------------------------------------------------


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  reference: dict, work_root: Path) -> dict:
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    run = Run(workload, seed, work, reference)
    setup_times = run.setup(SETUP_REPEATS)
    measured = None
    setup_spans: list[Span] = []
    if not any(c.failed for c in run.commands):
        if trace:
            setup_spans = run.traced_setup()
        measured = run.measure(seconds, trace)
    complete = measured is not None
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    if complete:
        metrics = (per_layer_metrics(run, setup_spans, measured) if trace
                   else end_to_end_metrics(setup_times, measured))
    correct = complete and run.failed == 0

    for cmd in run.commands:
        for problem in cmd.problems:
            print(f"check failed ({cmd.name}): {problem}", file=sys.stderr)
    if measured is not None:
        print(f"workload {workload.name}, seed {seed} (variant {run.variant}): "
              f"{len(measured.compress)} untraced cycles{', 1 traced' if trace else ''}")
    for name, unit in units.items():
        print(f"  {name:<38} {metrics.get(name, 0.0):14.6g} {unit}")
    print(f"  {'error_rate':<38} {run.failed / run.attempted:14.6g} ratio "
          f"({run.failed} of {run.attempted} commands)")
    if trace and complete:
        compress_spans = [span_from_json(s) for s in measured.traced_compress["spans"]]
        print("per-thread self time of the traced compress "
              "(compress_model's includes waiting for the slot pool):")
        print("\n".join(thread_table(compress_spans)))
        (work / "spans.json").write_text(json.dumps({
            "setup": [span_to_json(s) for s in setup_spans],
            "compress": measured.traced_compress["spans"],
            "eval": measured.traced_eval["spans"],
        }))

    return {
        "correct": correct,
        "attempted": run.attempted,  # set-up always runs, so never 0
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        print(f"error: {exc}; run this from the root of a lowrank checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE_FILE.read_text())
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                           reference, WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
