#!/usr/bin/env python3
"""Gate every workload variant against the benchmark's reference and compare output bytes or timings with BASE.

    python3 scripts/compare.py [BASE] [--workload NAME ...]
    python3 scripts/compare.py BASE --rounds N [--seconds S] [--seed K] [--workload NAME ...]

For each of the 16 variants of each named benchmark workload (all of them by
default), runs ``synth``, ``compress`` and ``eval --out`` once, in this
process, on this checkout's sources, in a temporary directory. Each eval
report's ``output_mse`` goes through the benchmark's own gate against
``benchmark/reference.json``; each miss is printed, and per workload the
number of variants that pass and the largest relative deviation.

BASE is the root of another checkout of the project, for example a ``git
clone`` of the parent commit. Given it, variants 0 and 5 also run in fresh
processes under ``PYTHONPATH=BASE/src``: BASE's ``synth`` writes its own
inputs, and its ``compress`` and ``eval`` read this checkout's, so a
difference in them is the command's own. The SHA-256 of every file each
command writes is compared: ``synth``'s ``model.json``, ``model.st`` and
``calib.st``, ``compress``'s ``model.json``, ``model.st``, ``plan.json`` and
``traces.csv``, and the eval report. One line per variant names each
differing file with the command that wrote it, and a second says whether the
two plans chose the same rank for every slot ("ranks identical") or names the
first slot, in block order, whose rank differs: a plan whose importances move
in their last bits can still choose the same ranks.

Exits 1 on any reference miss or differing file. Writes nothing outside its
temporary directory; ``benchmark/record_reference.py`` is the one script that
writes the reference.

With ``--rounds N`` it times instead. Each of N rounds runs
``benchmark/run.py --seconds S --seed K`` per workload from three checkouts:
BASE, an A/A ``git clone`` of BASE (its committed files, in the temporary
directory) and this one (HEAD), in an order that rotates by one side each
round, so that no side always runs first. Per workload and end-to-end metric
it prints each side's median and quartiles, the rounds in which HEAD beat
BASE (by ``BENCHMARK.json``'s direction for the metric), and the A/A offset,
the A/A median less BASE's. A gap between HEAD's and BASE's medians counts as
resolved only where it is larger than both BASE's interquartile range and the
A/A offset: two copies of one commit can read apart by several percent. Exits
1 if a benchmark run fails or reports a failed check. S defaults to
``BENCHMARK.json``'s ``run_seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

from common import use_checkout_sources  # noqa: E402
from run import REFERENCE_FILE, VARIANTS, WORKLOADS, check_reference  # noqa: E402

SAME_BYTES_VARIANTS = (0, 5)
SIDES = ("BASE", "A/A", "HEAD")
OUTPUTS = {  # command: the directory it writes into, under a run's work directory, and its files
    "synth": ("input", ("model.json", "model.st", "calib.st")),
    "compress": ("out", ("model.json", "model.st", "plan.json", "traces.csv")),
    "eval": ("out", ("report.json",)),
}


def _lowrank(argv: list[str], checkout: Path | None, cwd: Path) -> None:
    """Run one CLI command: in this process, or on ``checkout``'s sources in a fresh one; SystemExit if it fails."""
    if checkout is None:
        from lowrank.cli import run_cli

        with contextlib.redirect_stdout(io.StringIO()):
            code, error = run_cli(argv), ""
    else:
        done = subprocess.run(
            [sys.executable, "-m", "lowrank", *argv], cwd=cwd, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        )
        code, error = done.returncode, done.stderr.strip()
    if code != 0:
        raise SystemExit(f"{checkout or 'this checkout'}: {argv[0]} exited {code}: {error}")


def _run(workload, variant: int, inputs: Path, work: Path, checkout: Path | None = None) -> None:
    """``synth`` into ``work/input``, then ``compress`` and ``eval`` of ``inputs`` into ``work/out``."""
    out = work / "out"
    work.mkdir(parents=True)
    _lowrank(workload.synth_argv(work / "input", variant), checkout, work)
    _lowrank(workload.compress_argv(inputs, out, variant), checkout, work)
    _lowrank(workload.eval_argv(inputs, out, out / "report.json"), checkout, work)


def _hashes(work: Path) -> dict[str, str]:
    """``command/file``: SHA-256 of every file a run wrote under ``work``."""
    return {f"{command}/{name}": hashlib.sha256((work / directory / name).read_bytes()).hexdigest()
            for command, (directory, names) in OUTPUTS.items() for name in names}


def _ranks(work: Path) -> dict[str, int | None]:
    """Full slot name: the rank the plan ``compress`` wrote under ``work`` chose (None: kept dense)."""
    plan = json.loads((work / "out" / "plan.json").read_text())
    return {f"blocks.{block['block_id']}.{slot}": rank
            for block in plan["blocks"] for slot, rank in block["ranks"].items()}


def rank_change(head: Path, base: Path) -> str:
    """The line "ranks identical", or one naming the first slot whose rank differs between two runs' plans.

    Both runs compress the same model, so their plans name the same slots. A
    rank of None is a slot kept dense.
    """
    ours, theirs = _ranks(head), _ranks(base)
    for slot, rank in ours.items():
        if theirs[slot] != rank:
            return f"rank of {slot} differs: {rank} here, {theirs[slot]} in BASE"
    return "ranks identical"


def compare(workloads, reference: dict, base: Path | None = None, variants=range(VARIANTS)) -> list[str]:
    """Print each miss, one line per compared variant and one per workload; return every problem.

    A reference miss is returned as ``workload/variant: message``, a file
    that differs from BASE's as ``workload/variant/command/file``.
    """
    problems = []
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        for name in workloads:
            workload, misses, worst = WORKLOADS[name], 0, 0.0
            for variant in variants:
                work = Path(tmp) / name / str(variant)
                head = work / "head"
                _run(workload, variant, head / "input", head)
                mse = json.loads((head / "out" / "report.json").read_text())["end_to_end"]["output_mse"]
                miss = check_reference(reference, name, variant, mse)
                if miss is not None:
                    misses += 1
                    problems.append(f"{name}/{variant}: {miss}")
                    print(f"{name} variant {variant}: {miss}", flush=True)
                expected = reference.get(name, {}).get(str(variant))
                if expected:
                    worst = max(worst, abs(mse - expected) / abs(expected))
                if base is not None and variant in SAME_BYTES_VARIANTS:
                    _run(workload, variant, head / "input", work / "base", base)
                    base_hashes = _hashes(work / "base")
                    differing = [f for f, digest in _hashes(head).items() if base_hashes[f] != digest]
                    problems += [f"{name}/{variant}/{f}" for f in differing]
                    print(f"{name} variant {variant}: "
                          + (f"differ in {', '.join(differing)}" if differing else "identical"), flush=True)
                    print(f"{name} variant {variant}: {rank_change(head, work / 'base')}", flush=True)
                shutil.rmtree(work)
            print(f"{name}: {len(variants) - misses}/{len(variants)} variants pass, "
                  f"max relative heldout_mse deviation {worst:.3g}", flush=True)
    return problems


def rotation(rounds: int) -> list[tuple[str, ...]]:
    """The order the sides run in, one tuple per round; each round starts one side later than the last."""
    return [SIDES[i % len(SIDES):] + SIDES[:i % len(SIDES)] for i in range(rounds)]


def bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict[str, float]:
    """One ``benchmark/run.py`` run from the root of ``checkout``: its end-to-end metrics.

    SystemExit if the run fails or any of its checks does.
    """
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise SystemExit(f"{checkout}: benchmark/run.py --workload {workload} failed: {done.stderr.strip()[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def time_rounds(workloads, rounds: int, seconds: float, seed: int, checkouts: dict[str, Path],
                runner=bench) -> dict[str, dict[str, list[dict[str, float]]]]:
    """Every workload's runs on every side, in ``rotation`` order: workload -> side -> one metrics dict per round."""
    runs = {name: {side: [] for side in SIDES} for name in workloads}
    for i, order in enumerate(rotation(rounds)):
        for name in workloads:
            for side in order:
                metrics = runner(checkouts[side], name, seconds, seed)
                runs[name][side].append(metrics)
                print(f"{name} round {i + 1}/{rounds} {side}: "
                      + " ".join(f"{metric}={value:.6g}" for metric, value in metrics.items()), flush=True)
    return runs


def summarize(name: str, runs: dict[str, list[dict[str, float]]], better: dict[str, str]) -> list[str]:
    """Per metric of one workload: each side's median and quartiles, HEAD's wins against BASE, and the verdict.

    ``better`` maps a metric to "lower" or "higher"; a metric it does not name
    is better lower. A tie is not a win.
    """
    lines = []
    for metric in runs["BASE"][0]:
        values = {side: np.array([r[metric] for r in runs[side]]) for side in SIDES}
        q1, mid, q3 = {}, {}, {}
        for side, v in values.items():
            q1[side], mid[side], q3[side] = np.percentile(v, [25, 50, 75])
        sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
        wins = int(np.sum(sign * values["HEAD"] < sign * values["BASE"]))
        gap, iqr, offset = mid["HEAD"] - mid["BASE"], q3["BASE"] - q1["BASE"], mid["A/A"] - mid["BASE"]
        relative = f" ({gap / mid['BASE']:+.1%})" if mid["BASE"] else ""
        lines.append(f"{name} {metric} ({better.get(metric, 'lower')} is better), {len(values['BASE'])} rounds:")
        lines += [f"  {side:<4} median {mid[side]:.6g}, quartiles {q1[side]:.6g} to {q3[side]:.6g}" for side in SIDES]
        lines.append(f"  HEAD better than BASE in {wins}/{len(values['BASE'])}; gap {gap:+.6g}{relative}, "
                     f"BASE IQR {iqr:.6g}, A/A offset {offset:+.6g}: "
                     + ("resolved" if abs(gap) > iqr and abs(gap) > abs(offset) else "not resolved"))
    return lines


def timing(workloads, base: Path, rounds: int, seconds: float | None, seed: int) -> None:
    """Clone BASE for the A/A side, time every workload over ``rounds`` rounds, and print the summaries."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"] if seconds is None else seconds
    with tempfile.TemporaryDirectory(prefix="compare-aa-") as tmp:
        aa = Path(tmp) / "aa"
        subprocess.run(["git", "clone", "--quiet", str(base), str(aa)], check=True)
        runs = time_rounds(workloads, rounds, seconds, seed, {"BASE": base, "A/A": aa, "HEAD": ROOT})
    for name in workloads:
        print("\n".join(summarize(name, runs[name], better)), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, nargs="?", help="root of a checkout to compare output bytes against")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, help="time N rounds of benchmark/run.py on BASE, an A/A clone and HEAD")
    p.add_argument("--seconds", type=float, help="each timed run's --seconds (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--seed", type=int, default=0, help="each timed run's --seed")
    args = p.parse_args(argv)
    if args.base is not None and not (args.base / "src" / "lowrank" / "__init__.py").is_file():
        p.error(f"no program sources at {args.base / 'src' / 'lowrank'}")
    if args.rounds is not None and (args.base is None or args.rounds < 1):
        p.error("--rounds needs BASE and N >= 1")
    workloads = args.workload or sorted(WORKLOADS)
    base = args.base.resolve() if args.base is not None else None
    if args.rounds is not None:
        timing(workloads, base, args.rounds, args.seconds, args.seed)
        return 0
    use_checkout_sources()
    reference = json.loads(REFERENCE_FILE.read_text())
    return 1 if compare(workloads, reference, base) else 0


if __name__ == "__main__":
    sys.exit(main())
