#!/usr/bin/env python3
"""Check that this checkout writes the same output bytes as another one.

    python3 scripts/same_outputs.py BASE [--workload NAME ...]

BASE is the root of another checkout of the project, for example a
``git clone`` of the parent commit. For variants 0 and 5 of each named
benchmark workload (all of them by default), synthesizes the inputs once into
a temporary directory. Then runs ``compress`` and ``eval --out`` in fresh
processes, once under ``PYTHONPATH=BASE/src`` and once under this checkout's
``src``, and compares the SHA-256 of ``model.st``, ``plan.json``,
``traces.csv`` and the eval report. Prints one line per variant and exits 1
on any difference. It writes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HEAD / "benchmark"))

from run import WORKLOADS  # noqa: E402

VARIANTS = (0, 5)
OUTPUTS = ("model.st", "plan.json", "traces.csv", "report.json")


def _lowrank(checkout: Path, argv: list[str], cwd: Path) -> None:
    """Run one CLI command on ``checkout``'s sources in a fresh process; SystemExit if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lowrank", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {argv[0]} exited {done.returncode}: {done.stderr.strip()}")


def _output_hashes(checkout: Path, workload, variant: int, inputs: Path, work: Path) -> dict[str, str]:
    out = work / "out"
    work.mkdir(parents=True)
    _lowrank(checkout, workload.compress_argv(inputs, out, variant), work)
    _lowrank(checkout, workload.eval_argv(inputs, out, out / "report.json"), work)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def compare(base: Path, head: Path, workloads, variants=VARIANTS) -> list[str]:
    """Print one line per variant; return ``workload/variant/file`` for every output that differs."""
    differences = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name in workloads:
            workload = WORKLOADS[name]
            for variant in variants:
                work = Path(tmp) / name / str(variant)
                _lowrank(head, workload.synth_argv(work / "input", variant), Path(tmp))
                base_hashes, head_hashes = (
                    _output_hashes(checkout, workload, variant, work / "input", work / label)
                    for label, checkout in (("base", base), ("head", head))
                )
                differing = [f for f in OUTPUTS if base_hashes[f] != head_hashes[f]]
                print(f"{name} variant {variant}: "
                      + (f"differ in {', '.join(differing)}" if differing else "identical"), flush=True)
                differences += [f"{name}/{variant}/{f}" for f in differing]
    return differences


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="root of the checkout to compare against")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    if not (args.base / "src" / "lowrank" / "__init__.py").is_file():
        p.error(f"no program sources at {args.base / 'src' / 'lowrank'}")
    return 1 if compare(args.base.resolve(), HEAD, args.workload or sorted(WORKLOADS)) else 0


if __name__ == "__main__":
    sys.exit(main())
