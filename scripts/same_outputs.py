#!/usr/bin/env python3
"""Check that this checkout writes the same output bytes as another one.

    python3 scripts/same_outputs.py BASE [--workload NAME ...]

BASE is the root of another checkout of the project, for example a
``git clone`` of the parent commit. For variants 0 and 5 of each named
benchmark workload (all of them by default), runs ``synth``, ``compress`` and
``eval --out`` in fresh processes, once under ``PYTHONPATH=BASE/src`` and once
under this checkout's ``src``, in a temporary directory, and compares the
SHA-256 of every file each command writes: ``synth``'s ``model.json``,
``model.st`` and ``calib.st``, ``compress``'s ``model.json``, ``model.st``,
``plan.json`` and ``traces.csv``, and the eval report. Both ``compress`` runs
read this checkout's ``synth`` outputs, so a difference in them is the
command's own. Prints one line per variant, naming each differing file with
the command that wrote it, and exits 1 on any difference. It writes nothing
outside its temporary directory.
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
OUTPUTS = {  # command: the files it writes
    "synth": ("model.json", "model.st", "calib.st"),
    "compress": ("model.json", "model.st", "plan.json", "traces.csv"),
    "eval": ("report.json",),
}


def _lowrank(checkout: Path, argv: list[str], cwd: Path) -> None:
    """Run one CLI command on ``checkout``'s sources in a fresh process; SystemExit if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "lowrank", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {argv[0]} exited {done.returncode}: {done.stderr.strip()}")


def _hashes(directory: Path, command: str) -> dict[str, str]:
    """``command/file``: SHA-256 of every file ``command`` wrote into ``directory``."""
    return {f"{command}/{name}": hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in OUTPUTS[command]}


def _output_hashes(checkout: Path, workload, variant: int, inputs: Path, work: Path) -> dict[str, str]:
    """Hashes of ``checkout``'s synth outputs, and of its compress and eval run on ``inputs``."""
    out = work / "out"
    work.mkdir(parents=True)
    _lowrank(checkout, workload.synth_argv(work / "input", variant), work)
    _lowrank(checkout, workload.compress_argv(inputs, out, variant), work)
    _lowrank(checkout, workload.eval_argv(inputs, out, out / "report.json"), work)
    return {**_hashes(work / "input", "synth"), **_hashes(out, "compress"), **_hashes(out, "eval")}


def compare(base: Path, head: Path, workloads, variants=VARIANTS) -> list[str]:
    """Print one line per variant; return ``workload/variant/command/file`` for every output that differs."""
    differences = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for name in workloads:
            workload = WORKLOADS[name]
            for variant in variants:
                work = Path(tmp) / name / str(variant)
                head_hashes = _output_hashes(head, workload, variant, work / "head" / "input", work / "head")
                base_hashes = _output_hashes(base, workload, variant, work / "head" / "input", work / "base")
                differing = [f for f in head_hashes if base_hashes[f] != head_hashes[f]]
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
