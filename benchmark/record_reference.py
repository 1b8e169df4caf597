#!/usr/bin/env python3
"""Record the held-out MSE reference of every workload variant.

    python3 benchmark/record_reference.py [--workload NAME ...]

Runs synth, compress and eval once per variant, in this process, and writes
the eval report's ``output_mse`` into benchmark/reference.json, keeping the
entries of workloads not named. The benchmark's correctness gate compares
every run against these values, so re-record only when a workload is added
or its inputs change, never to make a changed program pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

from common import use_checkout_sources
from run import REFERENCE_FILE, VARIANTS, WORK_ROOT, WORKLOADS, Workload


def record(workload: Workload, variants: int, work) -> dict[str, float]:
    from lowrank.cli import run_cli

    refs: dict[str, float] = {}
    for variant in range(variants):
        shutil.rmtree(work, ignore_errors=True)
        base, out, report = work / "input", work / "out", work / "report.json"
        for argv in (
            workload.synth_argv(base, variant),
            workload.compress_argv(base, out, variant),
            workload.eval_argv(base, out, report),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(argv)
            if code != 0:
                raise SystemExit(f"{workload.name} variant {variant}: {argv[0]} exited {code}")
        refs[str(variant)] = json.loads(report.read_text())["end_to_end"]["output_mse"]
        print(f"{workload.name} variant {variant}: heldout_mse {refs[str(variant)]!r}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    use_checkout_sources()
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        reference[name] = record(WORKLOADS[name], VARIANTS, WORK_ROOT / f"record-{name}")
        REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
