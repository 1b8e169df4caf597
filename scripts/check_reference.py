#!/usr/bin/env python3
"""Check every workload variant's held-out MSE against the benchmark's reference.

    python3 scripts/check_reference.py [--workload NAME ...]

Runs synth, compress and eval once per variant of each named workload (all
of them by default), in this process, in a temporary directory, through
``benchmark/record_reference.py``'s ``record``, and compares each eval
report's ``output_mse`` with ``benchmark/reference.json`` through the
benchmark's own gate. Prints the largest relative deviation per workload
and exits 1 if any variant misses the gate. It only reads the reference;
``benchmark/record_reference.py`` is the one script that writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

from common import use_checkout_sources  # noqa: E402
from record_reference import record  # noqa: E402
from run import REFERENCE_FILE, VARIANTS, WORKLOADS, check_reference  # noqa: E402


def check(name: str, variants: int, reference: dict) -> int:
    """Print each miss and the largest relative deviation; return the number of misses."""
    with tempfile.TemporaryDirectory(prefix="check-reference-") as tmp:
        refs = record(WORKLOADS[name], variants, Path(tmp) / name)
    misses, worst = 0, 0.0
    for variant, mse in refs.items():
        miss = check_reference(reference, name, int(variant), mse)
        if miss is not None:
            misses += 1
            print(f"{name} variant {variant}: {miss}", flush=True)
        expected = reference.get(name, {}).get(variant)
        if expected:
            worst = max(worst, abs(mse - expected) / abs(expected))
    print(f"{name}: {variants - misses}/{variants} variants pass, "
          f"max relative heldout_mse deviation {worst:.3g}", flush=True)
    return misses


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    use_checkout_sources()
    reference = json.loads(REFERENCE_FILE.read_text())
    misses = sum(check(name, VARIANTS, reference) for name in args.workload or sorted(WORKLOADS))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
