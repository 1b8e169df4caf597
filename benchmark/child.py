"""Run one lowrank CLI command in a fresh process and report how it went.

Usage: python3 benchmark/child.py '<spec JSON>'

The spec holds ``argv`` (the CLI arguments), ``repeats`` and ``min_seconds``
(the command runs at least ``repeats`` times and until ``min_seconds`` of
command time have passed), ``trace`` (wrap the layers while it runs) and
``result`` (where to write the report). A fresh process per command makes its
peak RSS that of the command alone, not of the generator or of other commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from common import blas_info, use_checkout_sources
from tracer import Tracer, span_to_json


def run_commands(argv: list[str], repeats: int, min_seconds: float, trace: bool) -> dict:
    """Call ``run_cli(argv)`` repeatedly in this process; time each call."""
    from lowrank.cli import run_cli

    seconds: list[float] = []
    codes: list[int] = []
    tracer = Tracer() if trace else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    with tracer if tracer is not None else contextlib.nullcontext():
        while len(seconds) < repeats or sum(seconds) < min_seconds:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = run_cli(argv)
                seconds.append(time.perf_counter() - start)
            codes.append(code)
            if code != 0:
                break
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "seconds": seconds,
        "codes": codes,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "blas": blas_info(),
        "spans": [span_to_json(s) for s in tracer.spans] if tracer is not None else [],
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    use_checkout_sources()
    report = run_commands(spec["argv"], spec["repeats"], spec["min_seconds"], spec["trace"])
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
