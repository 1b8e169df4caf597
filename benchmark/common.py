"""Shared helpers: locate the checkout's sources and record the environment."""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LOWRANK_THREADS")


class CheckoutError(Exception):
    """The benchmark is not running from a checkout that holds the program's sources."""


def use_checkout_sources() -> None:
    """Make ``import lowrank`` resolve to ``src/lowrank`` of this checkout, or raise.

    An installed copy elsewhere must never be benchmarked in its place.
    """
    package = SRC / "lowrank"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no program sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lowrank

    if Path(lowrank.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"lowrank imported from {lowrank.__file__}, not from {package}")


def _openblas_libraries() -> list[tuple[str, ctypes.CDLL]]:
    """OpenBLAS builds loaded into this process (numpy and scipy each bundle one)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append((path, ctypes.CDLL(path)))
        except OSError:
            continue
    return libs


def _blas_symbol(lib: ctypes.CDLL, stem: str):
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def blas_info() -> list[dict]:
    """Runtime configuration and thread count of every loaded OpenBLAS."""
    out = []
    for path, lib in _openblas_libraries():
        config, threads = _blas_symbol(lib, "get_config"), _blas_symbol(lib, "get_num_threads")
        if config is None or threads is None:
            continue
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        out.append({
            "library": Path(path).name,
            "config": config().decode("utf-8", "replace").strip(),
            "threads": int(threads()),
        })
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    """What the timings depend on; the thread variables are recorded, never set."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
