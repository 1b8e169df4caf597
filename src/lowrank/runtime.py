"""Process-wide runtime controls: each loaded OpenBLAS's thread count, and glibc's heap policy.

numpy and scipy each bundle their own OpenBLAS (scipy's loads only once a gelu
model runs), and each reads its thread count from the environment once, when
it loads. ``blas_controls`` finds every loaded copy through ``/proc/self/maps``
and binds its exported getter and setter, so a stage can change the count at
run time (``threadpoolctl`` does the same, but is not a dependency). Where no
OpenBLAS can be found, for example off Linux, the list is empty.

``apply_heap_policy`` sets three ``mallopt`` parameters, once per process:
one malloc arena for all threads, an mmap threshold fixed at 32 MiB (the
ceiling of glibc's dynamic threshold on 64-bit) and no trimming. By default
glibc gives each thread that allocates while another holds the main arena an
arena of its own, serves a block above its mmap threshold by a fresh
``mmap`` that ``free`` unmaps (the threshold only rises once such a block
is freed), and trims the heap's free top back to the kernel. A walk's or an
eval's activation chunks are such blocks, so each chunk faulted its pages
in anew. Under the policy every temporary below 32 MiB comes from one
heap that stays mapped, and the next task reuses its pages. No arithmetic
changes. The cost: a long-lived process keeps its high-water heap mapped
until it exits. A parameter the user has set, in its ``MALLOC_*``
variable or its ``glibc.malloc.*`` entry of ``GLIBC_TUNABLES``, is left as
glibc read it.
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass
from typing import Callable

# glibc's mallopt parameter numbers, with the policy's value for each and the
# environment variable and GLIBC_TUNABLES entry by which a user sets it.
HEAP_POLICY = (
    (-8, 1, "MALLOC_ARENA_MAX", "glibc.malloc.arena_max"),  # M_ARENA_MAX
    (-3, 32 << 20, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),  # M_MMAP_THRESHOLD
    (-1, -1, "MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),  # M_TRIM_THRESHOLD; -1: never trim
)

_heap_policy: dict[str, int] | None = None  # variable: value of each parameter set, once applied


@dataclass(frozen=True)
class BlasControl:
    """Thread count getter and setter of one loaded OpenBLAS."""

    library: str
    get: Callable[[], int]
    set: Callable[[int], None]


def blas_controls() -> list[BlasControl]:
    """Every loaded OpenBLAS that exports a thread count getter and setter."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.rstrip("\n").split(maxsplit=5)  # the path may hold spaces
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    paths.add(fields[5])
    except OSError:
        return []
    return [control for control in map(_bind, sorted(paths)) if control is not None]


def _bind(path: str) -> BlasControl | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    # numpy's ILP64 build suffixes its symbols with 64_; scipy's wheels prefix scipy_.
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return BlasControl(os.path.basename(path), get, set_)
    return None


def apply_heap_policy() -> dict[str, int]:
    """Set each ``HEAP_POLICY`` parameter the user has not; acts once per process.

    Returns the parameters in force, by environment variable, and the same
    dict on every later call. A parameter is skipped where its variable is
    set or ``GLIBC_TUNABLES`` names its entry (glibc has then read the
    user's value), and left out where ``mallopt`` rejects it (returns 0).
    Nothing is set off Linux or where the C library has no ``mallopt``.
    """
    global _heap_policy
    if _heap_policy is not None:
        return _heap_policy
    _heap_policy = {}
    if not sys.platform.startswith("linux"):
        return _heap_policy
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return _heap_policy
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    tunables = {entry.split("=")[0] for entry in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    for param, value, variable, tunable in HEAP_POLICY:
        if variable not in os.environ and tunable not in tunables and mallopt(param, value):
            _heap_policy[variable] = value
    return _heap_policy
