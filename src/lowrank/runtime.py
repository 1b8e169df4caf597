"""Process-wide runtime controls: each loaded OpenBLAS's thread count, and glibc's malloc arenas.

numpy and scipy each bundle their own OpenBLAS (scipy's loads only once a gelu
model runs), and each reads its thread count from the environment once, when
it loads. ``blas_controls`` finds every loaded copy through ``/proc/self/maps``
and binds its exported getter and setter, so a stage can change the count at
run time (``threadpoolctl`` does the same, but is not a dependency). Where no
OpenBLAS can be found, for example off Linux, the list is empty.
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass
from typing import Callable

M_ARENA_MAX = -8  # glibc mallopt parameter number

_arenas_capped = False


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


def cap_malloc_arenas() -> None:
    """Make all threads share glibc's main malloc arena; acts once per process.

    Each thread that allocates while another holds the main arena gets an
    arena of its own, which keeps its freed temporaries, so a slot pool would
    otherwise raise peak RSS. Skipped where ``MALLOC_ARENA_MAX`` is set (glibc
    has then read the user's cap) or the C library has no ``mallopt``.
    """
    global _arenas_capped
    if _arenas_capped:
        return
    _arenas_capped = True
    if "MALLOC_ARENA_MAX" in os.environ or not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_ARENA_MAX, 1)
