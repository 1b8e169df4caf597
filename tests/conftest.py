import os

# One BLAS thread at load: the test matrices are small enough that BLAS thread
# spin-up would dominate otherwise (and timings get noisy). This fixes only the
# count that code outside the pool stages runs with, such as planning; the
# calibration walk, eval's held-out walk and the slot refits are pool stages
# that set their own count at run time (see pipeline._pool_stage), never above
# this one, and restore it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blas_threads():
    """``set_threads(n)`` puts every loaded OpenBLAS at n threads and returns their controls.

    Each library's count is put back after the test. Skips the test where no
    OpenBLAS can be controlled, or where one refuses n threads.
    """
    from lowrank.runtime import blas_controls

    controls = blas_controls()
    if not controls:
        pytest.skip("no controllable OpenBLAS loaded")
    previous = [c.get() for c in controls]

    def set_threads(n):
        for c in controls:
            c.set(n)
        if any(c.get() != n for c in controls):
            pytest.skip(f"an OpenBLAS refused {n} threads")
        return controls

    try:
        yield set_threads
    finally:
        for c, n in zip(controls, previous):
            c.set(n)


class MalloptCalls(list):
    rejected: set[int]


@pytest.fixture
def mallopt_calls(monkeypatch):
    """``runtime.apply_heap_policy`` as in a fresh process, with a fake ``mallopt`` that records its calls.

    The fake accepts a parameter unless its number is in ``calls.rejected``.
    No ``MALLOC_*`` variable of the heap policy and no ``GLIBC_TUNABLES`` is set.
    """
    import types

    from lowrank import runtime

    calls = MalloptCalls()
    calls.rejected = set()

    def mallopt(param, value):
        calls.append((param, value))
        return 0 if param in calls.rejected else 1

    monkeypatch.setattr(runtime.ctypes, "CDLL", lambda path: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(runtime, "_heap_policy", None)
    monkeypatch.setattr(runtime.sys, "platform", "linux")
    for variable in ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(variable, raising=False)
    return calls
