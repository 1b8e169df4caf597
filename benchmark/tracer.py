"""Span tracer for the benchmark's traced run.

The program is not edited. While a ``Tracer`` is active, each function in
``TARGETS`` is replaced by a timing wrapper under the module-level name its
caller looks it up by, and the original object is put back on exit. A call
that goes through a name not listed here (for example ``pinv`` calling
``svd_full`` inside ``lowrank.linalg``) stays inside its caller's span, so
``linalg.pinv`` covers its own SVD and ``linalg.svd`` is the initial SVD only.

Every span records its name, start, end, parent span and thread id. Parents
are tracked per thread, so spans of the slot workers nest within their own
thread, and self time (duration minus direct children) is computed per thread.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

MB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    queued: float | None = None  # pool tasks: when the task was submitted
    counts: dict[str, float] = field(default_factory=dict)


# --- counters computed from arguments and results ----------------------------
# Flop counts are computed from shapes with textbook formulas (Golub & Van Loan,
# Matrix Computations): they count work, not measured hardware operations.


def _svd_flops(m: int, n: int) -> float:
    """Thin SVD with both singular-vector sets: 14*m*n^2 + 8*n^3 for m >= n."""
    m, n = max(m, n), min(m, n)
    return 14.0 * m * n * n + 8.0 * n**3


def _count_gram_factor(args, kwargs, result):
    n = np.shape(args[0])[0]
    return {"flop": 9.0 * n**3}  # symmetric eigendecomposition with eigenvectors


def _count_cholesky(args, kwargs, result):
    n = np.shape(args[0])[0]
    return {"flop": n**3 / 3.0 + float(n) ** 3}  # factor, then inverse by triangular solve


def _count_svd(args, kwargs, result):
    m, n = np.shape(args[0])
    return {"flop": _svd_flops(m, n)}


def _count_pinv(args, kwargs, result):
    m, n = np.shape(args[0])
    return {"flop": _svd_flops(m, n) + 2.0 * m * n * min(m, n)}  # SVD, then V S^-1 U^T


def _count_file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / MB}


def _count_forward_tokens(args, kwargs, result):
    return {"tokens": float(np.shape(args[1])[0])}


def _count_captured_mb(args, kwargs, result):
    return {"mb": array_bytes(result) / MB}


def array_bytes(obj, seen: set[int] | None = None) -> int:
    """Sum of ``nbytes`` of the distinct arrays reachable from obj."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


# (caller module, name looked up there, span name, counter)
CONTAINER_TARGETS = [
    ("lowrank.model", "load_container", "container.load", _count_file_mb),
    ("lowrank.model", "save_container", "container.save", _count_file_mb),
    ("lowrank.calibration", "save_container", "container.save", _count_file_mb),
]
TARGETS = CONTAINER_TARGETS + [
    ("lowrank.cli", "load_model", "model.load", None),
    ("lowrank.cli", "load_calibration", "model.load", None),
    ("lowrank.pipeline", "load_calibration", "model.load", None),
    ("lowrank.pipeline", "forward", "model.forward", _count_forward_tokens),
    ("lowrank.cli", "stack_of_batch", "calibration.stack_of_batch", None),
    ("lowrank.pipeline", "stack_of_batch", "calibration.stack_of_batch", None),
    ("lowrank.cli", "capture_activations", "calibration.capture", _count_captured_mb),
    ("lowrank.pipeline", "capture_activations", "calibration.capture", _count_captured_mb),
    ("lowrank.pipeline", "gram_accumulate", "calibration.gram", None),
    ("lowrank.cli", "build_plan", "allocation.build_plan", None),
    ("lowrank.pipeline", "build_plan", "allocation.build_plan", None),
    ("lowrank.pipeline", "gram_factor", "linalg.gram_factor", _count_gram_factor),
    ("lowrank.pipeline", "cholesky_damped", "linalg.cholesky", _count_cholesky),
    ("lowrank.compensation", "svd_full", "linalg.svd", _count_svd),
    ("lowrank.compensation", "pinv", "linalg.pinv", _count_pinv),
    ("lowrank.pipeline", "compensate", "compensation.compensate", None),
    ("lowrank.compensation", "update_u", "compensation.update_u", None),
    ("lowrank.compensation", "update_v", "compensation.update_v", None),
    ("lowrank.pipeline", "ThreadPoolExecutor", "pipeline.slot", None),
    ("lowrank.cli", "compress_model", "pipeline.compress_model", None),
    ("lowrank.cli", "eval_compression", "pipeline.eval_compression", None),
    ("lowrank.cli", "save_model", "cli.write_outputs", None),
    ("lowrank.cli", "write_json", "cli.write_outputs", None),
    ("lowrank.cli", "write_traces_csv", "cli.write_outputs", None),
]


class Tracer:
    """Context manager that wraps ``targets`` on entry and restores them on exit.

    A target whose module or name no longer exists is skipped, so its span
    simply never appears.
    """

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self._targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name, count in self._targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self._wrap(original, span_name, count))
                self._saved.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(
                id=next(self._ids),
                name=name,
                thread=threading.get_ident(),
                parent=stack[-1].id if stack else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, original, name: str, count):
        if isinstance(original, type):
            return self._traced_pool(original, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced

    def _traced_pool(self, pool_class: type, name: str) -> type:
        """Executor subclass that records one span per task, with its submit time."""
        tracer = self

        class TracedPool(pool_class):
            def submit(self, fn, /, *args, **kwargs):
                queued = time.perf_counter()

                def task(*a, **k):
                    span = tracer._open(name)
                    span.queued = queued
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._close(span)

                return super().submit(task, *args, **kwargs)

        TracedPool.__name__ = TracedPool.__qualname__ = pool_class.__name__
        return TracedPool


# --- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[tuple[int, str], float]:
    """Self time per (thread, span name): duration minus the direct children's.

    Children always run on their parent's thread, so this is per-thread time.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[tuple[int, str], float] = defaultdict(float)
    for s in spans:
        out[(s.thread, s.name)] += (s.end - s.start) - child[s.id]
    return dict(out)


def span_to_json(span: Span) -> dict:
    return dataclasses.asdict(span)


def span_from_json(doc: dict) -> Span:
    return Span(**doc)
