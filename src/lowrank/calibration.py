"""Calibration products: sample bucketing and Gram accumulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .container import save_container
from .errors import NumericalError, ShapeError


@dataclass
class BucketedCalib:
    """Calibration samples averaged into at most M buckets.

    ``mini_bsz = ceil(N / M)`` is the nominal samples-per-bucket; when M does
    not divide N the later buckets average fewer samples (counts records the
    actual sizes). Every source sample lands in exactly one bucket.
    """

    buckets: list[np.ndarray]
    mini_bsz: int
    source_count: int
    counts: list[int] = field(default_factory=list)


def stack_of_batch(samples: Sequence[np.ndarray] | np.ndarray, m_buckets: int, seed: int) -> BucketedCalib:
    """Shuffle samples with a seeded permutation and average them into buckets.

    Produces min(N, M) buckets. With N >= M the first N mod M buckets average
    ceil(N/M) consecutive shuffled samples and the rest average floor(N/M), so
    all M buckets are filled; with M | N this is plain consecutive chunks of
    size N/M.
    """
    arrs = [np.asarray(s, dtype=np.float64) for s in samples]
    n = len(arrs)
    if n < 1:
        raise ShapeError("need at least one calibration sample")
    if m_buckets < 1:
        raise ShapeError(f"bucket count must be >= 1, got {m_buckets}")
    if seed < 0:
        raise ShapeError(f"seed must be >= 0, got {seed}")
    shape = arrs[0].shape
    for i, a in enumerate(arrs):
        if a.shape != shape:
            raise ShapeError(f"sample {i} has shape {a.shape}, expected {shape}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    mini_bsz = math.ceil(n / m_buckets)

    n_buckets = min(n, m_buckets)
    base, extra = divmod(n, n_buckets)
    buckets: list[np.ndarray] = []
    counts: list[int] = []
    pos = 0
    for k in range(n_buckets):
        size = base + (1 if k < extra else 0)
        chunk = [arrs[j] for j in order[pos : pos + size]]
        pos += size
        buckets.append(np.mean(chunk, axis=0) if size > 1 else chunk[0].copy())
        counts.append(size)
    return BucketedCalib(buckets=buckets, mini_bsz=mini_bsz, source_count=n, counts=counts)


def gram_accumulate(x: np.ndarray) -> np.ndarray:
    """Second-moment matrix X @ X.T of an (n x T) activation matrix, exactly symmetric.

    On a C- or F-contiguous operand numpy computes ``x @ x.T`` with one BLAS
    ``syrk`` and mirrors its triangle, so no symmetrization is needed. Any
    other operand is copied to C order first.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = np.ascontiguousarray(x)
    if not np.all(np.isfinite(x)):
        raise NumericalError("activations contain non-finite entries")
    return x @ x.T


def dump_activations(grams: dict[str, np.ndarray], importances: dict[int, float], path: str | Path) -> None:
    """Debug dump of a calibration product as a tensor container.

    Writes ``block.<id>.importance`` (shape (1,)) per block and
    ``slot.<slot name>.gram`` per slot.
    """
    tensors: dict[str, np.ndarray] = {}
    for bid, importance in sorted(importances.items()):
        tensors[f"block.{bid}.importance"] = np.array([importance])
    for name, g in grams.items():
        tensors[f"slot.{name}.gram"] = g
    save_container(path, tensors)


__all__ = [
    "BucketedCalib",
    "stack_of_batch",
    "gram_accumulate",
    "dump_activations",
]
