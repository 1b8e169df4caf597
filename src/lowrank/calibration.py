"""Calibration products: sample bucketing and Gram accumulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .container import save_container
from .errors import NumericalError, ShapeError


@dataclass
class BucketedCalib:
    """Calibration samples averaged into at most M buckets.

    ``buckets`` is one (buckets, tokens, d) array. ``mini_bsz = ceil(N / M)``
    is the nominal samples-per-bucket; when M does not divide N the later
    buckets average fewer samples (counts records the actual sizes). Every
    source sample lands in exactly one bucket.
    """

    buckets: np.ndarray
    mini_bsz: int
    source_count: int
    counts: list[int] = field(default_factory=list)


def stack_of_batch(samples: np.ndarray, m_buckets: int, seed: int) -> BucketedCalib:
    """Shuffle samples with a seeded permutation and average them into buckets.

    ``samples`` is a (samples, tokens, d) array, or a list of equal-shape
    samples; a ragged list is a ShapeError. Produces min(N, M) buckets. With
    N >= M the first N mod M buckets average ceil(N/M) consecutive shuffled
    samples and the rest average floor(N/M), so all M buckets are filled; with
    M | N this is plain consecutive chunks of size N/M.
    """
    try:
        samples = np.asarray(samples, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"calibration samples differ in shape: {exc}") from None
    n = len(samples)
    if n < 1:
        raise ShapeError("need at least one calibration sample")
    if m_buckets < 1:
        raise ShapeError(f"bucket count must be >= 1, got {m_buckets}")
    if seed < 0:
        raise ShapeError(f"seed must be >= 0, got {seed}")

    order = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(order, min(n, m_buckets))
    buckets = np.empty((len(parts),) + samples.shape[1:])
    for bucket, part in zip(buckets, parts):
        np.mean(samples[part], axis=0, out=bucket)
    counts = [len(part) for part in parts]
    return BucketedCalib(buckets=buckets, mini_bsz=math.ceil(n / m_buckets), source_count=n, counts=counts)


class Calibration(NamedTuple):
    """The calibration product: what later stages read of the walk.

    ``grams`` holds every slot's Gram matrix on its narrow side, keyed by full
    slot name: X @ X.T of its inputs for a tall slot (m >= n), Y @ Y.T of
    its outputs Y = W @ X for a wide one. ``mean_diag`` holds the mean
    diagonal of every slot's input Gram X @ X.T, ||X||_F^2 / n summed over
    the walk's chunks, which sets the whitening damping. ``importances``
    holds the mean column cosine of every block, keyed by id.
    """

    grams: dict[str, np.ndarray]
    mean_diag: dict[str, float]
    importances: dict[int, float]


def gram_accumulate(x: np.ndarray) -> np.ndarray:
    """Second-moment matrix X @ X.T of an (n x T) activation matrix, exactly symmetric.

    On a C- or F-contiguous operand numpy computes ``x @ x.T`` with one BLAS
    ``syrk`` and mirrors its triangle, so no symmetrization is needed. Any
    other operand is copied to C order first.

    Raises NumericalError "non-finite activations" for a NaN or inf in X,
    and "activations overflow" when a row's sum of squares exceeds the float
    range. The product is formed with overflow ignored and only its diagonal
    checked: |G_ij| <= max(G_ii, G_jj), so a finite diagonal bounds the rest.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = np.ascontiguousarray(x)
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite activations")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
    if not np.all(np.isfinite(np.diagonal(gram))):
        raise NumericalError("activations overflow")
    return gram


def dump_activations(calibration: Calibration, path: str | Path) -> None:
    """Debug dump of a calibration product as a tensor container.

    Writes ``block.<id>.importance`` (shape (1,)) per block, and
    ``slot.<slot name>.gram`` and ``slot.<slot name>.mean_diag`` (shape (1,))
    per slot.
    """
    tensors: dict[str, np.ndarray] = {}
    for bid, importance in sorted(calibration.importances.items()):
        tensors[f"block.{bid}.importance"] = np.array([importance])
    for name, g in calibration.grams.items():
        tensors[f"slot.{name}.gram"] = g
        tensors[f"slot.{name}.mean_diag"] = np.array([calibration.mean_diag[name]])
    save_container(path, tensors)


__all__ = [
    "BucketedCalib",
    "Calibration",
    "stack_of_batch",
    "gram_accumulate",
    "dump_activations",
]
