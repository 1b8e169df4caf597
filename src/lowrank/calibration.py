"""Calibration products: sample bucketing and Gram accumulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ShapeError


@dataclass
class BucketedCalib:
    """Calibration samples averaged into at most M buckets.

    ``buckets`` is one (buckets, tokens, d) array, and ``counts`` holds how
    many source samples each bucket averages. Every source sample lands in
    exactly one bucket, so ``sum(counts)`` is N, and ``max(counts)`` is
    ceil(N / M): when M does not divide N the later buckets average one
    sample fewer.
    """

    buckets: np.ndarray
    counts: list[int]


def stack_of_batch(samples: np.ndarray, m_buckets: int, seed: int) -> BucketedCalib:
    """Shuffle samples with a seeded permutation and average them into buckets.

    ``samples`` is a (samples, tokens, d) array, or a list of equal-shape
    samples; a ragged list is a ShapeError. Produces min(N, M) buckets. With
    N >= M the first N mod M buckets average ceil(N/M) consecutive shuffled
    samples and the rest average floor(N/M), so all M buckets are filled; with
    M | N this is plain consecutive chunks of size N/M.

    Each bucket has the bits of ``np.mean`` over its samples: their sum in
    order, divided by the count. The sums are formed one group position at a
    time over all buckets (gather every bucket's j-th sample, add it in place),
    so the only temporary is one gather, and a one-sample bucket is its
    sample as is (x / 1 is x).
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
    n_buckets = min(n, m_buckets)
    # np.array_split's sizes: the first n mod M buckets hold one sample more
    counts = np.full(n_buckets, n // n_buckets)
    counts[: n % n_buckets] += 1
    starts = np.cumsum(counts) - counts
    buckets = samples[order[starts]]
    for j in range(1, counts[0]):
        held = np.count_nonzero(counts > j)  # only the first buckets hold a sample at position j
        buckets[:held] += samples[order[starts[:held] + j]]
    several = np.count_nonzero(counts > 1)
    buckets[:several] /= counts[:several, None, None]
    return BucketedCalib(buckets=buckets, counts=counts.tolist())


class Calibration(NamedTuple):
    """The calibration product: what later stages read of the walk.

    ``grams`` holds every slot's Gram matrix on its narrow side, keyed by full
    slot name: X @ X.T of its inputs for a tall slot (m >= n), Y @ Y.T of
    its outputs Y = W @ X for a wide one. ``mean_diag`` holds the mean
    diagonal of every slot's input Gram X @ X.T, ||X||_F^2 / n, which sets
    the whitening damping: trace(G) / n of a tall slot's Gram, and for a
    wide slot the chunks' ||X||_F^2 / n summed over the walk. ``importances``
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
    checked: |G_ij| <= max(G_ii, G_jj), so a finite diagonal bounds the rest,
    and a NaN or inf in row i makes G_ii non-finite. So X itself is scanned
    only when the diagonal is not finite, to tell the two errors apart.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.flags.c_contiguous or x.flags.f_contiguous):
        x = np.ascontiguousarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T
    if not np.all(np.isfinite(np.diagonal(gram))):
        if np.all(np.isfinite(x)):
            raise NumericalError("activations overflow")
        raise NumericalError("non-finite activations")
    return gram


__all__ = [
    "BucketedCalib",
    "Calibration",
    "stack_of_batch",
    "gram_accumulate",
]
