"""Reference oracles the tests check the program against.

Each keeps the textbook form of something the program computes another way:
the plain truncated SVD (the program takes the init from one symmetric
eigendecomposition, ``compensation.initialize_pair``), the Moore-Penrose
pseudoinverse from a thin SVD (the program's V-refit orthonormalizes a basis
of span(U') with one QR, ``compensation.v_step``, and its U-refit inverts a
symmetric matrix from its eigenpairs, ``EighFactors.pinv``), the data-space
loss in its direct form on the input Gram G (the program reads every loss off
the product Y = H_r @ Q of its refit rounds), the lift of a pair through an
explicit Q = W @ pinv(R) (the program forms no Q: it lifts a tall slot's U'
as W @ (R.T @ (diag(1 / s ** 2) @ U')), ``SquareProblem.lift``), a forward
over one sample (the program walks one (samples, tokens, d) array,
``model.walk_blocks``), and one ``np.mean`` per bucket (the program sums all
buckets one group position at a time, ``calibration.stack_of_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lowrank.compensation import _check_gram, square_problem
from lowrank.errors import NumericalError, RankError, ShapeError
from lowrank.linalg import LowRankPair
from lowrank.model import ModelHandle, walk_blocks


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``a = u @ diag(sigma) @ vt`` with sigma non-increasing."""

    u: np.ndarray        # m x r
    sigma: np.ndarray    # r, non-negative, sorted descending
    vt: np.ndarray       # r x n


def svd_full(a: np.ndarray) -> SvdFactors:
    """Thin SVD of a finite-valued matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, sigma=s, vt=vt)


def pinv(a: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a finite-valued matrix via its thin SVD.

    Singular values ``sigma_i <= max(max(m, n) * eps * sigma_max, atol)`` are
    treated as exactly zero; an all-zero matrix yields the zero n x m matrix.
    """
    f = svd_full(a)
    top = f.sigma[0] if f.sigma.size else 0.0
    keep = f.sigma > max(max(f.u.shape[0], f.vt.shape[1]) * np.finfo(np.float64).eps * top, atol)
    inverse = np.zeros_like(f.sigma)
    inverse[keep] = 1.0 / f.sigma[keep]
    return (f.vt.T * inverse) @ f.u.T


def truncate_absorb(f: SvdFactors, k: int) -> LowRankPair:
    """Keep the top-k singular triplets and absorb ``sqrt(sigma_k)`` into both factors."""
    r = f.sigma.shape[0]
    if not 1 <= k <= r:
        raise RankError(f"rank {k} outside [1, {r}]")
    root = np.sqrt(f.sigma[:k])
    return LowRankPair(u_sigma=f.u[:, :k] * root, vt_sigma=root[:, None] * f.vt[:k, :])


def svd_loss(pair: LowRankPair, w: np.ndarray, g: np.ndarray) -> float:
    """tr(E @ G @ E.T) with E = U @ Vt - W: the squared norm of (U @ Vt - W) @ X."""
    m, n = w.shape
    if pair.u_sigma.shape[0] != m or pair.vt_sigma.shape[1] != n:
        raise ShapeError(f"factor pair {pair.shape} does not match matrix {w.shape}")
    _check_gram(g, n)
    e = pair.product() - w
    return float(np.sum((e @ g) * e))


def plain_truncation_loss(w: np.ndarray, g: np.ndarray, k: int) -> float:
    """Data-space loss of unwhitened, uncompensated rank-k truncation (baseline), on the input Gram G."""
    return svd_loss(truncate_absorb(svd_full(w), k), w, g)


def explicit_q_lift(w: np.ndarray, u: np.ndarray, coords: np.ndarray) -> LowRankPair:
    """The pair U = Q @ U', Vt = M @ R of factor U' and coordinates M, through an explicit Q.

    R is the one ``square_problem`` takes and Q = W @ pinv(R); Q = I and R = W
    when m <= n. The columns keep the signs they have.
    """
    m, n = w.shape
    if m <= n:
        return LowRankPair(u_sigma=u.copy(), vt_sigma=coords @ w)
    r = square_problem(w, np.eye(n)).r
    return LowRankPair(u_sigma=w @ pinv(r) @ u, vt_sigma=coords @ r)


def forward(model: ModelHandle, sample: np.ndarray) -> np.ndarray:
    """Full forward over one sample (tokens x d); returns the final (tokens x d) output.

    Raises NumericalError naming the first block whose output is non-finite.
    """
    return walk_blocks(model, np.asarray(sample)[None]).T


def bucket_means(samples: np.ndarray, m_buckets: int, seed: int) -> tuple[np.ndarray, list[int]]:
    """``stack_of_batch``'s buckets and counts, one ``np.mean`` over each bucket's shuffled samples."""
    samples = np.asarray(samples, dtype=np.float64)
    order = np.random.default_rng(seed).permutation(len(samples))
    parts = np.array_split(order, min(len(samples), m_buckets))
    buckets = np.empty((len(parts),) + samples.shape[1:])
    for bucket, part in zip(buckets, parts):
        np.mean(samples[part], axis=0, out=bucket)
    return buckets, [len(part) for part in parts]
