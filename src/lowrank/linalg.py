"""Dense linear-algebra kernels: SVD, truncation, pseudoinverse, rank budget."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankError


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``a = u @ diag(sigma) @ vt`` with sigma non-increasing."""

    u: np.ndarray        # m x r
    sigma: np.ndarray    # r, non-negative, sorted descending
    vt: np.ndarray       # r x n


@dataclass(frozen=True)
class LowRankPair:
    """Two absorbed factors replacing a dense matrix: ``w_hat = u_sigma @ vt_sigma``."""

    u_sigma: np.ndarray   # m x k
    vt_sigma: np.ndarray  # k x n

    @property
    def rank(self) -> int:
        return self.u_sigma.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u_sigma.shape[0], self.vt_sigma.shape[1])

    def product(self) -> np.ndarray:
        return self.u_sigma @ self.vt_sigma

    def param_count(self) -> int:
        return self.u_sigma.size + self.vt_sigma.size


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


def truncate_absorb(f: SvdFactors, k: int) -> LowRankPair:
    """Keep the top-k singular triplets and absorb ``sqrt(sigma_k)`` into both factors."""
    r = f.sigma.shape[0]
    if not 1 <= k <= r:
        raise RankError(f"rank {k} outside [1, {r}]")
    root = np.sqrt(f.sigma[:k])
    return LowRankPair(u_sigma=f.u[:, :k] * root, vt_sigma=root[:, None] * f.vt[:k, :])


def pinv(a: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values ``sigma_i <= max(max(m, n) * eps * sigma_max, atol)`` are
    treated as exactly zero; an all-zero matrix yields the zero n x m matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    f = svd_full(a)
    sigma_max = f.sigma[0] if f.sigma.size else 0.0
    cutoff = max(max(m, n) * np.finfo(np.float64).eps * sigma_max, atol)
    keep = f.sigma > cutoff
    inv_sigma = np.zeros_like(f.sigma)
    inv_sigma[keep] = 1.0 / f.sigma[keep]
    return (f.vt.T * inv_sigma) @ f.u.T


def rank_for_retention(m: int, n: int, r: float) -> int:
    """Largest rank whose factor pair stays within a retention-ratio parameter budget.

    k = floor(r * m * n / (m + n)), clamped to [1, min(m, n)], so that
    k * (m + n) <= r * m * n + (m + n).
    """
    if m < 1 or n < 1:
        raise RankError(f"matrix dims must be positive, got {m}x{n}")
    if not 0.0 < r <= 1.0:
        raise RankError(f"retention ratio must lie in (0, 1], got {r}")
    k = math.floor(r * m * n / (m + n))
    return max(1, min(k, min(m, n)))
