"""Dense linear-algebra kernels: Frobenius inner product and norm, symmetric eigh and its pseudoinverse, rank budget."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankError


@dataclass(frozen=True)
class EighFactors:
    """Symmetric eigendecomposition ``a = z @ diag(lam) @ z.T`` with |lam| non-increasing."""

    z: np.ndarray     # n x n, orthonormal columns
    lam: np.ndarray   # n, signed, sorted by |lam| descending

    def kept(self, atol: float = 0.0) -> np.ndarray:
        """Which eigenvalues ``pinv`` inverts: ``|lam_i| > max(n * eps * |lam|_max, atol)``."""
        top = abs(self.lam[0]) if self.lam.size else 0.0
        return np.abs(self.lam) > max(self.lam.shape[0] * np.finfo(np.float64).eps * top, atol)

    def pinv(self, atol: float = 0.0) -> np.ndarray:
        """Pseudoinverse ``z @ diag(1 / lam) @ z.T``, every eigenvalue not ``kept`` treated as exactly zero.

        This is the cutoff rule of the Moore-Penrose pseudoinverse of a
        matrix's thin SVD; an all-zero matrix yields the zero matrix.
        """
        keep = self.kept(atol)
        inverse = np.zeros_like(self.lam)
        inverse[keep] = 1.0 / self.lam[keep]
        return (self.z * inverse) @ self.z.T


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

    @property
    def size(self) -> int:
        """Stored parameter count, k * (m + n), as ``ndarray.size`` is m * n for a dense slot."""
        return self.u_sigma.size + self.vt_sigma.size

    def product(self) -> np.ndarray:
        return self.u_sigma @ self.vt_sigma

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """w_hat @ x, applied factor by factor without forming w_hat."""
        return self.u_sigma @ (self.vt_sigma @ x)


def frobenius_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product sum(a * b) of two equal-shape matrices, without a BLAS call or a temporary.

    An ``einsum``: a BLAS dot product splits a long sum across threads, so its
    bits could follow the thread count; this sum's do not. With ``b = a`` it
    is the sum of squares ||a||_F^2.
    """
    return float(np.einsum("ij,ij->", a, b))


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F, the square root of ``frobenius_dot(a, a)``.

    Where that sum of squares overflows or underflows, ``a`` is first scaled
    by a power of two, which is exact, so the norm of an ``a`` scaled by
    1e+-100 is the norm of ``a`` scaled the same.
    """
    total = frobenius_dot(a, a)
    if np.finfo(np.float64).tiny <= total < np.inf or not a.any():
        return math.sqrt(total)
    top = max(float(a.max()), -float(a.min()))  # inf or NaN where a holds one
    if not math.isfinite(top):
        return top
    exponent = math.frexp(top)[1]
    scaled = np.ldexp(a, -exponent)
    return math.ldexp(math.sqrt(frobenius_dot(scaled, scaled)), exponent)


def eigh_full(a: np.ndarray) -> EighFactors:
    """Eigendecomposition of a finite-valued symmetric matrix, read from its lower triangle."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    try:
        lam, z = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(-np.abs(lam), kind="stable")
    return EighFactors(z=z[:, order], lam=lam[order])


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
