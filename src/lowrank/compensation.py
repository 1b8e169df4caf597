"""Truncation-error compensation: alternating pseudoinverse refits of the two factors.

The objective is the data-space compression loss over activations X (n x T)

    loss(U, Vt) = || (U @ Vt - W) @ X ||_F^2 = tr(E @ G @ E.T),   E = U @ Vt - W,

which sees the activations only through their Gram matrix G = X @ X.T, so
every function here takes G. The U-update ``update_u`` is the least-squares
optimum for fixed Vt, U = W @ G @ Vt.T @ pinv(Vt @ G @ Vt.T): the same
minimum-norm solution as pinv(X.T @ Vt.T) @ (W @ X).T, from a k x k system.
The Vt-update pinv(U) @ W equals the exact minimizer (U.T U)^-1 U.T W
whenever G is nonsingular (G cancels), and stays the applied rule otherwise.

A whitened initialization (SVD-LLM) truncates the SVD of W @ S, with
S @ S.T = G + damping * I, and folds S^-1 back. That truncation is
U_k @ U_k.T @ W, where U_k holds the top-k eigenvectors of
W @ (G + damping * I) @ W.T (the output-PCA form). So ``initialize_pair``
computes it from the r x r matrix A = R @ (G + damping * I) @ R.T,
r = min(m, n), with W = Q @ R: Q = I and R = W when m <= n, the reduced QR
of W otherwise. With A = Z @ diag(s) @ Z.T, s holds the squared singular values of W @ S and

    U = Q @ Z_k @ diag(s_k ** 1/4),    Vt = diag(s_k ** -1/4) @ Z_k.T @ R,

so no n x n factorization is formed. An s_i at or below A's rounding floor
r * eps * s_1 counts as zero, and gives a zero column of U and a zero row
of Vt.

``compensate`` reads every loss off the U-refit's normal equations. With
K = Vt @ G @ Vt.T and B = W @ G @ Vt.T at a fixed Vt,

    loss(U, Vt) = c - 2 <U, B> + <U @ K, U>,      c = tr(W @ G @ W.T),

so a loss costs m x k work once K and B are formed, and the
``normal_equations`` formed at each new Vt are the system the next
``update_u`` solves. c is fixed per slot. With damping it is sum(s), which
``initialize_pair`` returns with the pair, minus damping * ||W||_F^2;
without it is one m x n x n product. The identity's rounding error scales
with c rather than with the loss, so a near-exact fit (loss below
~1e-13 * c) reads as rounding noise.
``svd_loss`` keeps the direct form as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RankError, ShapeError
from .linalg import LowRankPair, pinv, svd_full, truncate_absorb


@dataclass
class LossTrace:
    """Data-space loss before any update and after every half-step (2 per iteration)."""

    initial: float
    per_half_step: list[float] = field(default_factory=list)


def svd_loss(pair: LowRankPair, w: np.ndarray, g: np.ndarray) -> float:
    """tr(E @ G @ E.T) with E = U @ Vt - W: the squared norm of (U @ Vt - W) @ X."""
    m, n = w.shape
    if pair.u_sigma.shape[0] != m or pair.vt_sigma.shape[1] != n:
        raise ShapeError(f"factor pair {pair.shape} does not match matrix {w.shape}")
    _check_gram(g, n)
    e = pair.product() - w
    return float(np.sum((e @ g) * e))


def _check_gram(g: np.ndarray, n: int) -> None:
    if g.shape != (n, n):
        raise ShapeError(f"Gram matrix has shape {g.shape}, matrix has {n} columns")


@dataclass(frozen=True)
class NormalEquations:
    """The U-refit's system U @ K = B at a fixed Vt: K = Vt @ G @ Vt.T, B = W @ G @ Vt.T."""

    k: np.ndarray   # k x k
    b: np.ndarray   # m x k
    noise: float    # rounding error of forming K

    def loss(self, u: np.ndarray, c: float) -> float:
        """loss(U, Vt) = c - <U, 2 B - U @ K>, given c = tr(W @ G @ W.T)."""
        return c - float(np.vdot(u, 2.0 * self.b - u @ self.k))


def normal_equations(vt: np.ndarray, w: np.ndarray, g: np.ndarray) -> NormalEquations:
    """Form K and B at ``vt``, and K's rounding error max(n, k) * eps * ||Vt||_F * ||Vt @ G||_F."""
    k, n = vt.shape
    _check_gram(g, n)
    vg = vt @ g                                            # k x n
    noise = max(n, k) * np.finfo(np.float64).eps * np.linalg.norm(vt) * np.linalg.norm(vg)
    return NormalEquations(k=vg @ vt.T, b=w @ vg.T, noise=noise)


def update_u(normal: NormalEquations) -> np.ndarray:
    """Minimum-norm least-squares refit of the left factor, right factor fixed.

    Solves U @ K = B, the system ``normal_equations`` forms at the fixed Vt,
    cutting K's singular values at the rounding error of forming K:
    directions under it are noise, which a singular G would otherwise invert.
    """
    return normal.b @ pinv(normal.k, atol=normal.noise)   # m x k


def update_v(pair: LowRankPair, w: np.ndarray) -> np.ndarray:
    """Pseudoinverse refit of the right factor, left factor fixed: pinv(U) @ W."""
    return pinv(pair.u_sigma) @ w


def compensate(
    w: np.ndarray,
    g: np.ndarray,
    k: int,
    iters: int = 1,
    damping: float | None = None,
) -> tuple[LowRankPair, LossTrace]:
    """Truncated-SVD initialization plus ``iters`` alternating refit rounds.

    ``g`` is the Gram matrix X @ X.T of the slot's input activations. With a
    ``damping`` (an absolute lambda, not a ratio), initialization is the
    whitened truncation for G + damping * I; with None it is the plain SVD
    of W. The refit objective is always the raw (undamped) data-space loss.
    Returns the pair from the half-step with the lowest recorded loss, so
    extra iterations are never harmful.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if iters < 0:
        raise RankError(f"iteration count must be >= 0, got {iters}")
    _check_gram(g, w.shape[1])
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix contains non-finite entries")
    pair, energy = initialize_pair(w, g, k, damping)
    if damping is None:
        c = float(np.vdot(w @ g, w))
    else:
        c = energy - damping * float(np.vdot(w, w))

    normal = normal_equations(pair.vt_sigma, w, g)
    best_loss = normal.loss(pair.u_sigma, c)
    best_pair = pair
    trace = LossTrace(initial=best_loss)
    for _ in range(iters):
        pair = LowRankPair(u_sigma=update_u(normal), vt_sigma=pair.vt_sigma)
        loss = normal.loss(pair.u_sigma, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best_pair = loss, pair

        pair = LowRankPair(u_sigma=pair.u_sigma, vt_sigma=update_v(pair, w))
        normal = normal_equations(pair.vt_sigma, w, g)
        loss = normal.loss(pair.u_sigma, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best_pair = loss, pair
    return best_pair, trace


def initialize_pair(
    w: np.ndarray, g: np.ndarray, k: int, damping: float | None = None
) -> tuple[LowRankPair, float]:
    """Plain (``damping`` None) or whitened truncated-SVD starting point at rank k.

    Also returns the sum of the squared singular values of what it truncates: W, or W @ S.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if damping is None:
        f = svd_full(w)
        return truncate_absorb(f, k), float(f.sigma @ f.sigma)
    m, n = w.shape
    if not 1 <= k <= min(m, n):
        raise RankError(f"rank {k} outside [1, {min(m, n)}]")
    q, r = np.linalg.qr(w) if m > n else (None, w)
    rg = r @ g
    rg += damping * r                                     # R @ (G + damping * I)
    f = svd_full(rg @ r.T)                                # A = Z @ diag(s) @ Z.T
    s = f.sigma[:k]
    keep = s > f.sigma.shape[0] * np.finfo(np.float64).eps * f.sigma[0]
    root = np.zeros(k)
    root[keep] = np.sqrt(np.sqrt(s[keep]))
    inv_root = np.zeros(k)
    inv_root[keep] = 1.0 / root[keep]
    z = f.u[:, :k]
    u = z * root
    pair = LowRankPair(u_sigma=u if q is None else q @ u, vt_sigma=(z * inv_root).T @ r)
    return pair, float(np.sum(f.sigma))


def plain_truncation_loss(w: np.ndarray, g: np.ndarray, k: int) -> float:
    """Data-space loss of unwhitened, uncompensated rank-k truncation (baseline)."""
    return svd_loss(truncate_absorb(svd_full(w), k), w, g)
