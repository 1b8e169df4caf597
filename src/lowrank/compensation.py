"""Truncation-error compensation: alternating pseudoinverse refits of the two factors.

The objective is the data-space compression loss over activations X (n x T)

    loss(U, Vt) = || (U @ Vt - W) @ X ||_F^2 = tr(E @ G @ E.T),   E = U @ Vt - W,

which sees the activations only through their Gram matrix G = X @ X.T. The
U-update ``update_u`` is the least-squares optimum for fixed Vt,
U = W @ G @ Vt.T @ pinv(Vt @ G @ Vt.T): the same minimum-norm solution as
pinv(X.T @ Vt.T) @ (W @ X).T, from a k x k system. The Vt-update
pinv(U) @ W equals the exact minimizer (U.T U)^-1 U.T W whenever G is
nonsingular (G cancels), and stays the applied rule otherwise.

Every Vt produced here lies in W's row space: Vt = M @ W for a k x m
matrix M (the plain init has M = Sigma_k^-1/2 @ U_k.T, the whitened init
diag(s_k^-1/4) @ Z_k.T @ Q.T below, the V-refit pinv(U)). Then E = (U @ M - I) @ W
and the loss is tr((U @ M - I) @ H @ (U @ M - I).T) with H = W @ G @ W.T =
(W @ X) @ (W @ X).T, the Gram matrix of the slot's outputs. So each
function here takes the Gram on the slot's narrow side: G (n x n) for a tall
W (m >= n), and H (m x m) for a wide one (m < n), whose refits never form an
n x n matrix. A pair is computed in coordinates P: P = Vt for a tall W, and
P = M, Vt = M @ W, for a wide one. Then the wide slot is the tall problem
with W replaced by I_m and G by H:

    tall:  K = Vt @ G @ Vt.T,   B = W @ G @ Vt.T,   c = tr(W @ G @ W.T),
    wide:  K = M @ H @ M.T,     B = H @ M.T,        c = tr(H),

and the V-refit's coordinates are pinv(U) @ W and pinv(U).

A whitened initialization (SVD-LLM) truncates the SVD of W @ S, with
S @ S.T = G + damping * I, and folds S^-1 back. That truncation is
U_k @ U_k.T @ W, where U_k holds the top-k eigenvectors of
W @ (G + damping * I) @ W.T (the output-PCA form). So ``initialize_pair``
computes it from an r x r matrix A, r = min(m, n): A = H + damping * W @ W.T
for a wide W, and A = R @ (G + damping * I) @ R.T for a tall one, with
W = Q @ R (Q = I, R = W when m = n, the reduced QR of W otherwise). With
A = Z @ diag(s) @ Z.T, s holds the squared singular values of W @ S and

    U = Q @ Z_k @ diag(s_k ** 1/4),    Vt = diag(s_k ** -1/4) @ Z_k.T @ R,

so no n x n factorization is formed. An s_i at or below A's rounding floor
r * eps * s_1 counts as zero, and gives a zero column of U and a zero row
of Vt; the plain init's M cuts W's singular values at W's floor the same way.

``compensate`` reads every loss off the U-refit's normal equations. At fixed
coordinates

    loss(U, Vt) = c - 2 <U, B> + <U @ K, U>,

so a loss costs m x k work once K and B are formed, and the
``normal_equations`` formed at each new P are the system the next
``update_u`` solves. c is fixed per slot: tr(H) for a wide W; for a tall one
sum(s) minus damping * ||W||_F^2 with damping, which ``initialize_pair``
returns with the pair, and one m x n x n product without. The identity's
rounding error scales with c rather than with the loss, so a near-exact fit
(loss below ~1e-13 * c) reads as rounding noise.
``svd_loss`` keeps the direct form, on the input Gram G, as the reference.
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


def _check_gram(g: np.ndarray, side: int) -> None:
    if g.shape != (side, side):
        raise ShapeError(f"Gram matrix has shape {g.shape}, expected {side}x{side}")


def _is_wide(w: np.ndarray, g: np.ndarray) -> bool:
    """Whether W is wide (m < n); checks that ``g`` is the Gram on W's narrow side."""
    m, n = w.shape
    _check_gram(g, min(m, n))
    return m < n


@dataclass(frozen=True)
class NormalEquations:
    """The U-refit's system U @ K = B at fixed coordinates P (see the module docstring)."""

    k: np.ndarray   # k x k
    b: np.ndarray   # m x k
    noise: float    # rounding error of forming K

    def loss(self, u: np.ndarray, c: float) -> float:
        """loss(U, Vt) = c - <U, 2 B - U @ K>, given c = tr(W @ G @ W.T)."""
        return c - float(np.vdot(u, 2.0 * self.b - u @ self.k))


def normal_equations(p: np.ndarray, w: np.ndarray, g: np.ndarray) -> NormalEquations:
    """Form K and B at coordinates ``p`` on ``g``, W's narrow-side Gram.

    K's rounding error is max(s, k) * eps * ||P||_F * ||P @ g||_F, s the side of g.
    """
    wide = _is_wide(w, g)
    k, side = p.shape
    pg = p @ g                                             # k x side
    noise = max(side, k) * np.finfo(np.float64).eps * np.linalg.norm(p) * np.linalg.norm(pg)
    return NormalEquations(k=pg @ p.T, b=pg.T if wide else w @ pg.T, noise=noise)


def update_u(normal: NormalEquations) -> np.ndarray:
    """Minimum-norm least-squares refit of the left factor, right factor fixed.

    Solves U @ K = B, the system ``normal_equations`` forms at the fixed Vt's
    coordinates, cutting K's singular values at the rounding error of forming K:
    directions under it are noise, which a singular G would otherwise invert.
    """
    return normal.b @ pinv(normal.k, atol=normal.noise)   # m x k


def update_v(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pseudoinverse refit of the right factor pinv(U) @ W, left factor fixed.

    Returns its coordinates: pinv(U) @ W for a tall W, pinv(U) for a wide one.
    """
    m, n = w.shape
    return pinv(u) if m < n else pinv(u) @ w


def compensate(
    w: np.ndarray,
    g: np.ndarray,
    k: int,
    iters: int = 1,
    damping: float | None = None,
) -> tuple[LowRankPair, LossTrace]:
    """Truncated-SVD initialization plus ``iters`` alternating refit rounds.

    ``g`` is the slot's Gram matrix on its narrow side: X @ X.T of the input
    activations for a tall W, (W @ X) @ (W @ X).T of the outputs for a wide
    one. With a ``damping`` (an absolute lambda on the input Gram, not a
    ratio), initialization is the whitened truncation for G + damping * I;
    with None it is the plain SVD of W. The refit objective is always the raw
    (undamped) data-space loss. Returns the pair from the half-step with the
    lowest recorded loss, so extra iterations are never harmful.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if iters < 0:
        raise RankError(f"iteration count must be >= 0, got {iters}")
    wide = _is_wide(w, g)
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix contains non-finite entries")
    pair, p, energy = initialize_pair(w, g, k, damping)
    if wide:
        c = float(np.trace(g))
    elif damping is None:
        c = float(np.vdot(w @ g, w))
    else:
        c = energy - damping * float(np.vdot(w, w))

    init_p = p
    normal = normal_equations(p, w, g)
    best_loss = normal.loss(pair.u_sigma, c)
    best = (pair.u_sigma, p)
    trace = LossTrace(initial=best_loss)
    for _ in range(iters):
        u = update_u(normal)
        loss = normal.loss(u, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (u, p)

        p = update_v(u, w)
        normal = normal_equations(p, w, g)
        loss = normal.loss(u, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (u, p)
    u, p = best
    if p is init_p:
        return LowRankPair(u_sigma=u, vt_sigma=pair.vt_sigma), trace
    return LowRankPair(u_sigma=u, vt_sigma=p @ w if wide else p), trace


def initialize_pair(
    w: np.ndarray, g: np.ndarray, k: int, damping: float | None = None
) -> tuple[LowRankPair, np.ndarray, float]:
    """Plain (``damping`` None) or whitened truncated-SVD starting point at rank k.

    ``g`` is W's narrow-side Gram, as for ``compensate``. Returns the pair,
    its coordinates (Vt for a tall W, M with Vt = M @ W for a wide one), and
    the sum of the squared singular values of what it truncates: W, or W @ S.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    wide = _is_wide(w, g)
    if damping is None:
        f = svd_full(w)
        pair = truncate_absorb(f, k)
        energy = float(f.sigma @ f.sigma)
        if not wide:
            return pair, pair.vt_sigma, energy
        root = np.sqrt(f.sigma[:k])
        coords = (f.u[:, :k] * _reciprocal(root, _above_floor(f.sigma, k))).T   # Sigma_k^-1/2 @ U_k.T
        return LowRankPair(u_sigma=pair.u_sigma, vt_sigma=coords @ w), coords, energy
    m, n = w.shape
    if not 1 <= k <= min(m, n):
        raise RankError(f"rank {k} outside [1, {min(m, n)}]")
    q, r = np.linalg.qr(w) if m > n else (None, w)
    if wide:
        a = g + damping * (w @ w.T)                       # H + damping * W @ W.T
    else:
        a = r @ g
        a += damping * r                                  # R @ (G + damping * I)
        a = a @ r.T
    f = svd_full(a)                                       # A = Z @ diag(s) @ Z.T
    keep = _above_floor(f.sigma, k)
    root = np.zeros(k)
    root[keep] = np.sqrt(np.sqrt(f.sigma[:k][keep]))
    z = f.u[:, :k]
    u = z * root
    coords = (z * _reciprocal(root, keep)).T
    vt = coords @ r
    pair = LowRankPair(u_sigma=u if q is None else q @ u, vt_sigma=vt)
    return pair, coords if wide else vt, float(np.sum(f.sigma))


def _above_floor(sigma: np.ndarray, k: int) -> np.ndarray:
    """Mask of sigma[:k] above the rounding floor len(sigma) * eps * sigma[0]."""
    return sigma[:k] > sigma.shape[0] * np.finfo(np.float64).eps * sigma[0]


def _reciprocal(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1 / x where ``keep``, 0 elsewhere."""
    out = np.zeros_like(x)
    out[keep] = 1.0 / x[keep]
    return out


def plain_truncation_loss(w: np.ndarray, g: np.ndarray, k: int) -> float:
    """Data-space loss of unwhitened, uncompensated rank-k truncation (baseline), on the input Gram G."""
    return svd_loss(truncate_absorb(svd_full(w), k), w, g)
