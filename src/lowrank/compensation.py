"""Truncation-error compensation: alternating least-squares refits of the two factors.

The objective is the data-space compression loss over activations X (n x T)

    loss(U, Vt) = || (U @ Vt - W) @ X ||_F^2 = tr(E @ G @ E.T),   E = U @ Vt - W,

which sees the activations only through their Gram matrix G = X @ X.T. The
U-update is the least-squares optimum for fixed Vt,
U = W @ G @ Vt.T @ pinv(Vt @ G @ Vt.T): the same minimum-norm solution as
pinv(X.T @ Vt.T) @ (W @ X).T, from a k x k system. The Vt-update
Vt = pinv(U) @ W solves the normal equations U.T @ U @ Vt @ G = U.T @ W @ G
for every PSD G, so it minimizes the loss for fixed U whether or not G is
singular; only for a nonsingular G is it the unique minimizer.

Every slot is solved as one square problem. Write W = Q @ R, r = min(m, n),
with Q (m x r) having orthonormal columns (a column a cut leaves is zero):
for a tall W (m > n), R = diag(s) @ V.T and Q = W @ V @ diag(1 / s) from
W.T @ W = V @ diag(s ** 2) @ V.T; Q = I and R = W otherwise. Every U formed
here lies in range(Q) and every Vt in R's row space, so a pair is
U = Q @ U', Vt = M @ R, for an r x k factor U' and k x r coordinates M.
Then E = Q @ (U' @ M - I) @ R and

    loss = tr((U' @ M - I) @ H_r @ (U' @ M - I).T),   H_r = R @ G @ R.T,

the identity compressed under an r x r output Gram. ``square_problem`` is
the one place that reads W's shape. It takes the Gram on the slot's narrow
side: G (n x n) for m >= n, and H = (W @ X) @ (W @ X).T (m x m) for m < n,
which is H_r itself. In these coordinates the U-refit is
U' = H_r @ M.T @ (M @ H_r @ M.T)^+, the V-refit is M = pinv(U')
(pinv(Q @ U') @ W = pinv(U') @ R), and the selected pair is lifted once, by
``SquareProblem.lift``, which also fixes the sign of each factor column.

Q itself is never formed. A tall slot's R comes from one ``eigh`` of the
n x n W.T @ W, with s ** 2 non-increasing. Every s_i ** 2 that
``EighFactors.kept`` cuts (at or under n * eps * s_1 ** 2), and any negative
one, which only rounding makes, counts as zero: its row of R and its column
of Q are exact zeros, so a rank-3 W gives exactly 3 nonzero rows. That is
the plain init's own floor (below), so W.T @ W squares W's condition number
only where the plain init's R @ R.T did already, and W = Q @ R but for W's
part in the cut directions. As R @ R.T = diag(s ** 2), ``SquareProblem.s2``
holds the plain init's eigenvalues, and pinv(R) = R.T @ diag(1 / s ** 2)
(0 for a cut s ** 2). So Q = W @ pinv(R), and the lift forms
Q @ U' = W @ (R.T @ (diag(1 / s ** 2) @ U')) with one m x n x k product.
H_r and every loss are r-space arithmetic.

A whitened initialization (SVD-LLM) truncates the SVD of W @ S, with
S @ S.T = G + damping * I, and folds S^-1 back. That truncation is
U_k @ U_k.T @ W, where U_k holds the top-k eigenvectors of
W @ (G + damping * I) @ W.T (the output-PCA form): Q times those of
A = H_r + damping * R @ R.T. The plain truncated SVD of W is the same with
G + damping * I replaced by I, A = R @ R.T. So ``initialize_pair`` takes
one symmetric eigendecomposition of the r x r matrix
A = Z @ diag(lam) @ Z.T, ordered by |lam| descending; for a tall slot it
forms A = H_r + damping * diag(s ** 2), and its plain init takes none, as
A = diag(s ** 2) has Z = I. With s = |lam| it returns

    U' = Z_k @ diag(s_k ** 1/4),    M = diag(s_k ** -1/4) @ Z_k.T.

An s_i at or below A's rounding floor r * eps * s_1 counts as zero, and
gives a zero column of U' and of Z_k and a zero row of M. For the plain init
s_i = sigma_i(W) ** 2, so the floor cuts sigma_i <= sqrt(r * eps) * sigma_1.
An indefinite G can make A indefinite. A's singular values are then |lam|,
so the order and the floor are those of an SVD of A.

The refit rounds are subspace iteration on H_r. After a V-refit
U' @ M = U' @ pinv(U') is the orthogonal projector onto span(U'), and the
U-refit's product U' @ M = H_r @ M.T @ (M @ H_r @ M.T)^+ @ M depends on M
only through its row space wherever M @ H_r @ M.T is nonsingular. So each
round carries one r x k basis Q, with orthonormal columns (a column a cut
left is zero), and its image Y = H_r @ Q (``Subspace``), and solves at the
coordinates M = Q.T; where that system is singular, this fixes which
minimum-norm U' the U-step takes. The init's basis is Z_k: its U' @ M is
the projector Z_k @ Z_k.T.

- U-step (``u_step``): S = Q.T @ Y and U' = Y @ S^+ at coordinates M = Q.T.
  S^+ comes from S's eigenpairs, cutting every eigenvalue at or under S's
  rounding error max(r, k) * eps * ||Q||_F * ||Y||_F: directions under it
  are noise, which a singular Gram would otherwise invert. Y scales with W
  squared, so its norm is ``linalg.frobenius_norm``, which neither overflows
  nor underflows.
- V-step (``v_step``): span(U') = span(Y @ Z_kept), Z_kept the eigenvectors
  S^+ inverts, and Q.T @ Y @ Z_kept = Z_kept @ diag(lam_kept) has full
  column rank. One Householder QR Y @ Z_kept = Q' @ R' gives the new basis,
  and the columns S^+ cut stay zero. The pair is (Q', Q'.T), whose product
  is U' @ pinv(U'). Then Y = H_r @ Q'.

When S is nonsingular span(Q') = H_r @ span(Q): one round is one
r x r x k product, one k x k ``eigh`` and one r x k QR. No step takes an SVD.

``compensate`` reads every loss off Y. At coordinates Q.T,

    loss = c - 2 <U', Y> + <U' @ S, U'>,   c = tr(H_r),

and the last two terms sum to -<U', Y> for the U-step's U' (S^+ @ S @ S^+ =
S^+) and for U' = Q, the V-step's and the init's (Q.T @ Q = I on the kept
columns). So every loss is c - <U', Y>, r x k work. Its rounding error
scales with c rather than with the loss, so a near-exact fit (loss below
~1e-13 * c) reads as rounding noise and can come out negative. ``traces.csv``
writes such a loss as computed: ``pipeline.check_traces`` rejects only a
non-finite one. The tests check every loss against the direct form on the
input Gram G, ``svd_loss`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RankError, ShapeError
from .linalg import EighFactors, LowRankPair, eigh_full, frobenius_dot, frobenius_norm


@dataclass
class LossTrace:
    """Data-space loss before any update and after every half-step (2 per iteration)."""

    initial: float
    per_half_step: list[float] = field(default_factory=list)


def _check_gram(g: np.ndarray, side: int) -> None:
    if g.shape != (side, side):
        raise ShapeError(f"Gram matrix has shape {g.shape}, expected {side}x{side}")


@dataclass(frozen=True)
class SquareProblem:
    """A slot W = Q @ R reduced to the identity under the r x r output Gram H_r."""

    r: np.ndarray                # r x n
    h: np.ndarray                # r x r
    w: np.ndarray | None = None  # a tall slot's W (m > n); None where Q = I
    s2: np.ndarray | None = None  # a tall slot's s ** 2, non-increasing: R @ R.T = diag(s ** 2)

    def lift(self, u: np.ndarray, coords: np.ndarray) -> LowRankPair:
        """The slot's pair U = Q @ U', Vt = M @ R from a factor U' and coordinates M, in a fixed sign.

        Q is never formed: for a tall slot U = W @ (R.T @ (diag(1 / s ** 2) @ U')),
        a cut s ** 2 giving 0, and U = U' where Q = I.

        Each column of U is negated, with the matching row of Vt, so that its
        largest-magnitude entry (the first, on ties) is positive; a zero
        column is left alone. An eigensolver may return either sign of an
        eigenvector; negation is exact, so the product keeps its bits and the
        stored factors do not depend on which sign it returned.
        """
        if self.w is None:
            u = u.copy()
        else:
            inverse = np.divide(1.0, self.s2, out=np.zeros_like(self.s2), where=self.s2 > 0.0)
            u = self.w @ (self.r.T @ (inverse[:, None] * u))
        # Each column's extremes, read without forming |U|: the lead is negative where -min > max.
        hi, lo = u.max(axis=0), u.min(axis=0)
        flip = -lo > hi
        for j in np.flatnonzero((-lo == hi) & (hi > 0)):  # +hi and -hi both occur: the first one leads
            flip[j] = np.argmin(u[:, j]) < np.argmax(u[:, j])
        sign = np.where(flip, -1.0, 1.0)
        u *= sign
        return LowRankPair(u_sigma=u, vt_sigma=(coords * sign[:, None]) @ self.r)


def square_problem(w: np.ndarray, g: np.ndarray) -> SquareProblem:
    """Reduce W and its narrow-side Gram ``g`` to the r x r problem, r = min(m, n).

    A tall W's R is diag(s) @ V.T from the eigenpairs of W.T @ W, an s ** 2
    at or under their rounding floor giving an exact zero row.
    """
    m, n = w.shape
    _check_gram(g, min(m, n))
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix contains non-finite entries")
    if m < n:
        return SquareProblem(r=w, h=g)
    if m == n:
        return SquareProblem(r=w, h=w @ g @ w.T)
    f = eigh_full(w.T @ w)                                    # V @ diag(s ** 2) @ V.T
    s2 = np.where(f.kept() & (f.lam > 0.0), f.lam, 0.0)
    order = np.argsort(-s2, kind="stable")                    # a cut s ** 2 moves behind every kept one
    s2 = s2[order]
    r = np.sqrt(s2)[:, None] * f.z[:, order].T
    return SquareProblem(r=r, h=r @ g @ r.T, w=w, s2=s2)


@dataclass(frozen=True)
class Subspace:
    """The coordinates M = Q.T of a refit round, with Q's image Y = H_r @ Q (see the module docstring)."""

    q: np.ndarray   # r x k, orthonormal columns; a column a cut left is zero
    y: np.ndarray   # r x k, H_r @ Q

    @classmethod
    def of(cls, q: np.ndarray, h: np.ndarray) -> Subspace:
        """Q with its image, formed as (Q.T @ H_r).T.

        That is H_r @ Q for the symmetric H_r, and it measured faster than
        ``h @ q`` at r x k = 512 x 243 and 256 x 122.
        """
        return cls(q=q, y=(q.T @ h).T)

    def noise(self) -> float:
        """The rounding error of forming S = Q.T @ Y: max(r, k) * eps * ||Q||_F * ||Y||_F."""
        return max(self.q.shape) * np.finfo(np.float64).eps * frobenius_norm(self.q) * frobenius_norm(self.y)

    def loss(self, u: np.ndarray, c: float) -> float:
        """c - <U', Y>, given c = tr(H_r): the loss of (U', Q.T) for the U-step's U' and for U' = Q."""
        return c - frobenius_dot(u, self.y)


def u_step(space: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares refit of the left factor at the fixed coordinates Q.T.

    U' = Y @ S^+ with S = Q.T @ Y, and S^+ from S's eigenpairs, cut at S's
    rounding error. Returns U' with Z_kept, the eigenvectors S^+ inverts,
    which ``v_step`` orthonormalizes.
    """
    s = eigh_full(space.q.T @ space.y)
    noise = space.noise()
    return space.y @ s.pinv(atol=noise), s.z[:, s.kept(atol=noise)]


def v_step(space: Subspace, kept: np.ndarray, h: np.ndarray) -> Subspace:
    """Pseudoinverse refit of the right factor after ``u_step``: its pair as the next round's basis.

    One Householder QR Y @ Z_kept = Q' @ R' gives Q', an orthonormal basis of
    span(U'); the columns S^+ cut stay zero. The pair (Q', Q'.T) is
    U' @ pinv(U'). Returns Q' with its image H_r @ Q'.
    """
    q = np.zeros(space.q.shape)
    q[:, : kept.shape[1]] = np.linalg.qr(space.y @ kept)[0]
    return Subspace.of(q, h)


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
    with None it is the plain truncated SVD of W. The refit objective is
    always the raw (undamped) data-space loss. Returns the pair from the
    half-step with the lowest recorded loss, so extra iterations are never
    harmful.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if iters < 0:
        raise RankError(f"iteration count must be >= 0, got {iters}")
    problem = square_problem(w, g)
    u, coords, q = initialize_pair(problem, k, damping)   # the init's U' @ M is Z_k @ Z_k.T
    c = float(np.trace(problem.h))

    space = Subspace.of(q, problem.h)
    best_loss = space.loss(q, c)
    best = (u, coords)
    trace = LossTrace(initial=best_loss)
    for _ in range(iters):
        u, kept = u_step(space)
        loss = space.loss(u, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (u, space.q.T)

        space = v_step(space, kept, problem.h)
        loss = space.loss(space.q, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (space.q, space.q.T)
    return problem.lift(*best), trace


def initialize_pair(
    problem: SquareProblem, k: int, damping: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain (``damping`` None) or whitened truncated-SVD starting point at rank k.

    Returns the factor U' (r x k) and the coordinates M (k x r) of the pair
    ``problem.lift`` forms, and the basis Z_k (r x k, a cut column zero) that
    the refit rounds start from.
    """
    side = problem.h.shape[0]
    if not 1 <= k <= side:
        raise RankError(f"rank {k} outside [1, {side}]")
    if problem.s2 is None:
        rrt = problem.r @ problem.r.T
        f = eigh_full(rrt if damping is None else problem.h + damping * rrt)   # A = Z @ diag(lam) @ Z.T
    elif damping is None:
        f = EighFactors(z=np.eye(side), lam=problem.s2)                   # A = R @ R.T = diag(s ** 2)
    else:
        f = eigh_full(problem.h + damping * np.diag(problem.s2))
    keep = f.kept()[:k]                                      # A's rounding floor, as pinv's
    root = np.zeros(k)
    root[keep] = np.sqrt(np.sqrt(np.abs(f.lam[:k][keep])))
    inverse = np.zeros(k)
    inverse[keep] = 1.0 / root[keep]
    z = f.z[:, :k] * keep
    return z * root, (z * inverse).T, z
