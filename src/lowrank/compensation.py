"""Truncation-error compensation: alternating pseudoinverse refits of the two factors.

The objective is the data-space compression loss over activations X (n x T)

    loss(U, Vt) = || (U @ Vt - W) @ X ||_F^2 = tr(E @ G @ E.T),   E = U @ Vt - W,

which sees the activations only through their Gram matrix G = X @ X.T. The
U-update is the least-squares optimum for fixed Vt,
U = W @ G @ Vt.T @ pinv(Vt @ G @ Vt.T): the same minimum-norm solution as
pinv(X.T @ Vt.T) @ (W @ X).T, from a k x k system. The Vt-update
pinv(U) @ W equals the exact minimizer (U.T U)^-1 U.T W whenever G is
nonsingular (G cancels), and stays the applied rule otherwise.

Every slot is solved as one square problem. Write W = Q @ R, r = min(m, n),
with Q (m x r) having orthonormal columns: the reduced QR for a tall W
(m > n), Q = I and R = W otherwise. Every U formed here lies in range(Q) and
every Vt in R's row space, so a pair is U = Q @ U', Vt = M @ R, for an
r x k factor U' and k x r coordinates M. Then E = Q @ (U' @ M - I) @ R and

    loss = tr((U' @ M - I) @ H_r @ (U' @ M - I).T),   H_r = R @ G @ R.T,

the identity compressed under an r x r output Gram. ``square_problem`` is
the one place that reads W's shape. It takes the Gram on the slot's narrow
side: G (n x n) for m >= n, and H = (W @ X) @ (W @ X).T (m x m) for m < n,
which is H_r itself. In these coordinates the U-refit solves U' @ K = B with

    K = M @ H_r @ M.T,   B = H_r @ M.T,

the V-refit is M = pinv(U') (pinv(Q @ U') @ W = pinv(U') @ R), and the
selected pair is lifted once, by ``SquareProblem.lift``, which also fixes
the sign of each factor column.

Q itself is never formed. A tall slot's R is the triangle of
``np.linalg.qr(w, mode="r")``, from the same ``geqrf`` as the reduced QR.
Every U' formed here is a least-squares fit in r-coordinates,

    U' = R @ P @ R.T @ N.T @ X,

for an n x n P, k x r coordinates N and a k x k X: the U-refit has P = G,
N = M and X = K^+, and the inits below have P = G + damping * I or I, their
own M and a diagonal X. So Q @ U' = W @ (P @ R.T @ N.T @ X), and the lift
reads W and G, with one m x n x k product. H_r, K, B, M and every loss are
r-space arithmetic; only the lifted U differs from Q @ U' in its last bits.

A whitened initialization (SVD-LLM) truncates the SVD of W @ S, with
S @ S.T = G + damping * I, and folds S^-1 back. That truncation is
U_k @ U_k.T @ W, where U_k holds the top-k eigenvectors of
W @ (G + damping * I) @ W.T (the output-PCA form): Q times those of
A = H_r + damping * R @ R.T. The plain truncated SVD of W is the same with
G + damping * I replaced by I, A = R @ R.T. So ``initialize_pair`` takes
one symmetric eigendecomposition of the r x r matrix
A = Z @ diag(lam) @ Z.T, ordered by |lam| descending, and with s = |lam|
returns

    U' = Z_k @ diag(s_k ** 1/4),    M = diag(s_k ** -1/4) @ Z_k.T.

An s_i at or below A's rounding floor r * eps * s_1 counts as zero, and
gives a zero column of U' and a zero row of M. For the plain init
s_i = sigma_i(W) ** 2, so the floor cuts sigma_i <= sqrt(r * eps) * sigma_1.
An indefinite G can make A indefinite. A's singular values are then |lam|,
so the order and the floor are those of an SVD of A.

Since A @ Z_k = Z_k @ diag(lam_k), the init's factor is
U' = A @ M.T @ diag(sign(lam_k) / s_k ** 1/2), with 0 for a cut s_i: the
lift's form, with A = R @ P @ R.T. Its lift divides A @ M.T by s_k ** 1/2,
so it loses about eps * s_1 / s_i of relative precision in direction i,
the most in the directions A weighs least.

K is symmetric too, so ``update_u`` forms K^+ = Z @ diag(1 / lam) @ Z.T from
K's eigenpairs, keeping each lam's sign and cutting as ``pinv`` does. U' is
not square, so the V-refit keeps ``pinv`` and its SVD.

``compensate`` reads every loss off the U-refit's normal equations. At fixed
coordinates

    loss = c - 2 <U', B> + <U' @ K, U'>,   c = tr(H_r),

so a loss costs r x k work once K and B are formed, and the
``normal_equations`` formed at each new M are the system the next
``update_u`` solves. The identity's rounding error scales with c rather
than with the loss, so a near-exact fit (loss below ~1e-13 * c) reads as
rounding noise. The tests check it against the direct form on the input
Gram G, ``svd_loss`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, RankError, ShapeError
from .linalg import LowRankPair, eigh_full, pinv


@dataclass
class LossTrace:
    """Data-space loss before any update and after every half-step (2 per iteration)."""

    initial: float
    per_half_step: list[float] = field(default_factory=list)


def _check_gram(g: np.ndarray, side: int) -> None:
    if g.shape != (side, side):
        raise ShapeError(f"Gram matrix has shape {g.shape}, expected {side}x{side}")


@dataclass(frozen=True)
class LeftFactor:
    """A factor U' (r x k) with the terms that lift it without Q: U' = R @ P @ R.T @ N.T @ X.

    Every U' formed here has that form (see the module docstring), so
    Q @ U' = W @ (P @ R.T @ N.T @ X) for a tall slot.
    """

    u: np.ndarray                # r x k, U'
    basis: np.ndarray            # k x r, N: the coordinates its solve read
    solve: np.ndarray            # k x k, X
    damping: float | None        # P = G + damping * I; None for P = I


@dataclass(frozen=True)
class SquareProblem:
    """A slot W = Q @ R reduced to the identity under the r x r output Gram H_r."""

    r: np.ndarray                # r x n
    h: np.ndarray                # r x r
    w: np.ndarray | None = None  # a tall slot's W (m > n); None where Q = I
    g: np.ndarray | None = None  # a tall slot's input Gram G (n x n)

    def lift(self, factor: LeftFactor, coords: np.ndarray) -> LowRankPair:
        """The slot's pair U = Q @ U', Vt = M @ R from a factor and coordinates M, in a fixed sign.

        Q is never formed: for a tall slot U = W @ (P @ R.T @ N.T @ X), from
        the factor's own terms, and U = U' where Q = I.

        Each column of U is negated, with the matching row of Vt, so that its
        largest-magnitude entry (the first, on ties) is positive; a zero
        column is left alone. An eigensolver may return either sign of an
        eigenvector; negation is exact, so the product keeps its bits and the
        stored factors do not depend on which sign it returned.
        """
        if self.w is None:
            u = factor.u.copy()
        else:
            right = (factor.basis @ self.r).T                       # R.T @ N.T, n x k
            if factor.damping is not None:
                right = self.g @ right + factor.damping * right
            u = self.w @ (right @ factor.solve)
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

    A tall W's R is the triangle of its QR, taken without Q (``mode="r"``).
    """
    m, n = w.shape
    _check_gram(g, min(m, n))
    if not np.all(np.isfinite(g)):
        raise NumericalError("Gram matrix contains non-finite entries")
    if m < n:
        return SquareProblem(r=w, h=g)
    if m == n:
        return SquareProblem(r=w, h=w @ g @ w.T)
    r = np.linalg.qr(w, mode="r")
    return SquareProblem(r=r, h=r @ g @ r.T, w=w, g=g)


@dataclass(frozen=True)
class NormalEquations:
    """The U-refit's system U' @ K = B at fixed coordinates M (see the module docstring)."""

    coords: np.ndarray  # k x r, M
    k: np.ndarray       # k x k
    b: np.ndarray       # r x k
    noise: float        # rounding error of forming K

    def loss(self, u: np.ndarray, c: float) -> float:
        """loss = c - <U', 2 B - U' @ K>, given c = tr(H_r)."""
        return c - float(np.vdot(u, 2.0 * self.b - u @ self.k))


def normal_equations(coords: np.ndarray, h: np.ndarray) -> NormalEquations:
    """Form K = M @ H_r @ M.T and B = H_r @ M.T at coordinates M.

    K's rounding error is max(r, k) * eps * ||M||_F * ||M @ H_r||_F.
    """
    k, side = coords.shape
    mh = coords @ h                                        # k x r
    noise = max(side, k) * np.finfo(np.float64).eps * np.linalg.norm(coords) * np.linalg.norm(mh)
    return NormalEquations(coords=coords, k=mh @ coords.T, b=mh.T, noise=noise)


def update_u(normal: NormalEquations) -> LeftFactor:
    """Minimum-norm least-squares refit of the left factor, right factor fixed.

    Solves U' @ K = B, the system ``normal_equations`` forms at the fixed
    coordinates, with K^+ from K's eigenpairs. Eigenvalues are cut at the
    rounding error of forming K: directions under it are noise, which a
    singular Gram would otherwise invert. U' = R @ G @ R.T @ M.T @ K^+, so the
    factor lifts with P = G, N = M and X = K^+.
    """
    solve = eigh_full(normal.k).pinv(atol=normal.noise)
    return LeftFactor(u=normal.b @ solve, basis=normal.coords, solve=solve, damping=0.0)


def update_v(u: np.ndarray) -> np.ndarray:
    """Pseudoinverse refit of the right factor, left factor fixed: the coordinates pinv(U')."""
    return pinv(u)


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
    factor, coords = initialize_pair(problem, k, damping)
    c = float(np.trace(problem.h))

    normal = normal_equations(coords, problem.h)
    best_loss = normal.loss(factor.u, c)
    best = (factor, coords)
    trace = LossTrace(initial=best_loss)
    for _ in range(iters):
        factor = update_u(normal)
        loss = normal.loss(factor.u, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (factor, coords)

        coords = update_v(factor.u)
        normal = normal_equations(coords, problem.h)
        loss = normal.loss(factor.u, c)
        trace.per_half_step.append(loss)
        if loss < best_loss:
            best_loss, best = loss, (factor, coords)
    return problem.lift(*best), trace


def initialize_pair(
    problem: SquareProblem, k: int, damping: float | None = None
) -> tuple[LeftFactor, np.ndarray]:
    """Plain (``damping`` None) or whitened truncated-SVD starting point at rank k.

    Returns the factor U' (r x k) and the coordinates M (k x r) of the pair
    ``problem.lift`` forms. U' = A @ M.T @ X with X = diag(sign(lam) / s ** 1/2)
    (0 where s is cut), so the factor lifts with A's own P, N = M and that X.
    """
    side = problem.h.shape[0]
    if not 1 <= k <= side:
        raise RankError(f"rank {k} outside [1, {side}]")
    rrt = problem.r @ problem.r.T
    f = eigh_full(rrt if damping is None else problem.h + damping * rrt)   # A = Z @ diag(lam) @ Z.T
    s = np.abs(f.lam)
    keep = s[:k] > side * np.finfo(np.float64).eps * s[0]    # A's rounding floor
    root = np.zeros(k)
    root[keep] = np.sqrt(np.sqrt(s[:k][keep]))
    inverse = np.zeros(k)
    inverse[keep] = 1.0 / root[keep]
    z = f.z[:, :k]
    coords = (z * inverse).T
    solve = np.diag(np.sign(f.lam[:k]) * inverse**2)
    return LeftFactor(u=z * root, basis=coords, solve=solve, damping=damping), coords
