import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lowrank.compensation as compensation
from lowrank.compensation import (
    LeftFactor,
    SquareProblem,
    compensate,
    initialize_pair,
    normal_equations,
    square_problem,
    update_u,
    update_v,
)
from lowrank.errors import NumericalError, RankError, ShapeError
from lowrank.linalg import LowRankPair, pinv
from lowrank.pipeline import REL_DAMPING
from oracles import explicit_q_lift, plain_truncation_loss, svd_full, svd_loss, truncate_absorb


def brute_force_loss(pair, w, x):
    """Element-by-element residual computation, independent of the library path."""
    m, n = w.shape
    t = x.shape[1]
    w_hat = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            w_hat[i, j] = sum(pair.u_sigma[i, q] * pair.vt_sigma[q, j] for q in range(pair.rank))
    total = 0.0
    for i in range(m):
        for j in range(t):
            r = sum((w_hat[i, q] - w[i, q]) * x[q, j] for q in range(n))
            total += r * r
    return total


def lifted_init(w, narrow, k, damping):
    """The starting pair ``compensate`` lifts from the slot's square problem."""
    problem = square_problem(w, narrow)
    return problem.lift(*initialize_pair(problem, k, damping))


def half_step_pairs(problem, k, iters, damping):
    """Every (factor, coordinates) pair ``compensate`` scores, replayed through the public refits.

    The init's pair, then the U-refit's and the V-refit's of each iteration.
    """
    factor, coords = initialize_pair(problem, k, damping)
    pairs = [(factor, coords)]
    for _ in range(iters):
        factor = update_u(normal_equations(coords, problem.h))
        pairs.append((factor, coords))
        coords = update_v(factor.u)
        pairs.append((factor, coords))
    return pairs


def random_rank_k(rng, m, n, k):
    u0 = np.linalg.qr(rng.normal(size=(m, k)))[0]
    v0 = np.linalg.qr(rng.normal(size=(n, k)))[0]
    return u0 * rng.uniform(1.0, 3.0, size=k), v0.T, (u0 * 1.0) @ np.diag(
        rng.uniform(1.0, 3.0, size=k)
    ) @ v0.T


class TestSvdLoss:
    def test_exact_factorization_has_zero_loss(self, rng):
        w = rng.normal(size=(6, 6))
        x = rng.normal(size=(6, 20))
        pair = truncate_absorb(svd_full(w), 6)
        wx2 = float(np.sum((w @ x) ** 2))
        assert svd_loss(pair, w, x @ x.T) <= 1e-16 * wx2

    def test_zero_factor_gives_wx_norm(self, rng):
        w = rng.normal(size=(5, 4))
        x = rng.normal(size=(4, 9))
        pair = LowRankPair(u_sigma=np.zeros((5, 2)), vt_sigma=rng.normal(size=(2, 4)))
        assert abs(svd_loss(pair, w, x @ x.T) - float(np.sum((w @ x) ** 2))) <= 1e-12 * np.sum((w @ x) ** 2)

    def test_matches_brute_force(self, rng):
        w = rng.normal(size=(12, 12))
        x = rng.normal(size=(12, 40))
        pair = truncate_absorb(svd_full(w), 4)
        fast = svd_loss(pair, w, x @ x.T)
        slow = brute_force_loss(pair, w, x)
        assert abs(fast - slow) <= 1e-9 * max(1.0, slow)

    def test_shape_mismatch(self, rng):
        pair = truncate_absorb(svd_full(rng.normal(size=(4, 4))), 2)
        with pytest.raises(ShapeError):
            svd_loss(pair, rng.normal(size=(4, 4)), np.eye(5))


class TestUpdateU:
    """The U-refit of W at a fixed Vt on the input Gram G is W @ U', with U' the
    refit of the identity on G at coordinates Vt (each row of U solves its own
    least-squares problem, linear in the matching row of W)."""

    def test_recovers_exact_rank_k(self, rng):
        u_sig, vt, w = random_rank_k(rng, 10, 8, 3)
        x = rng.normal(size=(8, 30))  # full row rank
        pair = LowRankPair(u_sigma=rng.normal(size=(10, 3)), vt_sigma=vt)
        u_new = w @ update_u(normal_equations(pair.vt_sigma, x @ x.T)).u
        # consistent system: the refit must reproduce W exactly on the factor
        assert np.linalg.norm(u_new @ vt - w) <= 1e-8 * np.linalg.norm(w)

    def test_identity_x_matches_normal_equation(self, rng):
        w = rng.normal(size=(9, 9))
        pair = truncate_absorb(svd_full(w + rng.normal(size=(9, 9))), 4)
        v = pair.vt_sigma.T
        u_closed = w @ v @ np.linalg.inv(v.T @ v)
        u_new = w @ update_u(normal_equations(pair.vt_sigma, np.eye(9))).u
        np.testing.assert_allclose(u_new, u_closed, atol=1e-8 * np.linalg.norm(u_closed))

    def test_loss_never_increases(self, rng):
        w = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 64))
        g = x @ x.T
        pair = truncate_absorb(svd_full(w), 4)
        before = svd_loss(pair, w, g)
        updated = LowRankPair(u_sigma=w @ update_u(normal_equations(pair.vt_sigma, g)).u, vt_sigma=pair.vt_sigma)
        assert svd_loss(updated, w, g) <= before + 1e-9 * before

    def test_beats_random_perturbations(self, rng):
        w = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 64))
        g = x @ x.T
        pair = truncate_absorb(svd_full(w), 4)
        u_star = w @ update_u(normal_equations(pair.vt_sigma, g)).u
        star = LowRankPair(u_sigma=u_star, vt_sigma=pair.vt_sigma)
        base = svd_loss(star, w, g)
        scale = 0.01 * max(1.0, np.linalg.norm(u_star))
        for _ in range(100):
            delta = rng.normal(size=u_star.shape)
            delta *= scale / np.linalg.norm(delta)
            perturbed = LowRankPair(u_sigma=u_star + delta, vt_sigma=pair.vt_sigma)
            assert svd_loss(perturbed, w, g) >= base - 1e-12 * max(1.0, base)

    @pytest.mark.parametrize(
        "t, log_scale",
        [(3, 0.0), (5, 0.0), (40, 0.0), (3, 4.0), (40, 4.0)],
        ids=["T<k", "T=k", "T>k", "T<k-rows-scaled", "T>k-rows-scaled"],
    )
    def test_gram_form_matches_token_form(self, t, log_scale):
        # T < k makes K = Vt G Vt.T singular; rows of X scaled by e^[-4, 4]
        # square K's condition number up to e^16 on top. A whitened start
        # weights G's null space by 1/sqrt(damping), which is where inverting
        # K's rounding noise would show.
        rng = np.random.default_rng(t + int(log_scale))
        m, n, k = 12, 10, 5
        for _ in range(50):
            w = rng.normal(size=(m, n))
            x = rng.normal(size=(n, t)) * np.exp(rng.uniform(-log_scale, log_scale, size=(n, 1)))
            g = x @ x.T
            whitened = lifted_init(w, g, k, 1e-5 * float(np.mean(np.diag(g))))
            random = LowRankPair(u_sigma=rng.normal(size=(m, k)), vt_sigma=rng.normal(size=(k, n)))
            for pair in (whitened, random):
                token_form = (pinv(x.T @ pair.vt_sigma.T) @ (w @ x).T).T
                u = w @ update_u(normal_equations(pair.vt_sigma, g)).u
                assert np.linalg.norm(u - token_form) <= 1e-6 * np.linalg.norm(token_form)


class TestUpdateV:
    def test_orthonormal_u_gives_transpose_product(self, rng):
        w = rng.normal(size=(7, 5))
        q = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        pair = LowRankPair(u_sigma=q, vt_sigma=rng.normal(size=(3, 5)))
        np.testing.assert_allclose(update_v(pair.u_sigma) @ w, q.T @ w, atol=1e-10)

    def test_recovers_exact_rank_k(self, rng):
        u_sig, vt, w = random_rank_k(rng, 9, 11, 3)
        pair = LowRankPair(u_sigma=u_sig, vt_sigma=rng.normal(size=(3, 11)))
        vt_new = update_v(pair.u_sigma) @ w  # the refit returns the coordinates pinv(U)
        assert np.linalg.norm(pair.u_sigma @ vt_new - w) <= 1e-8 * np.linalg.norm(w)

    def test_loss_never_increases_with_full_rank_gram(self, rng):
        w = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 64))
        g = x @ x.T  # nonsingular
        pair = truncate_absorb(svd_full(w), 4)
        pair = LowRankPair(u_sigma=w @ update_u(normal_equations(pair.vt_sigma, g)).u, vt_sigma=pair.vt_sigma)
        before = svd_loss(pair, w, g)
        updated = LowRankPair(u_sigma=pair.u_sigma, vt_sigma=update_v(pair.u_sigma) @ w)
        assert svd_loss(updated, w, g) <= before + 1e-9 * before


class TestCompensate:
    @pytest.mark.parametrize("m, n", [(10, 8), (8, 8), (8, 10)], ids=["m>n", "m=n", "m<n"])
    def test_zero_iterations_is_plain_truncation(self, rng, m, n):
        # The plain init takes the top-k eigenvectors of the r x r matrix
        # R @ R.T, not the SVD of W, so its factors differ from the reference
        # in signs and last bits; the product is the same rank-k truncation.
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 20))
        narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T
        pair, trace = compensate(w, narrow, k=3, iters=0)
        ref = truncate_absorb(svd_full(w), 3)
        np.testing.assert_allclose(pair.product(), ref.product(), rtol=0, atol=1e-12 * np.linalg.norm(w))
        assert trace.per_half_step == []
        assert min([trace.initial, *trace.per_half_step]) == trace.initial

    def test_already_optimal_diagonal_stays_flat(self):
        w = np.diag([3.0, 2.0, 1.0, 0.1])
        x = np.eye(4)
        pair, trace = compensate(w, x @ x.T, k=3, iters=1)
        assert abs(trace.initial - 0.1**2) <= 1e-12
        for loss in trace.per_half_step:
            assert abs(loss - trace.initial) <= 1e-10 * trace.initial

    def test_trace_has_two_entries_per_iteration(self, rng):
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(8, 32))
        _, trace = compensate(w, x @ x.T, k=2, iters=3)
        assert len(trace.per_half_step) == 6
        assert all(np.isfinite(v) and v >= 0 for v in trace.per_half_step)

    def test_half_step_monotone_with_full_rank_gram(self, rng):
        for _ in range(10):
            w = rng.normal(size=(16, 16))
            x = rng.normal(size=(16, 48))
            _, trace = compensate(w, x @ x.T, k=5, iters=3)
            losses = [trace.initial, *trace.per_half_step]
            for prev, cur in zip(losses, losses[1:]):
                assert cur <= prev + 1e-9 * trace.initial

    def test_best_pair_never_worse_than_init_rank_deficient_x(self, rng):
        w = rng.normal(size=(12, 10))
        x = rng.normal(size=(10, 4))  # X X^T singular
        pair, trace = compensate(w, x @ x.T, k=3, iters=4)
        assert svd_loss(pair, w, x @ x.T) <= trace.initial * (1 + 1e-12)
        assert min([trace.initial, *trace.per_half_step]) == pytest.approx(
            svd_loss(pair, w, x @ x.T), rel=1e-12
        )

    def test_dominates_plain_truncation_mostly(self, rng):
        wins, trials = 0, 20
        for _ in range(trials):
            w = rng.normal(size=(24, 24))
            x = rng.normal(size=(24, 96))
            k = 7
            pair, trace = compensate(w, x @ x.T, k=k, iters=1)
            plain = plain_truncation_loss(w, x @ x.T, k)
            final = svd_loss(pair, w, x @ x.T)
            assert final <= plain * (1 + 1e-9)
            if final < plain:
                wins += 1
        assert wins >= trials - 1

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(77)
        w = rng.normal(size=(10, 10))
        x = rng.normal(size=(10, 30))
        p1, t1 = compensate(w, x @ x.T, k=3, iters=1)
        p2, t2 = compensate(c * w, x @ x.T, k=3, iters=1)
        np.testing.assert_allclose(p2.product(), c * p1.product(), rtol=1e-8, atol=1e-10)
        assert t2.initial == pytest.approx(c * c * t1.initial, rel=1e-9)
        assert min([t2.initial, *t2.per_half_step]) == pytest.approx(
            c * c * min([t1.initial, *t1.per_half_step]), rel=1e-9
        )

    def test_exact_recovery_when_rank_suffices(self, rng):
        u_sig, vt, w = random_rank_k(rng, 14, 12, 4)
        x = rng.normal(size=(12, 50))
        pair, _ = compensate(w, x @ x.T, k=6, iters=1)
        wx2 = float(np.sum((w @ x) ** 2))
        assert svd_loss(pair, w, x @ x.T) <= 1e-12 * wx2

    def test_whitened_initialization_folds_back(self, rng):
        w = rng.normal(size=(10, 8))
        x = rng.normal(size=(8, 64))
        s = scipy.linalg.cholesky(x @ x.T, lower=True)
        pair = lifted_init(w, x @ x.T, 4, 0.0)
        ref = truncate_absorb(svd_full(w @ s), 4)
        np.testing.assert_allclose(
            pair.product(), ref.product() @ np.linalg.inv(s), atol=1e-10 * np.linalg.norm(w)
        )

    def test_whitened_init_never_selected_if_worse(self, rng):
        # best-pair selection guards the raw objective even with damping
        w = rng.normal(size=(12, 10))
        x = rng.normal(size=(10, 40))
        damping = 1e-5 * float(np.mean(np.diag(x @ x.T)))
        pair, trace = compensate(w, x @ x.T, k=4, iters=2, damping=damping)
        assert svd_loss(pair, w, x @ x.T) <= trace.initial * (1 + 1e-12)


def cholesky_oracle(w, g, k, damping):
    """SVD-LLM's whitened truncation: Cholesky S of G + damping * I, SVD of W @ S, S^-1 folded back."""
    s = scipy.linalg.cholesky(g + damping * np.eye(g.shape[0]), lower=True)
    ref = truncate_absorb(svd_full(w @ s), k)
    vt = scipy.linalg.solve_triangular(s, ref.vt_sigma.T, trans="T", lower=True).T
    return ref.u_sigma @ vt


class TestWhitenedInit:
    @pytest.mark.parametrize("m, n", [(8, 12), (10, 10), (12, 8)], ids=["m<n", "m=n", "m>n"])
    @pytest.mark.parametrize(
        "tokens, rel_damping",
        [(40, 0.0), (40, 1e-5), (5, 1e-5)],
        ids=["T>n-undamped", "T>n-damped", "T<n-damped"],
    )
    def test_matches_cholesky_oracle(self, m, n, tokens, rel_damping):
        rng = np.random.default_rng(m * n + tokens)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, tokens))
        g = x @ x.T
        narrow = (w @ x) @ (w @ x).T if m < n else g
        damping = rel_damping * float(np.mean(np.diag(g)))
        for k in range(1, min(m, n) + 1):
            pair = lifted_init(w, narrow, k, damping)
            np.testing.assert_allclose(
                pair.product(), cholesky_oracle(w, g, k, damping), atol=1e-10 * np.linalg.norm(w)
            )

    @pytest.mark.parametrize("m, n", [(12, 10), (10, 12)], ids=["m>n", "m<n"])
    def test_rank_deficient_weight_gives_finite_factors(self, m, n):
        """A rank-5 W at k = 8, whitened (damping 0) and plain (damping None).

        Both inits cut at A's rounding floor r * eps * s_1. For the plain init
        A = R @ R.T has s_i = sigma_i(W) ** 2, so its floor cuts
        sigma_i <= sqrt(r * eps) * sigma_1, not W's own floor r * eps * sigma_1.
        """
        rng = np.random.default_rng(m)
        k = 8
        w = rng.normal(size=(m, 5)) @ rng.normal(size=(5, n))
        x = rng.normal(size=(n, 40))
        narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T
        sigma = svd_full(w @ x).sigma  # the singular values of W @ S for any S @ S.T = X @ X.T
        # The whitened loss is W @ S's tail; the plain one W's tail, which is zero.
        for damping, tail in ((0.0, float(np.sum(sigma[k:] ** 2))), (None, 0.0)):
            with np.errstate(all="raise"):
                pair = lifted_init(w, narrow, k, damping)
            assert np.all(np.isfinite(pair.u_sigma)) and np.all(np.isfinite(pair.vt_sigma))
            assert abs(svd_loss(pair, w, x @ x.T) - tail) <= 1e-12 * float(sigma @ sigma)

    def test_zero_weight_gives_zero_factors(self):
        # Every singular value of A is 0, at its rounding floor: no division.
        with np.errstate(all="raise"):
            pair = lifted_init(np.zeros((6, 4)), np.eye(4), 3, 1e-5)
        assert not pair.u_sigma.any() and not pair.vt_sigma.any()

    def test_fixed_damping_needs_no_retry(self, rng):
        # Eigenvalues 1, 1, 1, -5e-5 keep G + REL_DAMPING * mean(diag(G)) * I
        # indefinite, so its Cholesky fails; the other Gram has fewer tokens
        # than dims. The init is the output-PCA truncation U_k @ U_k.T @ W
        # either way, U_k the top-k eigenvectors of W @ (G + damping * I) @ W.T.
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        indefinite = q @ np.diag([1.0, 1.0, 1.0, -5e-5]) @ q.T
        indefinite = (indefinite + indefinite.T) / 2
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky(indefinite + REL_DAMPING * 0.75 * np.eye(4), lower=True)
        x = rng.normal(size=(16, 5))
        for g, m in ((indefinite, 6), (x @ x.T, 12)):
            n = g.shape[0]
            w = rng.normal(size=(m, n))
            damping = REL_DAMPING * float(np.mean(np.diag(g)))
            vals, vecs = np.linalg.eigh(w @ (g + damping * np.eye(n)) @ w.T)
            narrow = (w @ x) @ (w @ x).T if m < n else g  # only the x @ x.T case is wide
            for k in range(1, min(m, n) + 1):
                top = vecs[:, np.argsort(-np.abs(vals))[:k]]
                pair = lifted_init(w, narrow, k, damping)
                np.testing.assert_allclose(pair.product(), top @ top.T @ w, atol=1e-10 * np.linalg.norm(w))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_non_finite_gram_raises(self, bad, damping):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 5))
        x = rng.normal(size=(5, 20))
        g = x @ x.T
        g[2, 3] = g[3, 2] = bad
        with pytest.raises(NumericalError):
            compensate(w, g, 3, 1, damping)


class TestSquareProblem:
    @pytest.mark.parametrize("m, n", [(10, 6), (6, 10)], ids=["m>n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_rank_outside_range_raises(self, m, n, damping):
        rng = np.random.default_rng(m)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 20))
        narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T
        for k in (0, min(m, n) + 1):
            with pytest.raises(RankError):
                compensate(w, narrow, k, 1, damping)

    @pytest.mark.parametrize("iters", [0, 1, 2])
    @pytest.mark.parametrize("m, n", [(24, 8), (8, 24)], ids=["m>n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_every_decomposition_is_on_the_narrow_side(self, monkeypatch, m, n, damping, iters):
        shapes, kernels = [], []

        def recording(name):
            fn = getattr(compensation, name)

            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                kernels.append(name)
                return fn(a, *args, **kwargs)
            monkeypatch.setattr(compensation, name, wrapper)

        for name in ("eigh_full", "pinv"):
            recording(name)
        rng = np.random.default_rng(m)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 40))
        narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T
        compensate(w, narrow, 3, iters, damping)
        assert len(shapes) == 1 + 2 * iters   # the init's decomposition, then two per iteration
        assert max(max(shape) for shape in shapes) <= min(m, n)
        # A and K are symmetric; only the V-refit's pinv(U') takes a general SVD.
        assert kernels == ["eigh_full"] + ["eigh_full", "pinv"] * iters

    @pytest.mark.parametrize("iters", [0, 1, 2])
    @pytest.mark.parametrize("m, n", [(24, 8), (8, 8), (8, 24)], ids=["m>n", "m=n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_no_explicit_q_is_formed(self, monkeypatch, m, n, damping, iters):
        calls = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append((np.shape(a), args, kwargs))
            return qr(a, *args, **kwargs)
        monkeypatch.setattr(compensation.np.linalg, "qr", spy)
        rng = np.random.default_rng(m)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 40))
        compensate(w, (w @ x) @ (w @ x).T if m < n else x @ x.T, 3, iters, damping)
        # One triangle-only QR of a tall W; none where Q = I.
        assert calls == ([((m, n), (), {"mode": "r"})] if m > n else [])

    @pytest.mark.parametrize("iters", [0, 1, 2])
    @pytest.mark.parametrize("rel_damping", [None, 1e-5], ids=["plain", "whitened"])
    @pytest.mark.parametrize(
        "w_rank, tokens",
        [(10, 40), (10, 4), (5, 40), (5, 4)],  # 4 tokens: T < k
        ids=["full-rank", "rank-deficient-gram", "rank-deficient-w", "both-rank-deficient"],
    )
    def test_lift_matches_the_explicit_q_lift(self, w_rank, tokens, rel_damping, iters):
        # compensate lifts the selected pair through W; the oracle lifts the
        # same r-space pair through the reduced QR's Q.
        rng = np.random.default_rng(w_rank * tokens + iters)
        m, n, k = 24, 10, 6
        for _ in range(5):
            w = rng.normal(size=(m, w_rank)) @ rng.normal(size=(w_rank, n))
            x = rng.normal(size=(n, tokens))
            g = x @ x.T
            damping = None if rel_damping is None else rel_damping * float(np.mean(np.diag(g)))
            best, trace = compensate(w, g, k, iters, damping)
            losses = [trace.initial, *trace.per_half_step]
            factor, coords = half_step_pairs(square_problem(w, g), k, iters, damping)[losses.index(min(losses))]
            np.testing.assert_allclose(best.product(), explicit_q_lift(w, factor.u, coords).product(),
                                       rtol=0, atol=1e-10 * np.linalg.norm(w))

    @pytest.mark.parametrize("m, n", [(12, 7), (7, 7), (7, 12)], ids=["m>n", "m=n", "m<n"])
    def test_lift_fixes_every_column_sign(self, m, n):
        rng = np.random.default_rng(m * n)
        w = rng.normal(size=(m, 3)) @ rng.normal(size=(3, n))  # rank 3: the rank-4 init cuts its last column
        x = rng.normal(size=(n, 30))
        problem = square_problem(w, (w @ x) @ (w @ x).T if m < n else x @ x.T)
        init, coords = initialize_pair(problem, 4)
        assert not init.u[:, 3].any() and not coords[3].any()  # a zero column is left alone
        flip = np.array([-1.0, 1.0, -1.0, 1.0])
        for factor in (init, update_u(normal_equations(coords, problem.h))):
            pair = problem.lift(factor, coords)
            negated = problem.lift(  # the factor an eigensolver's other signs give
                LeftFactor(u=factor.u * flip, basis=factor.basis * flip[:, None],
                           solve=flip[:, None] * factor.solve * flip, damping=factor.damping),
                coords * flip[:, None],
            )
            assert pair.u_sigma.tobytes() == negated.u_sigma.tobytes()
            assert pair.vt_sigma.tobytes() == negated.vt_sigma.tobytes()
            lead = pair.u_sigma[np.argmax(np.abs(pair.u_sigma), axis=0), np.arange(4)]
            assert np.all(lead[:3] > 0) and not np.any(pair.u_sigma[:, 3])
            np.testing.assert_allclose(pair.product(), explicit_q_lift(w, factor.u, coords).product(),
                                       rtol=0, atol=1e-12)

    def test_lift_sign_ties_go_to_the_first_entry(self):
        problem = SquareProblem(r=np.eye(3), h=np.eye(3))
        u = np.array([[-2.0, 2.0], [1.0, 0.0], [2.0, -2.0]])
        pair = problem.lift(LeftFactor(u=u, basis=np.eye(2, 3), solve=np.eye(2), damping=None), np.eye(2, 3))
        assert pair.u_sigma.tolist() == [[2.0, 2.0], [-1.0, 0.0], [-2.0, -2.0]]
        assert pair.vt_sigma.tolist() == [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert u[0, 0] == -2.0  # the caller's factor is not changed


class TestLossTrace:
    @pytest.mark.parametrize("iters", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "m, n, token_counts",
        [(14, 10, [40]), (14, 10, [7]), (10, 14, [40, 12, 7])],
        ids=["full-rank-gram", "rank-deficient-gram", "wide"],
    )
    @pytest.mark.parametrize("whiten", [False, True], ids=["unwhitened", "whitened"])
    def test_every_loss_is_the_svd_loss_of_its_pair(self, whiten, m, n, token_counts, iters):
        # The trace reads each loss off the U-refit's normal equations; replay
        # the half-steps through the public refits and score each pair directly
        # on the input Gram. A wide W is refit from its output Gram H, here at
        # T > n, m < T < n and T < m (H rank-deficient).
        rng = np.random.default_rng(sum(token_counts) + 10 * iters + 100 * whiten)
        k = 4
        for tokens in token_counts:
            for _ in range(5):
                w = rng.normal(size=(m, n))
                x = rng.normal(size=(n, tokens))
                g = x @ x.T
                narrow = (w @ x) @ (w @ x).T if m < n else g
                damping = 1e-5 * float(np.mean(np.diag(g))) if whiten else None
                best, trace = compensate(w, narrow, k, iters, damping)

                problem = square_problem(w, narrow)
                pairs = [problem.lift(*pair) for pair in half_step_pairs(problem, k, iters, damping)]
                losses = [trace.initial, *trace.per_half_step]
                assert len(losses) == len(pairs) == 2 * iters + 1
                for loss, pair in zip(losses, pairs):
                    assert loss == pytest.approx(svd_loss(pair, w, g), rel=1e-12)

                lowest = pairs[losses.index(min(losses))]
                np.testing.assert_array_equal(best.u_sigma, lowest.u_sigma)
                np.testing.assert_array_equal(best.vt_sigma, lowest.vt_sigma)
