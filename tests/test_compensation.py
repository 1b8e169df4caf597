import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lowrank.compensation as compensation
from lowrank.compensation import (
    SquareProblem,
    Subspace,
    compensate,
    initialize_pair,
    square_problem,
    u_step,
    v_step,
)
from lowrank.errors import NumericalError, RankError, ShapeError
from lowrank.linalg import LowRankPair
from lowrank.pipeline import REL_DAMPING
from oracles import explicit_q_lift, pinv, plain_truncation_loss, svd_full, svd_loss, truncate_absorb


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
    return problem.lift(*initialize_pair(problem, k, damping)[:2])


def half_step_pairs(problem, k, iters, damping):
    """Every (factor, coordinates) pair ``compensate`` scores, replayed through the public steps.

    The init's pair, then the U-step's and the V-step's of each round, starting
    from the init's basis Z_k.
    """
    u, coords, q = initialize_pair(problem, k, damping)
    pairs = [(u, coords)]
    space = Subspace.of(q, problem.h)
    for _ in range(iters):
        u, kept = u_step(space)
        pairs.append((u, space.q.T))
        space = v_step(space, kept, problem.h)
        pairs.append((space.q, space.q.T))
    return pairs


def u_refit(w, vt, g):
    """The U-step of the identity on the input Gram G at Vt's row space, lifted through W.

    Returns the pair (W @ U', Q.T), Q an orthonormal basis of that row space:
    the refit of W at a fixed Vt is W times the refit of the identity (each
    row of U solves its own least-squares problem, linear in the matching row
    of W), and the U-step reads Vt only through its row space.
    """
    q = np.linalg.qr(vt.T)[0]
    u, _ = u_step(Subspace.of(q, g))
    return LowRankPair(u_sigma=w @ u, vt_sigma=q.T)


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


class TestUStep:
    """The U-refit of W at a fixed Vt on the input Gram G, as ``u_refit`` forms it."""

    def test_recovers_exact_rank_k(self, rng):
        u_sig, vt, w = random_rank_k(rng, 10, 8, 3)
        x = rng.normal(size=(8, 30))  # full row rank
        # consistent system: the refit must reproduce W exactly on the factor
        assert np.linalg.norm(u_refit(w, vt, x @ x.T).product() - w) <= 1e-8 * np.linalg.norm(w)

    def test_identity_x_matches_normal_equation(self, rng):
        w = rng.normal(size=(9, 9))
        pair = truncate_absorb(svd_full(w + rng.normal(size=(9, 9))), 4)
        v = pair.vt_sigma.T
        closed = w @ v @ np.linalg.inv(v.T @ v) @ v.T
        np.testing.assert_allclose(u_refit(w, pair.vt_sigma, np.eye(9)).product(), closed,
                                   atol=1e-8 * np.linalg.norm(closed))

    def test_loss_never_increases(self, rng):
        w = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 64))
        g = x @ x.T
        pair = truncate_absorb(svd_full(w), 4)
        before = svd_loss(pair, w, g)
        assert svd_loss(u_refit(w, pair.vt_sigma, g), w, g) <= before + 1e-9 * before

    def test_beats_random_perturbations(self, rng):
        w = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 64))
        g = x @ x.T
        star = u_refit(w, truncate_absorb(svd_full(w), 4).vt_sigma, g)
        u_star = star.u_sigma
        base = svd_loss(star, w, g)
        scale = 0.01 * max(1.0, np.linalg.norm(u_star))
        for _ in range(100):
            delta = rng.normal(size=u_star.shape)
            delta *= scale / np.linalg.norm(delta)
            perturbed = LowRankPair(u_sigma=u_star + delta, vt_sigma=star.vt_sigma)
            assert svd_loss(perturbed, w, g) >= base - 1e-12 * max(1.0, base)

    @pytest.mark.parametrize(
        "t, log_scale",
        [(3, 0.0), (5, 0.0), (40, 0.0), (3, 4.0), (40, 4.0)],
        ids=["T<k", "T=k", "T>k", "T<k-rows-scaled", "T>k-rows-scaled"],
    )
    def test_gram_form_matches_token_form(self, t, log_scale):
        # T < k makes S = Q.T G Q singular; rows of X scaled by e^[-4, 4]
        # square S's condition number up to e^16 on top. A whitened start
        # spans part of G's null space, which is where inverting S's rounding
        # noise would show. Both forms solve at the same coordinates Q.T.
        rng = np.random.default_rng(t + int(log_scale))
        m, n, k = 12, 10, 5
        for _ in range(50):
            w = rng.normal(size=(m, n))
            x = rng.normal(size=(n, t)) * np.exp(rng.uniform(-log_scale, log_scale, size=(n, 1)))
            g = x @ x.T
            whitened = lifted_init(w, g, k, 1e-5 * float(np.mean(np.diag(g))))
            random = LowRankPair(u_sigma=rng.normal(size=(m, k)), vt_sigma=rng.normal(size=(k, n)))
            for pair in (whitened, random):
                refit = u_refit(w, pair.vt_sigma, g)
                token_form = (pinv(x.T @ refit.vt_sigma.T) @ (w @ x).T).T
                assert np.linalg.norm(refit.u_sigma - token_form) <= 1e-6 * np.linalg.norm(token_form)


    def test_loss_and_noise_bound_keep_their_bits_across_blas_threads(self, blas_threads):
        """The refit loss and S's rounding-noise bound are the same bits at 1 and 2 BLAS threads.

        The operands are those of a desk w1 slot at rank 243 (r = 512), long
        enough that a BLAS dot product would split its sum across threads.
        """
        rng = np.random.default_rng(0)
        k, r = 243, 512
        a = rng.standard_normal((r, r))
        h = a @ a.T
        draws = [(rng.standard_normal((r, k)), rng.standard_normal((r, k))) for _ in range(4)]
        seen = []
        for threads in (1, 2):
            blas_threads(threads)
            spaces = [(Subspace.of(q, h), u) for q, u in draws]
            seen.append([(space.noise(), space.loss(u, float(np.trace(h)))) for space, u in spaces])
        assert seen[0] == seen[1]


class TestVStep:
    """The V-refit M = pinv(U') after a U-step, as the orthonormal basis Q' of span(U')."""

    @pytest.mark.parametrize("m, n", [(14, 10), (10, 10), (10, 14)], ids=["m>n", "m=n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_pair_is_u_times_pinv_u(self, m, n, damping):
        """Each V-step pair's product is U' @ pinv(U') of the U-step before it, in r-space and lifted."""
        rng = np.random.default_rng(m * n)
        k = 4
        for _ in range(5):
            w = rng.normal(size=(m, n))
            x = rng.normal(size=(n, 40))
            problem = square_problem(w, (w @ x) @ (w @ x).T if m < n else x @ x.T)
            pairs = half_step_pairs(problem, k, 3, damping)
            for (u_factor, _), (v_factor, coords) in zip(pairs[1::2], pairs[2::2]):
                projector = u_factor @ pinv(u_factor)
                np.testing.assert_allclose(v_factor @ coords, projector, rtol=0, atol=1e-10)
                np.testing.assert_allclose(v_factor.T @ v_factor, np.eye(k), rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    problem.lift(v_factor, coords).product(),
                    explicit_q_lift(w, u_factor, pinv(u_factor)).product(),
                    rtol=0, atol=1e-10 * np.linalg.norm(w),
                )

    def test_recovers_exact_rank_k(self, rng):
        u_sig, vt, w = random_rank_k(rng, 9, 11, 3)
        x = rng.normal(size=(11, 40))
        problem = square_problem(w, (w @ x) @ (w @ x).T)  # wide: H_r = H has W's column space
        q = np.linalg.qr(rng.normal(size=(9, 3)))[0]  # a random start: one round finds W's column space
        space = Subspace.of(q, problem.h)
        space = v_step(space, u_step(space)[1], problem.h)
        pair = problem.lift(space.q, space.q.T)
        assert np.linalg.norm(pair.product() - w) <= 1e-8 * np.linalg.norm(w)

    @pytest.mark.parametrize("m, n, tokens", [(16, 16, 64), (16, 12, 8), (12, 16, 8)],
                             ids=["nonsingular", "tall-singular", "wide-singular"])
    def test_loss_never_increases(self, m, n, tokens):
        """Each refit minimizes the loss over its own factor, so no half-step raises it, singular G or not."""
        rng = np.random.default_rng(m * n + tokens)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, tokens))
        g = x @ x.T  # singular when tokens < n
        problem = square_problem(w, g if m >= n else (w @ x) @ (w @ x).T)
        losses = [svd_loss(problem.lift(*pair), w, g) for pair in half_step_pairs(problem, 4, 3, None)]
        scale = float(np.sum((w @ x) ** 2))  # tr(H_r)
        assert all(after <= before + 1e-12 * scale for before, after in zip(losses, losses[1:]))

    @pytest.mark.parametrize("m, n", [(12, 10), (10, 14)], ids=["m>n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_rank_deficient_gram_keeps_cut_columns_zero(self, m, n, damping):
        """T = 3 < k = 6 tokens leave H_r at rank 3: S^+ cuts 3 directions, and every V-step keeps them zero."""
        rng = np.random.default_rng(m + n)
        k, tokens = 6, 3
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, tokens))
        g = x @ x.T
        problem = square_problem(w, (w @ x) @ (w @ x).T if m < n else g)
        q = initialize_pair(problem, k, damping)[2]
        space = Subspace.of(q, problem.h)
        for _ in range(3):
            _, kept = u_step(space)
            assert kept.shape == (k, tokens)
            space = v_step(space, kept, problem.h)
            assert not space.q[:, tokens:].any() and not space.y[:, tokens:].any()
            np.testing.assert_allclose(space.q[:, :tokens].T @ space.q[:, :tokens], np.eye(tokens),
                                       rtol=0, atol=1e-12)
            pair = problem.lift(space.q, space.q.T)
            assert not pair.u_sigma[:, tokens:].any() and not pair.vt_sigma[tokens:].any()
            assert np.all(np.isfinite(pair.u_sigma)) and np.all(np.isfinite(pair.vt_sigma))
            # the kept directions carry the whole fit: H_r's range, where the data are
            assert svd_loss(pair, w, g) <= 1e-10 * float(np.sum((w @ x) ** 2))


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

        def recording(owner, name):
            fn = getattr(owner, name)

            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                kernels.append(name)
                return fn(a, *args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        recording(compensation, "eigh_full")
        recording(compensation.np.linalg, "qr")
        recording(compensation.np.linalg, "solve")
        rng = np.random.default_rng(m)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 40))
        narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T
        compensate(w, narrow, 3, iters, damping)
        # The init's one decomposition: W.T @ W's for a tall slot, whose plain
        # init reads R @ R.T = diag(s ** 2) off it and whose whitened init adds
        # A's; A's alone otherwise. Then two per iteration.
        init = 2 if m > n and damping is not None else 1
        assert len(shapes) == init + 2 * iters
        assert max(max(shape) for shape in shapes) <= min(m, n)
        # W.T @ W, A and S are symmetric; the V-step orthonormalizes an r x k basis. No step takes an SVD or a solve.
        assert kernels == ["eigh_full"] * init + ["eigh_full", "qr"] * iters

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
        # No QR of W, of any shape: only each V-step's reduced QR of an r x 3
        # basis, r = min(m, n).
        assert calls == [((min(m, n), 3), (), {})] * iters

    @pytest.mark.parametrize("m, n", [(12, 8), (40, 12), (300, 100)])
    def test_tall_reduction_is_a_square_root_of_the_gram(self, m, n):
        # R = diag(s) @ V.T from W.T @ W = V @ diag(s ** 2) @ V.T: R.T @ R = W.T @ W, R @ R.T = diag(s ** 2).
        w = np.random.default_rng(m).normal(size=(m, n))
        problem = square_problem(w, np.eye(n))
        wtw = w.T @ w
        np.testing.assert_allclose(problem.r.T @ problem.r, wtw, rtol=0, atol=1e-12 * np.abs(wtw).max())
        np.testing.assert_allclose(problem.r @ problem.r.T, np.diag(problem.s2), rtol=0, atol=1e-12 * problem.s2[0])
        assert np.all(problem.s2 > 0) and np.all(np.diff(problem.s2) <= 0)
        np.testing.assert_allclose(np.sqrt(problem.s2), svd_full(w).sigma, rtol=1e-12)

    @pytest.mark.parametrize("m, n", [(12, 8), (24, 10), (200, 60)])
    @pytest.mark.parametrize("damping", [None, 0.0, 1e-3], ids=["plain", "whitened-undamped", "whitened"])
    def test_rank_3_tall_weight_gives_3_rows_and_zero_columns(self, m, n, damping):
        # The cut rows of R are exact zeros, so every column past rank 3 is zero, not rounding noise.
        rng = np.random.default_rng(m + n)
        w = rng.normal(size=(m, 3)) @ rng.normal(size=(3, n))
        x = rng.normal(size=(n, 40))
        problem = square_problem(w, x @ x.T)
        assert np.count_nonzero(problem.r.any(axis=1)) == 3 and not problem.r[3:].any()
        assert np.count_nonzero(problem.s2) == 3
        for iters in (0, 1, 2):
            pair, _ = compensate(w, x @ x.T, 5, iters, damping)
            assert pair.u_sigma[:, :3].any(axis=0).all() and not pair.u_sigma[:, 3:].any()
            assert pair.vt_sigma[:3].any(axis=1).all() and not pair.vt_sigma[3:].any()

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    @pytest.mark.parametrize("m, n", [(12, 8), (8, 12)], ids=["m>n", "m<n"])
    @pytest.mark.parametrize("damping", [None, 1e-3], ids=["plain", "whitened"])
    def test_scale_equivariance_far_from_one(self, c, m, n, damping):
        # W.T @ W squares the scale, and so do H_r and Y: at 1e+-100 nothing may overflow or underflow.
        rng = np.random.default_rng(m * n)
        w = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 30))

        def run(w):
            return compensate(w, (w @ x) @ (w @ x).T if m < n else x @ x.T, 3, 2, damping)

        (p1, t1), (p2, t2) = run(w), run(c * w)
        np.testing.assert_allclose(p2.product(), c * p1.product(), rtol=1e-12)
        np.testing.assert_allclose([t2.initial, *t2.per_half_step],
                                   [c * c * loss for loss in (t1.initial, *t1.per_half_step)], rtol=1e-12)

    @pytest.mark.parametrize("m, n", [(24, 10), (300, 100)])
    def test_ill_conditioned_tall_weight_keeps_the_plain_init(self, m, n):
        # sigma from 1 down to 1e-6: sigma ** 2 spans 1e12 and stays over the cut, sqrt(n * eps) * sigma_1.
        rng = np.random.default_rng(n)
        u = np.linalg.qr(rng.normal(size=(m, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0]
        w = (u * np.logspace(0, -6, n)) @ v.T
        x = rng.normal(size=(n, 3 * n))
        g = x @ x.T
        wx2 = float(np.sum((w @ x) ** 2))
        problem = square_problem(w, g)
        assert np.count_nonzero(problem.s2) == n
        for k in range(1, n + 1):
            pair = problem.lift(*initialize_pair(problem, k)[:2])
            _, trace = compensate(w, g, k, 0)
            assert abs(trace.initial - svd_loss(pair, w, g)) <= 1e-12 * wx2
            assert abs(svd_loss(pair, w, g) - plain_truncation_loss(w, g, k)) <= 1e-12 * wx2

    @pytest.mark.parametrize("iters", [0, 1, 2])
    @pytest.mark.parametrize("rel_damping", [None, 1e-5], ids=["plain", "whitened"])
    @pytest.mark.parametrize(
        "w_rank, tokens",
        [(10, 40), (10, 4), (5, 40), (5, 4)],  # 4 tokens: T < k
        ids=["full-rank", "rank-deficient-gram", "rank-deficient-w", "both-rank-deficient"],
    )
    def test_lift_matches_the_explicit_q_lift(self, w_rank, tokens, rel_damping, iters):
        # compensate lifts the selected pair through W; the oracle lifts the
        # same r-space pair through an explicit Q = W @ pinv(R).
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
            np.testing.assert_allclose(best.product(), explicit_q_lift(w, factor, coords).product(),
                                       rtol=0, atol=1e-13 * np.linalg.norm(w))

    @pytest.mark.parametrize("m, n", [(12, 7), (7, 7), (7, 12)], ids=["m>n", "m=n", "m<n"])
    def test_lift_fixes_every_column_sign(self, m, n):
        rng = np.random.default_rng(m * n)
        w = rng.normal(size=(m, 3)) @ rng.normal(size=(3, n))  # rank 3: the rank-4 init cuts its last column
        x = rng.normal(size=(n, 30))
        problem = square_problem(w, (w @ x) @ (w @ x).T if m < n else x @ x.T)
        init, init_coords, basis = initialize_pair(problem, 4)
        assert not init[:, 3].any() and not init_coords[3].any()  # a zero column is left alone
        space = Subspace.of(basis, problem.h)
        u_factor, kept = u_step(space)
        v_space = v_step(space, kept, problem.h)
        flip = np.array([-1.0, 1.0, -1.0, 1.0])
        for factor, coords in ((init, init_coords), (u_factor, space.q.T), (v_space.q, v_space.q.T)):
            pair = problem.lift(factor, coords)
            negated = problem.lift(factor * flip, coords * flip[:, None])  # an eigensolver's other signs
            assert pair.u_sigma.tobytes() == negated.u_sigma.tobytes()
            assert pair.vt_sigma.tobytes() == negated.vt_sigma.tobytes()
            lead = pair.u_sigma[np.argmax(np.abs(pair.u_sigma), axis=0), np.arange(4)]
            assert np.all(lead[:3] > 0) and not np.any(pair.u_sigma[:, 3])
            np.testing.assert_allclose(pair.product(), explicit_q_lift(w, factor, coords).product(),
                                       rtol=0, atol=1e-12)

    def test_lift_sign_ties_go_to_the_first_entry(self):
        problem = SquareProblem(r=np.eye(3), h=np.eye(3))
        u = np.array([[-2.0, 2.0], [1.0, 0.0], [2.0, -2.0]])
        pair = problem.lift(u, np.eye(2, 3))
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
