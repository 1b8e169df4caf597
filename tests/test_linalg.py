import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowrank
import lowrank.compensation
import lowrank.model
from lowrank.errors import NumericalError, RankError
from lowrank.linalg import eigh_full, frobenius_dot, frobenius_norm, rank_for_retention
from oracles import pinv, svd_full, truncate_absorb


class TestSvdFull:
    def test_identity(self):
        f = svd_full(np.eye(4))
        np.testing.assert_allclose(f.sigma, np.ones(4), atol=1e-14)

    def test_diagonal(self):
        f = svd_full(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-14)

    def test_reconstruction(self, rng):
        a = rng.normal(size=(7, 4))
        f = svd_full(a)
        err = np.linalg.norm(f.u @ np.diag(f.sigma) @ f.vt - a)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_factors_orthonormal(self, rng):
        a = rng.normal(size=(6, 9))
        f = svd_full(a)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(f.vt @ f.vt.T, np.eye(6), atol=1e-8)

    def test_sigma_sorted_nonnegative(self, rng):
        f = svd_full(rng.normal(size=(5, 8)))
        assert np.all(f.sigma >= 0)
        assert np.all(np.diff(f.sigma) <= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            svd_full(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestEighFull:
    @pytest.mark.parametrize(
        "spectrum, expected",
        [
            # The indefinite A of a whitened init: ascending order puts -5e-5 first.
            ([1.0, -5e-5, 1.0, 1.0], [1.0, 1.0, 1.0, -5e-5]),
            # Signed descending order would put -3 last.
            ([2.0, -3.0, 1e-3, 0.5], [-3.0, 2.0, 0.5, 1e-3]),
        ],
    )
    def test_ordered_by_magnitude_with_signs(self, rng, spectrum, expected):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = (q * spectrum) @ q.T
        f = eigh_full(a)
        np.testing.assert_allclose(f.lam, expected, rtol=1e-10)
        assert np.all(np.diff(np.abs(f.lam)) <= 0)
        np.testing.assert_allclose(f.z.T @ f.z, np.eye(4), atol=1e-12)
        np.testing.assert_allclose((f.z * f.lam) @ f.z.T, a, atol=1e-12)

    @pytest.mark.parametrize("kind", ["psd", "indefinite", "rank-deficient", "rank-deficient-indefinite"])
    @pytest.mark.parametrize("cut", [0.0, 1e-3, 0.3])
    def test_pseudoinverse_matches_pinv(self, rng, kind, cut):
        n = 12
        b = rng.normal(size=(n, 5 if kind.startswith("rank-deficient") else 2 * n))
        signs = np.where(np.arange(b.shape[1]) % 3 == 0, -1.0, 1.0) if "indefinite" in kind else 1.0
        a = (b * signs) @ b.T
        atol = cut * np.linalg.norm(a, 2)
        expected = pinv(a, atol=atol)
        got = eigh_full(a).pinv(atol=atol)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # The same directions are kept: both inverses have the same rank.
        tol = 1e-8 * np.linalg.norm(expected, 2)
        assert np.linalg.matrix_rank(got, tol=tol) == np.linalg.matrix_rank(expected, tol=tol)
        assert np.count_nonzero(eigh_full(a).kept(atol)) == np.linalg.matrix_rank(expected, tol=tol)

    def test_zero_matrix_gives_zero_inverse(self):
        out = eigh_full(np.zeros((4, 4))).pinv()
        assert out.shape == (4, 4)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.ones((2, 3)),
            np.ones(3),
        ],
        ids=["nan", "inf", "non-square", "1-d"],
    )
    def test_bad_input_rejected(self, a):
        with pytest.raises(NumericalError):
            eigh_full(a)

    def test_no_convergence_is_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError):
            eigh_full(np.eye(3))


class TestFrobeniusNorm:
    def test_has_the_bits_of_the_sum_of_squares_where_it_fits(self, rng):
        a = rng.normal(size=(30, 7))
        assert frobenius_norm(a) == math.sqrt(frobenius_dot(a, a))

    @pytest.mark.parametrize("c", [1e200, 1e-200, 2.0**1000, 2.0**-1000])
    def test_scales_where_the_squares_overflow_or_underflow(self, rng, c):
        a = rng.normal(size=(30, 7))
        assert math.isinf(frobenius_dot(c * a, c * a)) or frobenius_dot(c * a, c * a) == 0.0
        assert math.isclose(frobenius_norm(c * a), c * frobenius_norm(a), rel_tol=1e-15, abs_tol=0.0)

    def test_zero_empty_and_non_finite(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0 and frobenius_norm(np.zeros((0, 4))) == 0.0
        assert frobenius_norm(np.array([[1.0, -np.inf]])) == np.inf
        assert math.isnan(frobenius_norm(np.array([[1.0, np.nan]])))


class TestTruncateAbsorb:
    def test_full_rank_reconstructs(self, rng):
        a = rng.normal(size=(5, 9))
        pair = truncate_absorb(svd_full(a), 5)
        err = np.linalg.norm(pair.product() - a)
        assert err <= 1e-10 * np.linalg.norm(a)

    def test_diagonal_drops_smallest(self):
        a = np.diag([3.0, 2.0, 1.0])
        pair = truncate_absorb(svd_full(a), 2)
        assert abs(np.linalg.norm(pair.product() - a, "fro") - 1.0) < 1e-12

    def test_eckart_young_on_random(self, rng):
        a = rng.normal(size=(20, 12))
        f = svd_full(a)
        pair = truncate_absorb(f, 5)
        err2 = np.linalg.norm(pair.product() - a, "fro") ** 2
        tail2 = float(np.sum(f.sigma[5:] ** 2))
        assert abs(err2 - tail2) <= 1e-8 * tail2

    def test_absorbed_factors_are_sqrt_scaled(self, rng):
        a = rng.normal(size=(6, 6))
        f = svd_full(a)
        pair = truncate_absorb(f, 3)
        root = np.sqrt(f.sigma[:3])
        np.testing.assert_allclose(pair.u_sigma, f.u[:, :3] * root, atol=1e-14)
        np.testing.assert_allclose(pair.vt_sigma, root[:, None] * f.vt[:3], atol=1e-14)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_rank_out_of_range(self, k, rng):
        f = svd_full(rng.normal(size=(3, 5)))
        with pytest.raises(RankError):
            truncate_absorb(f, k)


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_thresholded_reciprocal_on_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_zero_matrix_gives_zero(self):
        out = pinv(np.zeros((4, 6)))
        assert out.shape == (6, 4)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(3)],
        ids=["nan", "inf", "1-d"],
    )
    def test_bad_input_rejected(self, a):
        with pytest.raises(NumericalError):
            pinv(a)

    def test_no_convergence_is_numerical_error(self, monkeypatch):
        def fail(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError):
            pinv(np.eye(3))

    def test_moore_penrose_conditions(self, rng):
        a = rng.normal(size=(6, 4))
        ap = pinv(a)
        scale = 1e-8 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a @ ap @ a - a) <= scale
        assert np.linalg.norm(ap @ a @ ap - ap) <= scale
        assert np.linalg.norm((a @ ap).T - a @ ap) <= scale
        assert np.linalg.norm((ap @ a).T - ap @ a) <= scale


@pytest.mark.parametrize("module", [lowrank, lowrank.linalg, lowrank.compensation, lowrank.model])
def test_no_test_oracle_is_in_the_package(module):
    moved = {"SvdFactors", "svd_full", "pinv", "truncate_absorb", "svd_loss", "plain_truncation_loss", "forward"}
    assert not {name for name in moved if hasattr(module, name)}


class TestRankForRetention:
    def test_frozen_examples(self):
        assert rank_for_retention(100, 100, 0.5) == 25
        assert rank_for_retention(4096, 4096, 0.6) == 1228  # floor(0.6*4096^2/8192)
        assert rank_for_retention(8, 8, 0.01) == 1  # clamped from 0

    def test_never_exceeds_min_dim(self):
        assert rank_for_retention(10, 3, 1.0) == 2  # floor(30/13)

    def test_budget_bound(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 80))
            n = int(rng.integers(1, 80))
            r = float(rng.uniform(0.01, 1.0))
            k = rank_for_retention(m, n, r)
            assert 1 <= k <= min(m, n)
            assert k * (m + n) <= r * m * n + (m + n)

    @given(
        m=st.integers(1, 200),
        n=st.integers(1, 200),
        r1=st.floats(0.01, 1.0),
        r2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_retention(self, m, n, r1, r2):
        lo, hi = sorted((r1, r2))
        assert rank_for_retention(m, n, lo) <= rank_for_retention(m, n, hi)

    def test_bad_inputs(self):
        with pytest.raises(RankError):
            rank_for_retention(0, 4, 0.5)
        with pytest.raises(RankError):
            rank_for_retention(4, 4, 0.0)
        with pytest.raises(RankError):
            rank_for_retention(4, 4, 1.5)
