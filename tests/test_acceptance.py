"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from lowrank.allocation import assign_ratios, normalize_importance
from lowrank.calibration import stack_of_batch
from lowrank.cli import run_cli
from lowrank.compensation import (
    compensate,
    initialize_pair,
    normal_equations,
    square_problem,
    update_u,
)
from lowrank.linalg import LowRankPair, pinv, rank_for_retention
from lowrank.model import gen_synthetic, save_calibration
from lowrank.pipeline import PipelineConfig, compress_model, eval_compression
from oracles import plain_truncation_loss, svd_full, svd_loss, truncate_absorb


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label} ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"criterion {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_eckart_young():
    with criterion(1, "Eckart-Young truncation error matches singular tail", budget_seconds=10):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 65))
            n = int(rng.integers(2, 97))
            a = rng.normal(size=(m, n))
            f = svd_full(a)
            tails = np.sqrt(np.cumsum((f.sigma**2)[::-1])[::-1])  # tails[k] = ||sigma[k:]||
            for k in range(1, min(m, n) + 1):
                err = np.linalg.norm(truncate_absorb(f, k).product() - a, "fro")
                oracle = tails[k] if k < len(f.sigma) else 0.0
                assert abs(err - oracle) <= 1e-8 * max(1.0, oracle)


def test_criterion_2_moore_penrose():
    with criterion(2, "pseudoinverse satisfies all four Penrose conditions", budget_seconds=5):
        rng = np.random.default_rng(2)
        cases = []
        for i in range(100):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            if i % 10 == 0:
                cases.append(np.zeros((m, n)))
            elif i % 3 == 0:
                r = int(rng.integers(1, min(m, n) + 1))
                cases.append(rng.normal(size=(m, r)) @ rng.normal(size=(r, n)))  # rank-deficient
            else:
                cases.append(rng.normal(size=(m, n)))
        for a in cases:
            ap = pinv(a)
            tol = 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(a @ ap @ a - a) <= tol
            assert np.linalg.norm(ap @ a @ ap - ap) <= tol
            assert np.linalg.norm((a @ ap).T - a @ ap) <= tol
            assert np.linalg.norm((ap @ a).T - ap @ a) <= tol


def test_criterion_3_lse_optimality():
    with criterion(3, "left-factor refit is the least-squares optimum"):
        rng = np.random.default_rng(3)
        checked_closed_form = 0
        for trial in range(20):
            w = rng.normal(size=(24, 16))
            x = rng.normal(size=(16, 64))
            g = x @ x.T
            k = int(rng.integers(3, 7))
            pair = truncate_absorb(svd_full(w + 0.1 * rng.normal(size=w.shape)), k)
            u_star = w @ update_u(normal_equations(pair.vt_sigma, g)).u  # W @ (the identity's refit at Vt)

            star = LowRankPair(u_sigma=u_star, vt_sigma=pair.vt_sigma)
            base = svd_loss(star, w, g)
            scale = 1e-2 * max(1.0, np.linalg.norm(u_star))
            for _ in range(100):
                delta = rng.normal(size=u_star.shape)
                delta *= scale / np.linalg.norm(delta)
                probe = LowRankPair(u_sigma=u_star + delta, vt_sigma=pair.vt_sigma)
                assert svd_loss(probe, w, g) >= base - 1e-12 * max(1.0, base)

            v = pair.vt_sigma.T
            gram = v.T @ (x @ x.T) @ v
            if np.linalg.cond(gram) < 1e8:
                u_closed = w @ (x @ x.T) @ v @ np.linalg.inv(gram)
                rel = np.linalg.norm(u_star - u_closed) / max(np.linalg.norm(u_closed), 1e-300)
                assert rel <= 1e-6
                checked_closed_form += 1
        assert checked_closed_form >= 15  # the gate must not quietly skip everything


def test_criterion_4_compensation_monotone_and_dominant():
    with criterion(4, "alternating refit is monotone and beats plain truncation"):
        k = rank_for_retention(64, 64, 0.4)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(64, 64))
            x = rng.normal(size=(64, 256))
            g = x @ x.T  # nonsingular
            pair, trace = compensate(w, g, k=k, iters=1)
            losses = [trace.initial, *trace.per_half_step]
            for prev, cur in zip(losses, losses[1:]):
                assert cur <= prev + 1e-9 * trace.initial
            plain = plain_truncation_loss(w, g, k)
            final = svd_loss(pair, w, g)
            assert final <= plain * (1 + 1e-9)
            if final < plain:
                wins += 1
        assert wins >= 95, f"compensation beat plain truncation in only {wins}/100 trials"


def test_criterion_5_stack_of_batch_exhaustive():
    with criterion(5, "bucketing: partition, cardinality, mini_bsz, determinism", budget_seconds=1):
        c = 1.5  # short mantissa: averaging any count of copies is exact
        for n in range(1, 41):
            one_hot = []
            for i in range(n):
                s = np.zeros((1, n))
                s[0, i] = 1.0
                one_hot.append(s)
            constants = [np.full((1, 2), c) for _ in range(n)]
            for m in range(1, 9):
                b = stack_of_batch(one_hot, m, seed=n * 10 + m)
                assert b.mini_bsz == math.ceil(n / m)
                assert b.source_count == n
                if n >= m:
                    assert len(b.buckets) == m
                else:
                    assert len(b.buckets) == n
                assert sum(b.counts) == n
                coverage = sum(bk[0] * ct for bk, ct in zip(b.buckets, b.counts))
                np.testing.assert_allclose(coverage, np.ones(n), atol=1e-12)

                cb = stack_of_batch(constants, m, seed=m)
                for bucket in cb.buckets:
                    assert np.array_equal(bucket, np.full((1, 2), c))

                again = stack_of_batch(one_hot, m, seed=n * 10 + m)
                for x, y in zip(b.buckets, again.buckets):
                    assert np.array_equal(x, y)


def test_criterion_6_ratio_allocation():
    with criterion(6, "importance normalization and retention budget"):
        rng = np.random.default_rng(6)
        for _ in range(50):
            vals = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 30)))
            out = normalize_importance(vals)
            assert abs(np.mean(out) - 1.0) <= 1e-12

        # formula boundaries, exact, with a profile that needs no rescaling
        ratios = assign_ratios([0.0, 2.0], trr=0.6, mrr=0.5, param_counts=[10, 10])
        assert ratios[0] == 0.5  # I_n = 0 -> mrr
        ratios = assign_ratios([1.0, 1.0], trr=0.6, mrr=0.5, param_counts=[10, 10])
        assert ratios == [0.6, 0.6]  # I_n = 1 -> trr

        for _ in range(50):
            n = int(rng.integers(2, 16))
            i_n = rng.uniform(0.0, 2.5, size=n)
            i_n = i_n / i_n.mean()
            params = rng.integers(50, 50_000, size=n)
            trr = float(rng.uniform(0.2, 0.95))
            mrr = trr * float(rng.uniform(0.3, 1.0))
            out = np.array(assign_ratios(i_n, trr, mrr, params))
            achieved = float(out @ params / params.sum())
            assert abs(achieved - trr) <= 0.01 * trr
            assert np.all(out >= mrr - 1e-12) and np.all(out <= 1.0 + 1e-12)

        out = assign_ratios(rng.uniform(0.0, 2.0, size=6), trr=0.7, mrr=0.7, param_counts=[3] * 6)
        assert out == [0.7] * 6  # mrr = trr degenerates to the uniform baseline


def test_criterion_7_end_to_end_dominance(tmp_path):
    with criterion(7, "full pipeline beats both uniform baselines on held-out MSE", budget_seconds=120):
        beat_vanilla = beat_comp_only = 0
        for seed in range(100):
            model, samples = gen_synthetic(seed=seed, blocks=8, d=64, h=128, n_samples=64, tokens=64)
            calib = tmp_path / f"c{seed}.st"
            save_calibration(calib, samples)
            mse = {}
            configs = {
                "full": PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True, seed=seed),
                "vanilla": PipelineConfig(trr=0.6, mrr=0.6, iterations=0, whiten=False, seed=seed),
                "comp_only": PipelineConfig(trr=0.6, mrr=0.6, iterations=1, whiten=False, seed=seed),
            }
            for name, cfg in configs.items():
                compressed, _, _ = compress_model(model, calib, cfg)
                mse[name] = eval_compression(model, compressed, calib).output_mse
            calib.unlink()
            if mse["full"] < mse["vanilla"]:
                beat_vanilla += 1
            if mse["full"] < mse["comp_only"]:
                beat_comp_only += 1
        assert beat_vanilla >= 90, f"beat vanilla truncation in only {beat_vanilla}/100 seeds"
        assert beat_comp_only >= 90, f"beat compensation-only in only {beat_comp_only}/100 seeds"


def test_criterion_8_whitening_identity():
    with criterion(8, "whitened truncation error equals the whitened singular tail"):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(4, 24))
            m = int(rng.integers(4, 32))
            t = n + int(rng.integers(8, 64))  # full-rank Gram
            w = rng.normal(size=(m, n))
            x = rng.normal(size=(n, t))
            sigma_ws = svd_full(w @ x).sigma  # the singular values of W @ S for any S @ S.T = X @ X.T
            narrow = (w @ x) @ (w @ x).T if m < n else x @ x.T  # the Gram on W's narrow side
            problem = square_problem(w, narrow)
            for k in range(1, min(m, n) + 1):
                pair = problem.lift(*initialize_pair(problem, k, 0.0))
                err = math.sqrt(svd_loss(pair, w, x @ x.T))
                oracle = float(np.sqrt(np.sum(sigma_ws[k:] ** 2)))
                assert abs(err - oracle) <= 1e-6 * max(1.0, oracle)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "two identical CLI runs produce bit-identical outputs"):
        base = tmp_path / "base"
        assert run_cli([
            "synth", "--out", str(base), "--seed", "42", "--blocks", "4",
            "--hidden-dim", "32", "--mlp-dim", "64", "--samples", "32", "--tokens", "16",
        ]) == 0
        flags = [
            "compress", "--model", str(base / "model.json"), "--calib", str(base / "calib.st"),
            "--target-retention", "0.6", "--mrr", "0.5", "--iters", "1",
            "--bucket-size", "32", "--whiten", "--seed", "42",
        ]
        assert run_cli(flags + ["--out", str(tmp_path / "r1")]) == 0
        assert run_cli(flags + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("plan.json", "model.st", "model.json", "traces.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"
