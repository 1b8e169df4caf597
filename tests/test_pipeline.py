import json
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import pipeline
from lowrank.container import dump_json
from lowrank.errors import BudgetError, IoError, ManifestMismatch, NumericalError, ShapeError
from lowrank.linalg import LowRankPair
from lowrank.model import gen_synthetic, load_calibration, save_calibration, slot_name, walk_blocks
from lowrank.calibration import stack_of_batch
from lowrank.runtime import BlasControl, blas_controls
from lowrank.compensation import LossTrace
from lowrank.pipeline import (
    PipelineConfig,
    calibrate,
    calibrate_file,
    compress_model,
    eval_compression,
    split_calibration,
    write_traces_csv,
)
from oracles import forward, plain_truncation_loss


def stored_arrays(model):
    """Each slot's arrays under the names ``save_model`` writes: a dense matrix, or a pair's ``.u`` and ``.vt``."""
    out = {}
    for block_id, slot in model.slot_ids():
        op, name = model.slot(block_id, slot), slot_name(block_id, slot)
        out.update({f"{name}.u": op.u_sigma, f"{name}.vt": op.vt_sigma} if isinstance(op, LowRankPair) else {name: op})
    return out


def assert_same_arrays(m1, m2):
    a1, a2 = stored_arrays(m1), stored_arrays(m2)
    assert a1.keys() == a2.keys()
    for name in a1:
        np.testing.assert_array_equal(a1[name], a2[name])


def fake_controls(*counts):
    """BLAS controls over a list of thread counts, which the test can read."""
    state = list(counts)

    def control(i):
        return BlasControl(f"lib{i}", lambda: state[i], lambda n: state.__setitem__(i, n))

    return [control(i) for i in range(len(state))], state


@pytest.fixture
def real_blas_at_two(blas_threads):
    """Every loaded OpenBLAS set to 2 threads for the test, then put back."""
    return blas_threads(2)


def compress_file(model, calib, cfg, seed):
    """``compress_model`` from a fresh walk of the file ``calib``, in 32 buckets shuffled by ``seed``."""
    return compress_model(model, calibrate_file(model, calib, 32, seed), cfg)


def input_grams(model, samples):
    """Every slot's input Gram X @ X.T, formed from the walk's slot inputs."""
    grams = {}

    def visit_slot(block_id, slot, x, out):
        grams[slot_name(block_id, slot)] = x @ x.T

    walk_blocks(model, samples, visit_slot)
    return grams


@pytest.fixture
def small_setup(tmp_path):
    model, samples = gen_synthetic(seed=10, blocks=4, d=32, h=64, n_samples=20, tokens=16)
    calib = tmp_path / "calib.st"
    save_calibration(calib, samples)
    return model, samples, calib


class TestSplit:
    def test_last_fifth_held_out(self, rng):
        samples = rng.normal(size=(10, 3, 4))
        fit, held = split_calibration(samples)
        assert fit.shape[0] == 8 and held.shape[0] == 2
        np.testing.assert_array_equal(held, samples[8:])

    def test_tiny_sets_keep_everything_for_fit(self, rng):
        samples = rng.normal(size=(4, 3, 4))
        fit, held = split_calibration(samples)
        assert fit.shape[0] == 4 and held.shape[0] == 0


class TestCompressModel:
    def test_identity_config_preserves_forward(self, small_setup):
        model, samples, calib = small_setup
        cfg = PipelineConfig(trr=1.0, mrr=1.0, iterations=0, whiten=False)
        compressed, plan, traces = compress_file(model, calib, cfg, 0)
        assert plan.achieved_retention == 1.0
        assert traces == {}
        for s in samples:
            ref = forward(model, s)
            out = forward(compressed, s)
            assert np.linalg.norm(out - ref) <= 1e-8 * max(np.linalg.norm(ref), 1e-300)

    def test_uniform_tau0_equals_plain_truncation(self, small_setup):
        model, samples, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.6, iterations=0, whiten=False)
        compressed, plan, traces = compress_file(model, calib, cfg, 0)
        report = eval_compression(model, compressed, calib)
        _, heldout = split_calibration(samples)
        grams = input_grams(model, list(heldout))
        for entry in report.per_slot:
            block_id = int(entry.slot.split(".")[1])
            slot = entry.slot.split(".")[2]
            k = plan.slot_ranks()[entry.slot]
            w = model.slot_weight(block_id, slot)
            g = grams[entry.slot]
            expected = np.sqrt(plain_truncation_loss(w, g, k) / np.sum((w @ g) * w))
            assert entry.data_rel_err == pytest.approx(expected, rel=1e-9)

    def test_per_slot_dominance_over_plain_truncation(self, small_setup):
        model, samples, calib = small_setup
        cfg = PipelineConfig(trr=0.5, mrr=0.4, iterations=2, whiten=True)
        compressed, plan, traces = compress_file(model, calib, cfg, 3)
        fit, _ = split_calibration(samples)
        grams = input_grams(model, stack_of_batch(list(fit), 32, 3).buckets)
        for name, trace in traces.items():
            block_id = int(name.split(".")[1])
            slot = name.split(".")[2]
            k = plan.slot_ranks()[name]
            w = model.slot_weight(block_id, slot)
            plain = plain_truncation_loss(w, grams[name], k)
            assert min([trace.initial, *trace.per_half_step]) <= plain * (1 + 1e-9)

    def test_deterministic_given_seed(self, small_setup):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True)
        c1, p1, t1 = compress_file(model, calib, cfg, 11)
        c2, p2, t2 = compress_file(model, calib, cfg, 11)
        assert p1 == p2
        assert_same_arrays(c1, c2)
        assert {k: v.per_half_step for k, v in t1.items()} == {
            k: v.per_half_step for k, v in t2.items()
        }

    def test_worker_pool_matches_sequential(self, small_setup, monkeypatch, recorded_pools):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])
        c1, p1, _ = compress_file(model, calib, cfg, 4)
        assert recorded_pools == []
        controls, state = fake_controls(1)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        c2, p2, _ = compress_file(model, calib, cfg, 4)
        assert recorded_pools == [4]  # min(4 cpus, 8 slots, MAX_WORKERS)
        assert state == [1]
        assert p1 == p2
        assert_same_arrays(c1, c2)

    def test_no_blas_control_runs_slots_serially(self, small_setup, monkeypatch):
        model, _, calib = small_setup

        def no_pool(*args, **kwargs):
            raise AssertionError("compress built a slot worker pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])
        _, _, traces = compress_file(model, calib, PipelineConfig(trr=0.6, mrr=0.5), 4)
        assert len(traces) > 1

    def test_slot_tasks_run_at_the_pinned_count(self, small_setup, monkeypatch, real_blas_at_two):
        model, _, calib = small_setup
        seen = []
        compensate = pipeline.compensate

        def recording(*args, **kwargs):
            seen.append([c.get() for c in real_blas_at_two])
            return compensate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compensate", recording)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        compress_file(model, calib, PipelineConfig(trr=0.6, mrr=0.5), 4)
        assert len(seen) == 8
        assert all(counts == [1] * len(real_blas_at_two) for counts in seen)  # 2 workers x 1
        assert [c.get() for c in real_blas_at_two] == [2] * len(real_blas_at_two)

    @pytest.mark.parametrize("fail", [False, True])
    def test_blas_counts_restored(self, small_setup, monkeypatch, real_blas_at_two, fail):
        model, _, calib = small_setup
        compensate = pipeline.compensate
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if fail and len(calls) == 3:
                raise NumericalError("injected")
            return compensate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compensate", failing)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        cfg = PipelineConfig(trr=0.6, mrr=0.5)
        if fail:
            with pytest.raises(NumericalError, match="injected"):
                compress_file(model, calib, cfg, 4)
        else:
            compress_file(model, calib, cfg, 4)
        assert [c.get() for c in real_blas_at_two] == [2] * len(real_blas_at_two)

    def test_grams_freed_once_unused(self, small_setup, monkeypatch):
        model, _, calib = small_setup
        refs = {}
        calibrate_orig, build_plan_orig = pipeline.calibrate, pipeline.build_plan

        def recording_calibrate(*args, **kwargs):
            calibration = calibrate_orig(*args, **kwargs)
            refs.update({name: weakref.ref(g) for name, g in calibration.grams.items()})
            return calibration

        def block0_dense(*args, **kwargs):
            plan = build_plan_orig(*args, **kwargs)
            plan.blocks[0].ranks = {slot: None for slot in plan.blocks[0].ranks}
            return plan

        alive_per_refit = []
        compensate = pipeline.compensate

        def recording_compensate(*args, **kwargs):
            alive_per_refit.append({name for name, ref in refs.items() if ref() is not None})
            return compensate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "calibrate", recording_calibrate)
        monkeypatch.setattr(pipeline, "build_plan", block0_dense)
        monkeypatch.setattr(pipeline, "compensate", recording_compensate)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])  # serial: one refit at a time
        _, _, traces = compress_file(model, calib, PipelineConfig(trr=0.6, mrr=0.5), 4)
        planned = list(traces)
        assert planned == [f"blocks.{b}.{s}" for b in (1, 2, 3) for s in ("w1", "w2")]
        # Dense slots' Grams are dead before the first refit, and each refit
        # frees its own Gram when it finishes.
        assert alive_per_refit == [set(planned[i:]) for i in range(len(planned))]
        assert all(ref() is None for ref in refs.values())

    def test_one_calibration_serves_every_configuration(self, small_setup):
        """Criterion 7's four configurations compressed from copies of one calibration match fresh walks, bit for bit."""
        model, _, calib = small_setup
        shared = calibrate_file(model, calib, 32, 7)
        for cfg in (PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True),
                    PipelineConfig(trr=0.6, mrr=0.6, iterations=0, whiten=False),
                    PipelineConfig(trr=0.6, mrr=0.6, iterations=1, whiten=False),
                    PipelineConfig(trr=0.6, mrr=0.6, iterations=1, whiten=True)):
            c1, p1, t1 = compress_model(model, shared._replace(grams=dict(shared.grams)), cfg)
            c2, p2, t2 = compress_file(model, calib, cfg, 7)
            assert p1 == p2 and t1 == t2
            a1, a2 = stored_arrays(c1), stored_arrays(c2)
            assert a1.keys() == a2.keys()
            for name in a1:
                assert a1[name].tobytes() == a2[name].tobytes()
        assert len(shared.grams) == 8  # every call consumed only its copy

    @pytest.mark.parametrize("how", ["with_grams=False", "consumed"])
    def test_a_missing_gram_is_a_shape_error_naming_the_slot(self, small_setup, how):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5)
        if how == "consumed":
            calibration = calibrate_file(model, calib, 32, 4)
            compress_model(model, calibration, cfg)
            assert calibration.grams == {}
        else:
            calibration = calibrate_file(model, calib, 32, 4, with_grams=False)
        with pytest.raises(ShapeError, match=r"^slot blocks\.0\.w1: the calibration has no Gram for it"):
            compress_model(model, calibration, cfg)

    def test_traces_cover_compressed_slots(self, small_setup):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=2, whiten=False)
        _, plan, traces = compress_file(model, calib, cfg, 0)
        planned = {name for name, k in plan.slot_ranks().items() if k is not None}
        assert set(traces) == planned
        for trace in traces.values():
            assert len(trace.per_half_step) == 4

    def test_config_validation(self, small_setup):
        model, _, calib = small_setup
        calibration = calibrate_file(model, calib, 32, 0)
        with pytest.raises(BudgetError):
            compress_model(model, calibration, PipelineConfig(trr=1.2))
        with pytest.raises(BudgetError):
            compress_model(model, calibration, PipelineConfig(trr=0.5, mrr=0.6))
        with pytest.raises(ShapeError):
            compress_model(model, calibration, PipelineConfig(trr=0.5, iterations=-1))
        with pytest.raises(ShapeError):
            compress_model(model, calibration, PipelineConfig(trr=0.5, importance_mode="sin"))

    def test_dimension_mismatch_rejected(self, tmp_path, small_setup):
        model, _, _ = small_setup
        bad = tmp_path / "bad.st"
        save_calibration(bad, np.zeros((4, 8, 7)))
        with pytest.raises(ShapeError):
            calibrate_file(model, bad, 32, 0)

    def test_mrr_defaults_to_trr_minus_tenth(self):
        assert PipelineConfig(trr=0.6).resolved_mrr() == pytest.approx(0.5)
        assert PipelineConfig(trr=0.05).resolved_mrr() == pytest.approx(0.05)


class TestWorkerCount:
    # env: the BLAS the slot stage finds, one (thread count, pinned count) pair
    # per loaded OpenBLAS; expected: the slot worker count.
    @pytest.mark.parametrize(
        "env, cpus, tasks, expected",
        [
            ([], 4, 8, 1),  # no library found: serial, nothing pinned
            ([(1, 1)], 4, 8, 4),
            ([(4, 1)], 4, 3, 3),
            ([(16, 2)], 16, 20, 8),  # MAX_WORKERS
            ([(4, 4)], 4, 0, 1),
            ([(2, 1)], 2, 8, 2),  # 8 slots on 2 CPUs: 2 workers x 1 thread
            ([(8, 4)], 8, 2, 2),  # 2 slots on 8 CPUs: 2 workers x 4 threads
            ([(4, 1)], 4, 8, 4),  # lowered to the workers' share
            ([(1, 1)], 8, 2, 2),  # a count of 1 is never raised
            ([(3, 3)], 8, 2, 2),  # nor any count below the workers' share
            ([(1, 1), (4, 1)], 4, 8, 4),  # every library is pinned
            ([(1, 1), (8, 4)], 8, 2, 2),  # each library from its own count
            ([(4, 4)], 4, 1, 1),
            ([(8, 4)], 4, 1, 1),  # more threads than CPUs
        ],
    )
    def test_rule(self, monkeypatch, env, cpus, tasks, expected):
        counts = [count for count, _ in env]
        controls, state = fake_controls(*counts)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        with pipeline._pool_stage(tasks) as n:
            assert (n, state) == (expected, [pinned for _, pinned in env])
        assert state == counts

    def test_slot_stage_is_exclusive(self, monkeypatch):
        controls, state = fake_controls(2)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        events = []

        def second():
            with pipeline._pool_stage(8):
                events.append("second entered")

        with pipeline._pool_stage(8):
            t = threading.Thread(target=second)
            t.start()
            t.join(timeout=0.5)
            assert t.is_alive()  # blocked while the first stage holds the pinned counts
            events.append("first left")
        t.join(timeout=10)
        assert not t.is_alive()
        assert events == ["first left", "second entered"]
        assert state == [2]

    def test_concurrent_compress_restores_counts(self, small_setup, monkeypatch):
        model, _, calib = small_setup
        controls, state = fake_controls(2)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        seen = []
        compensate = pipeline.compensate

        def recording(*args, **kwargs):
            seen.append(list(state))
            return compensate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compensate", recording)
        cfg = PipelineConfig(trr=0.6, mrr=0.5)
        expected = compress_file(model, calib, cfg, 4)[0]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(compress_file(model, calib, cfg, 4)[0]))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 4
        assert state == [2]
        assert seen == [[1]] * (8 * 5)
        for compressed in results:
            assert_same_arrays(compressed, expected)

    def test_usable_cpus_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
        assert pipeline._usable_cpus() == 3
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        assert pipeline._usable_cpus() == 64


# small_setup's widest slot dimension is h = 64, so 64-token chunks: four of
# its 16 fitting buckets (16 tokens each) per chunk.
FOUR_BUCKET_CHUNKS = 8 * 64 * 64


class RecordingPool(ThreadPoolExecutor):
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)


@pytest.fixture
def recorded_pools(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.sizes


class TestChunkedWalk:
    @pytest.fixture
    def buckets(self, small_setup):
        model, samples, _ = small_setup
        return stack_of_batch(list(split_calibration(samples)[0]), 32, seed=4).buckets

    def test_pool_matches_serial(self, small_setup, buckets, monkeypatch, recorded_pools):
        model, _, _ = small_setup
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", FOUR_BUCKET_CHUNKS)
        assert [len(chunk) for chunk in pipeline._walk_chunks(model, buckets)] == [4, 4, 4, 4]
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True)

        def run():
            calibration = calibrate(model, buckets)
            return calibration, compress_model(model, calibration._replace(grams=dict(calibration.grams)), cfg)

        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])
        (g1, d1, i1), (c1, p1, _) = run()
        assert recorded_pools == []
        controls, state = fake_controls(1)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        (g2, d2, i2), (c2, p2, _) = run()
        assert recorded_pools == [4, 4]  # the walk, the slot stage
        assert state == [1]
        assert list(g1) == list(g2) and d1 == d2 and i1 == i2
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes()
        assert p1 == p2
        a1, a2 = stored_arrays(c1), stored_arrays(c2)
        assert a1.keys() == a2.keys()
        for name in a1:
            assert a1[name].tobytes() == a2[name].tobytes()

    def test_chunks_match_one_walk(self, small_setup, buckets, monkeypatch):
        model, _, _ = small_setup
        grams, mean_diag, importances = calibrate(model, buckets)
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", FOUR_BUCKET_CHUNKS)
        chunked_grams, chunked_diag, chunked_importances = calibrate(model, buckets)
        assert list(chunked_grams) == list(grams)
        for name, g in grams.items():
            np.testing.assert_allclose(chunked_grams[name], g, rtol=1e-12, atol=0)
            assert chunked_diag[name] == pytest.approx(mean_diag[name], rel=1e-12)
        # With whole 16-token buckets the BLAS computes each column's cosine
        # the same at either width, and the mean is taken over the joined
        # columns, so no bit of an importance moves.
        assert chunked_importances == importances

    def test_gram_free_walk_is_chunked_too(self, small_setup, buckets, monkeypatch, recorded_pools):
        model, _, _ = small_setup
        importances = calibrate(model, buckets).importances
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", FOUR_BUCKET_CHUNKS)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: fake_controls(2)[0])
        grams, mean_diag, chunked = calibrate(model, buckets, with_grams=False)
        assert grams == {} and mean_diag == {} and chunked == importances
        assert recorded_pools == [2]

    @pytest.mark.parametrize(
        "shape, chunk_bytes, tokens",
        [((32, 64), 8 * 64 * 31, 8), ((512, 2048), None, 32)],  # one token short of d; desk's widths
        ids=["narrower-than-h", "desk"],
    )
    def test_narrow_chunks_walk_in_one_piece(self, shape, chunk_bytes, tokens, monkeypatch, recorded_pools):
        """No chunk but the last is narrower than the d x d Grams, and one chunk keeps the BLAS count.

        Here the byte target alone would cut chunks narrower than d tokens;
        the chunk width is raised to d instead.
        """
        d, h = shape
        model, samples = gen_synthetic(seed=5, blocks=2, d=d, h=h, n_samples=24, tokens=tokens)
        if chunk_bytes is not None:
            monkeypatch.setattr(pipeline, "CHUNK_BYTES", chunk_bytes)
        assert pipeline.CHUNK_BYTES // (8 * h) < d
        chunks = pipeline._walk_chunks(model, samples)
        assert len(chunks) > 1 and sum(map(len, chunks)) == len(samples)
        assert all(len(chunk) * tokens >= d for chunk in chunks[:-1])

        controls, state = fake_controls(2)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: controls)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
        seen = []
        walk = pipeline.walk_blocks
        monkeypatch.setattr(pipeline, "walk_blocks", lambda *args: seen.append(state[0]) or walk(*args))
        assert len(pipeline._walk_chunks(model, chunks[0])) == 1
        calibrate(model, chunks[0])
        assert recorded_pools == [] and seen == [2] and state == [2]  # one worker, the BLAS count as it was


    def test_grams_do_not_depend_on_the_order_chunks_finish(self, small_setup, buckets, monkeypatch,
                                                           recorded_pools):
        """Chunk 0 finishes last, so every other chunk's Grams arrive first; each sum is still the serial one."""
        model, _, _ = small_setup
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", FOUR_BUCKET_CHUNKS)
        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])
        serial = calibrate(model, buckets)

        monkeypatch.setattr(pipeline, "blas_controls", lambda: fake_controls(1)[0])
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        others_done, finished = threading.Event(), []
        walk = pipeline.walk_blocks

        def chunk_zero_last(model, chunk, *visitors):
            first = np.shares_memory(chunk, buckets[0])
            if first:
                assert others_done.wait(timeout=60)
            out = walk(model, chunk, *visitors)
            finished.append(first)
            if len(finished) == 3:
                others_done.set()
            return out

        monkeypatch.setattr(pipeline, "walk_blocks", chunk_zero_last)
        pooled = calibrate(model, buckets)
        assert recorded_pools == [2] and finished == [False, False, False, True]
        assert list(pooled.grams) == list(serial.grams)
        for name, gram in serial.grams.items():
            assert pooled.grams[name].tobytes() == gram.tobytes()
        assert pooled.mean_diag == serial.mean_diag and pooled.importances == serial.importances

    def test_ordered_sum_under_contention(self):
        """Eight threads hand in every chunk's terms in a shuffled order; each sum is the in-order one, bit for bit."""
        rng = np.random.default_rng(3)
        names, chunks = ["a", "b", "c"], 40
        # magnitudes 1e-8 to 1e8, so another order of the sums moves the bits
        terms = {(name, i): rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-8, 9)
                 for name in names for i in range(chunks)}
        expected = {}
        for name in names:
            expected[name] = terms[name, 0].copy()
            for i in range(1, chunks):
                expected[name] += terms[name, i]
        order = list(terms)
        rng.shuffle(order)
        merge = pipeline._OrderedSum()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(lambda key: merge.add(*key, terms[key].copy()), order, timeout=60))
        finally:
            sys.setswitchinterval(previous)
        assert sorted(merge.sums) == names
        for name in names:
            assert merge.sums[name].tobytes() == expected[name].tobytes()

    @given(d=st.integers(2, 16), h=st.integers(2, 16), n=st.integers(1, 30), tokens=st.integers(1, 20),
           chunk_bytes=st.integers(8, 8 * 16 * 64))
    @settings(max_examples=60, deadline=None)
    def test_chunks_are_consecutive_slices_of_one_size(self, d, h, n, tokens, chunk_bytes):
        model, _ = gen_synthetic(seed=0, blocks=1, d=d, h=h, n_samples=1, tokens=1)
        samples = np.arange(n * tokens * d, dtype=np.float64).reshape(n, tokens, d)
        with mock.patch.object(pipeline, "CHUNK_BYTES", chunk_bytes):
            chunks = pipeline._walk_chunks(model, samples)
        size = max(1, max(chunk_bytes // (8 * max(d, h)), min(d, h)) // tokens)
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= size
        np.testing.assert_array_equal(np.concatenate(chunks), samples)


class TestEval:
    def test_self_comparison_is_perfect(self, small_setup):
        model, _, calib = small_setup
        report = eval_compression(model, model, calib)
        for entry in report.per_slot:
            assert entry.frob_rel_err == 0.0
            assert entry.data_rel_err == 0.0
        assert report.end_to_end.output_mse == 0.0
        assert report.end_to_end.output_cosine_mean == pytest.approx(1.0, abs=1e-12)
        assert report.end_to_end.overlap_statistic == pytest.approx(1.0)
        assert report.params.achieved_retention == 1.0

    def test_zero_weights_give_unit_data_error(self, small_setup, tmp_path):
        model, samples, calib = small_setup
        import copy

        zeroed = copy.deepcopy(model)
        for block_id, slot in zeroed.slot_ids():
            zeroed.blocks[block_id][slot] = np.zeros_like(zeroed.slot(block_id, slot))
        report = eval_compression(model, zeroed, calib)
        for entry in report.per_slot:
            assert entry.data_rel_err == pytest.approx(1.0)
            assert entry.frob_rel_err == pytest.approx(1.0)
        # zero weights leave only the residual path
        _, heldout = split_calibration(samples)
        out = forward(zeroed, heldout[0])
        np.testing.assert_allclose(out, heldout[0], atol=1e-15)

    def test_report_fields_finite_and_consistent(self, small_setup):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True)
        compressed, plan, _ = compress_file(model, calib, cfg, 5)
        report = eval_compression(model, compressed, calib)
        doc = json.loads(dump_json(report, "the eval report"))
        assert list(doc) == ["per_slot", "end_to_end", "params", "scored_on_all"]
        assert doc["scored_on_all"] is False
        assert np.isfinite(report.end_to_end.output_mse) and report.end_to_end.output_mse >= 0
        assert 0.0 <= report.end_to_end.overlap_statistic <= 1.0
        assert report.params.achieved_retention == pytest.approx(plan.achieved_retention, abs=1e-12)
        assert report.params.compressed < report.params.original

    def test_structural_mismatch_rejected(self, small_setup):
        model, _, calib = small_setup
        other, _ = gen_synthetic(seed=1, blocks=3, d=32, h=64, n_samples=2, tokens=4)
        with pytest.raises(ManifestMismatch):
            eval_compression(model, other, calib)


@pytest.fixture
def two_chunk_eval(tmp_path):
    """A model, its compressed form and a calibration file whose held-out tail is 2 walk chunks.

    h = 1024 makes the chunks 256 tokens wide, and the tail is 8 samples of 64 tokens.
    """
    model, samples = gen_synthetic(seed=2, blocks=4, d=64, h=1024, n_samples=40, tokens=64)
    calib = tmp_path / "calib.st"
    save_calibration(calib, samples)
    compressed, _, _ = compress_file(model, calib, PipelineConfig(trr=0.6), 2)
    heldout = split_calibration(samples)[1]
    assert [len(chunk) for chunk in pipeline._walk_chunks(model, heldout)] == [4, 4]
    return model, compressed, calib, heldout


def one_piece_eval(original, compressed, heldout):
    """The held-out report formed in one piece: one walk of each model over every held-out token."""
    tiny = np.finfo(np.float64).tiny
    per_slot = {}

    def visit_slot(block_id, slot, x, wx):
        w, w_hat = original.slot_weight(block_id, slot), compressed.slot_weight(block_id, slot)
        what_x = compressed.slot(block_id, slot) @ x
        per_slot[slot_name(block_id, slot)] = (
            float(np.linalg.norm(w_hat - w) / max(np.linalg.norm(w), tiny)),
            float(np.linalg.norm(what_x - wx) / max(np.linalg.norm(wx), tiny)),
        )

    out_orig = walk_blocks(original, heldout, visit_slot).T
    out_comp = forward(compressed, heldout.reshape(-1, heldout.shape[2]))
    norms = np.linalg.norm(out_orig, axis=1) * np.linalg.norm(out_comp, axis=1)
    cosine = float(np.mean(np.sum(out_orig * out_comp, axis=1) / np.maximum(norms, tiny)))
    overlap = pipeline._histogram_overlap(out_orig.ravel(), out_comp.ravel())
    return per_slot, float(np.mean((out_orig - out_comp) ** 2)), cosine, overlap


class TestChunkedEval:
    def test_matches_the_one_piece_eval(self, two_chunk_eval):
        model, compressed, calib, heldout = two_chunk_eval
        per_slot, mse, cosine, overlap = one_piece_eval(model, compressed, heldout)
        report = eval_compression(model, compressed, calib)
        # Every token's output is the same at either walk width, and the
        # end-to-end numbers are formed from the joined outputs as before.
        assert report.end_to_end.output_mse == mse
        assert report.end_to_end.output_cosine_mean == cosine
        assert report.end_to_end.overlap_statistic == overlap
        # The squared norms are summed per chunk and without the BLAS: only the order of the sums moves.
        assert [entry.slot for entry in report.per_slot] == list(per_slot)
        for entry in report.per_slot:
            frob, data = per_slot[entry.slot]
            assert entry.frob_rel_err == pytest.approx(frob, rel=1e-12, abs=0)
            assert entry.data_rel_err == pytest.approx(data, rel=1e-12, abs=0)

    def test_chunks_run_on_the_pool_at_one_blas_thread(self, two_chunk_eval, monkeypatch, real_blas_at_two,
                                                       recorded_pools):
        model, compressed, calib, _ = two_chunk_eval
        self.assert_pooled(model, compressed, calib, 2, monkeypatch, real_blas_at_two, recorded_pools)

    def test_one_chunk_tail_runs_on_the_pool(self, two_chunk_eval, tmp_path, monkeypatch, real_blas_at_two,
                                             recorded_pools):
        model, compressed, calib, _ = two_chunk_eval
        samples = load_calibration(calib)[:20]
        assert [len(chunk) for chunk in pipeline._walk_chunks(model, split_calibration(samples)[1])] == [4]
        one_chunk = tmp_path / "one_chunk.st"
        save_calibration(one_chunk, samples)
        self.assert_pooled(model, compressed, one_chunk, 1, monkeypatch, real_blas_at_two, recorded_pools)

    @staticmethod
    def assert_pooled(model, compressed, calib, chunks, monkeypatch, real_blas_at_two, recorded_pools):
        """Every walk and every slot's W_hat product run on pool threads at 2 workers x 1 BLAS thread.

        None runs on the calling thread, and the report is the serial one.
        """
        monkeypatch.setattr(pipeline, "blas_controls", lambda: [])
        serial = eval_compression(model, compressed, calib)
        assert recorded_pools == []

        monkeypatch.setattr(pipeline, "blas_controls", blas_controls)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        calls = []  # (what, on the calling thread, BLAS counts)
        walk, product = pipeline.walk_blocks, LowRankPair.product

        def record(what):
            calls.append((what, threading.current_thread() is threading.main_thread(),
                          [c.get() for c in real_blas_at_two]))

        def recording_walk(walked, *args, **kwargs):
            record("original walk" if walked is model else "compressed walk")
            return walk(walked, *args, **kwargs)

        def recording_product(pair):
            record("W_hat")
            return product(pair)

        monkeypatch.setattr(pipeline, "walk_blocks", recording_walk)
        monkeypatch.setattr(LowRankPair, "product", recording_product)
        assert eval_compression(model, compressed, calib) == serial
        assert recorded_pools == [2]
        lowrank_slots = sum(isinstance(compressed.slot(*slot_id), LowRankPair) for slot_id in model.slot_ids())
        assert lowrank_slots > 0
        pooled = [False, [1] * len(real_blas_at_two)]
        assert sorted(calls) == sorted(
            [("original walk", *pooled)] * chunks + [("compressed walk", *pooled)] * chunks
            + [("W_hat", *pooled)] * lowrank_slots
        )
        assert [c.get() for c in real_blas_at_two] == [2] * len(real_blas_at_two)


@pytest.mark.parametrize("case", ["lowrank", "dense", "dense-difference-overflows"])
def test_weight_error_of_an_overflowing_slot_raises_without_warning(case):
    """A slot whose ||W||^2 or W_hat - W overflows is a NumericalError naming it, with no warning."""
    rng = np.random.default_rng(0)
    if case == "dense-difference-overflows":
        w = rng.uniform(1.0, 1.5, (64, 32)) * 1e308
        w_hat = -w
    else:
        w = rng.standard_normal((64, 32)) * 1e160
        w_hat = LowRankPair(rng.standard_normal((64, 4)), rng.standard_normal((4, 32)))
        if case == "dense":
            w_hat = w_hat.product()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"slot blocks\.1\.w2: .* not finite"):
            pipeline._weight_error("blocks.1.w2", w, w_hat)


def test_weight_error_holds_one_slot_sized_temporary():
    """One weight-error task on a 2048 x 512 slot holds W_hat - W and nothing else of its size."""
    m, n, k = 2048, 512, 243
    rng = np.random.default_rng(1)
    w = rng.standard_normal((m, n))
    pair = LowRankPair(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    expected = pipeline._weight_error("blocks.0.w1", w, pair)  # imports and first-call caches are not the task's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert pipeline._weight_error("blocks.0.w1", w, pair) == expected
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m * n


@pytest.mark.parametrize("stage, bound", [("calibrate", 2), ("eval", 3)])
def test_walk_holds_few_token_matrices(two_chunk_eval, monkeypatch, stage, bound):
    """The traced peak of a serial walk stays under ``bound`` of a chunk's widest token matrix.

    That matrix is w1's h x T output (h = 1024, T = 256 tokens: 2 MiB). A
    relu walk holds it, overwritten by the hidden state, plus d x T
    matrices; eval's slot visit adds ||W_hat x - W x||'s h x T difference.
    Holding the pre-activation, hidden state, update and block output of a
    block until one visit at its end takes 2.6 and 3.5 of them.
    """
    model, compressed, calib, heldout = two_chunk_eval
    monkeypatch.setattr(pipeline, "blas_controls", lambda: [])  # one chunk at a time, on this thread
    widest = 8 * 1024 * 256
    if stage == "calibrate":
        def run():
            calibrate(model, heldout)
    else:
        def run():
            eval_compression(model, compressed, calib)
    run()  # imports and first-call caches are not the walk's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < bound * widest

@pytest.mark.parametrize("stage", ["calibrate", "eval"])
def test_every_visited_operand_is_c_ordered(small_setup, monkeypatch, stage):
    """Every array the walks hand a visitor is C-contiguous, block 0's input included.

    A per-token sum's order follows its operand's layout, so with one layout
    block 0 sums in the order of every later block.
    """
    model, samples, calib = small_setup
    walk, seen = pipeline.walk_blocks, []

    def checking_walk(model, samples, visit_slot=None, visit_block=None):
        def on_slot(block_id, slot, *arrays):
            seen.append((block_id, slot, [a.flags.c_contiguous for a in arrays]))
            if visit_slot is not None:
                visit_slot(block_id, slot, *arrays)

        def on_block(block_id, *arrays):
            seen.append((block_id, "block", [a.flags.c_contiguous for a in arrays]))
            if visit_block is not None:
                visit_block(block_id, *arrays)

        return walk(model, samples, on_slot, on_block)

    if stage == "calibrate":
        monkeypatch.setattr(pipeline, "walk_blocks", checking_walk)
        calibrate(model, samples)
    else:
        compressed, _, _ = compress_file(model, calib, PipelineConfig(trr=0.6), 2)
        monkeypatch.setattr(pipeline, "walk_blocks", checking_walk)
        eval_compression(model, compressed, calib)
    assert {(0, "w1"), (0, "w2"), (0, "block")} <= {(block_id, kind) for block_id, kind, _ in seen}
    assert [(block_id, kind) for block_id, kind, c_ordered in seen if not all(c_ordered)] == []


def test_walk_and_eval_keep_their_bits_at_any_blas_thread_count(tmp_path, monkeypatch, blas_threads):
    """A one-chunk calibrate and the eval report are byte-identical at 1, 2 and 4 BLAS threads per worker.

    A pool stage gives each of its at most MAX_WORKERS workers usable CPUs //
    workers threads, capped at the count it finds; with the CPUs reported as
    MAX_WORKERS times the set count, every worker runs at that count. The
    calibrate walk is one task, and eval has 2 walks and 4 weight errors.
    """
    model, samples = gen_synthetic(seed=2, blocks=2, d=512, h=2048, n_samples=5, tokens=128)
    calib = tmp_path / "calib.st"
    save_calibration(calib, samples)
    fit = split_calibration(samples)[0]
    assert len(pipeline._walk_chunks(model, fit)) == 1
    compressed, _, _ = compress_file(model, calib, PipelineConfig(trr=0.6), 2)
    walk, counts = pipeline.walk_blocks, []

    def recording_walk(*args, **kwargs):
        counts.append([c.get() for c in pipeline.blas_controls()])
        return walk(*args, **kwargs)

    monkeypatch.setattr(pipeline, "walk_blocks", recording_walk)
    digests = {}
    for threads in (1, 2, 4):
        controls = blas_threads(threads)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: pipeline.MAX_WORKERS * threads)
        counts.clear()
        grams, mean_diag, importances = calibrate(model, fit)
        report = eval_compression(model, compressed, calib)
        assert counts == [[threads] * len(controls)] * 3  # calibrate's walk and eval's two
        digests[threads] = ({name: g.tobytes() for name, g in grams.items()}, mean_diag, importances, report)
    assert digests[1] == digests[2] == digests[4]


def test_traces_csv_round_trip(tmp_path, small_setup):
    model, _, calib = small_setup
    cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=False)
    _, _, traces = compress_file(model, calib, cfg, 2)
    path = tmp_path / "traces.csv"
    write_traces_csv(traces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "slot,half_step,loss"
    name = next(iter(traces))
    rows = [ln.split(",") for ln in lines[1:] if ln.startswith(name + ",")]
    assert [r[1] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][2]) == traces[name].initial
    assert float(rows[1][2]) == traces[name].per_half_step[0]


def test_unwritable_traces_csv_is_an_io_error_naming_it(tmp_path):
    path = tmp_path / "missing" / "traces.csv"
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(path))}: "):
        write_traces_csv({"blocks.0.w1": LossTrace(1.0, [0.5])}, path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("step", [0, 2])
def test_nonfinite_trace_writes_no_csv(tmp_path, bad, step):
    losses = [1.0, 0.5, 0.25]
    losses[step] = bad
    traces = {"blocks.0.w1": LossTrace(1.0, [0.5]), "blocks.1.w2": LossTrace(losses[0], losses[1:])}
    with pytest.raises(NumericalError, match=f"slot blocks.1.w2: half-step {step} has a non-finite loss"):
        write_traces_csv(traces, tmp_path / "traces.csv")
    assert list(tmp_path.iterdir()) == []
