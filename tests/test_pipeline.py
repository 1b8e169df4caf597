from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lowrank import pipeline
from lowrank.compensation import plain_truncation_loss
from lowrank.errors import ManifestMismatch, ShapeError
from lowrank.model import forward, gen_synthetic, save_calibration
from lowrank.calibration import stack_of_batch
from lowrank.pipeline import (
    BLAS_THREAD_VARS,
    PipelineConfig,
    calibrate,
    compress_model,
    eval_compression,
    split_calibration,
    write_traces_csv,
)


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
        cfg = PipelineConfig(trr=1.0, mrr=1.0, iterations=0, whiten=False, seed=0)
        compressed, plan, traces = compress_model(model, calib, cfg)
        assert plan.achieved_retention == 1.0
        assert traces == {}
        for s in samples:
            ref = forward(model, s)
            out = forward(compressed, s)
            assert np.linalg.norm(out - ref) <= 1e-8 * max(np.linalg.norm(ref), 1e-300)

    def test_uniform_tau0_equals_plain_truncation(self, small_setup):
        model, samples, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.6, iterations=0, whiten=False, seed=0)
        compressed, plan, traces = compress_model(model, calib, cfg)
        report = eval_compression(model, compressed, calib)
        _, heldout = split_calibration(samples)
        grams, _ = calibrate(model, list(heldout))
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
        cfg = PipelineConfig(trr=0.5, mrr=0.4, iterations=2, whiten=True, seed=3)
        compressed, plan, traces = compress_model(model, calib, cfg)
        fit, _ = split_calibration(samples)
        grams, _ = calibrate(model, stack_of_batch(list(fit), cfg.bucket_size, cfg.seed).buckets)
        for name, trace in traces.items():
            block_id = int(name.split(".")[1])
            slot = name.split(".")[2]
            k = plan.slot_ranks()[name]
            w = model.slot_weight(block_id, slot)
            plain = plain_truncation_loss(w, grams[name], k)
            assert trace.best() <= plain * (1 + 1e-9)

    def test_deterministic_given_seed(self, small_setup):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True, seed=11)
        c1, p1, t1 = compress_model(model, calib, cfg)
        c2, p2, t2 = compress_model(model, calib, cfg)
        assert p1.to_json() == p2.to_json()
        for name in c1.tensors:
            np.testing.assert_array_equal(c1.tensors[name], c2.tensors[name])
        assert {k: v.per_half_step for k, v in t1.items()} == {
            k: v.per_half_step for k, v in t2.items()
        }

    def test_worker_pool_matches_sequential(self, small_setup, monkeypatch):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True, seed=4)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        c1, p1, _ = compress_model(model, calib, cfg)
        assert pools == []
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        c2, p2, _ = compress_model(model, calib, cfg)
        assert pools == [4]  # min(4 cpus, 8 slots, MAX_WORKERS)
        assert p1.to_json() == p2.to_json()
        for name in c1.tensors:
            np.testing.assert_array_equal(c1.tensors[name], c2.tensors[name])

    def test_no_thread_variable_runs_slots_serially(self, small_setup, monkeypatch):
        model, _, calib = small_setup

        def no_pool(*args, **kwargs):
            raise AssertionError("compress built a slot worker pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        _, _, traces = compress_model(model, calib, PipelineConfig(trr=0.6, mrr=0.5, seed=4))
        assert len(traces) > 1

    def test_traces_cover_compressed_slots(self, small_setup):
        model, _, calib = small_setup
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=2, whiten=False, seed=0)
        _, plan, traces = compress_model(model, calib, cfg)
        planned = {name for name, k in plan.slot_ranks().items() if k is not None}
        assert set(traces) == planned
        for trace in traces.values():
            assert len(trace.per_half_step) == 4

    def test_config_validation(self, small_setup):
        model, _, calib = small_setup
        with pytest.raises(ShapeError):
            compress_model(model, calib, PipelineConfig(trr=1.2))
        with pytest.raises(ShapeError):
            compress_model(model, calib, PipelineConfig(trr=0.5, mrr=0.6))
        with pytest.raises(ShapeError):
            compress_model(model, calib, PipelineConfig(trr=0.5, iterations=-1))

    def test_dimension_mismatch_rejected(self, tmp_path, small_setup):
        model, _, _ = small_setup
        bad = tmp_path / "bad.st"
        save_calibration(bad, np.zeros((4, 8, 7)))
        with pytest.raises(ShapeError):
            compress_model(model, bad, PipelineConfig(trr=0.6))

    def test_mrr_defaults_to_trr_minus_tenth(self):
        assert PipelineConfig(trr=0.6).resolved_mrr() == pytest.approx(0.5)
        assert PipelineConfig(trr=0.05).resolved_mrr() == pytest.approx(0.05)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "env, cpus, tasks, expected",
        [
            ({}, 4, 8, 1),  # BLAS owns every core: serial slots
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
            ({"OPENBLAS_NUM_THREADS": "1"}, 16, 20, 8),  # MAX_WORKERS
            ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 4, 8, 2),
            ({"OPENBLAS_NUM_THREADS": "3"}, 8, 8, 2),
            ({"OMP_NUM_THREADS": "1"}, 4, 8, 4),
            ({"MKL_NUM_THREADS": "2"}, 4, 8, 2),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 8, 2),
            ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 4, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "abc"}, 4, 8, 1),
            ({"OPENBLAS_NUM_THREADS": "0"}, 4, 8, 1),
            ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 8, 1),
            ({"OPENBLAS_NUM_THREADS": ""}, 4, 8, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 4, 8, 1),  # more BLAS threads than cpus
        ],
    )
    def test_rule(self, monkeypatch, env, cpus, tasks, expected):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        assert pipeline._worker_count(tasks) == expected

    def test_usable_cpus_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
        assert pipeline._usable_cpus() == 3
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        assert pipeline._usable_cpus() == 64


class TestEval:
    def test_self_comparison_is_perfect(self, small_setup):
        model, _, calib = small_setup
        report = eval_compression(model, model, calib)
        for entry in report.per_slot:
            assert entry.frob_rel_err == 0.0
            assert entry.data_rel_err == 0.0
        assert report.output_mse == 0.0
        assert report.output_cosine_mean == pytest.approx(1.0, abs=1e-12)
        assert report.overlap_statistic == pytest.approx(1.0)
        assert report.achieved_retention == 1.0

    def test_zero_weights_give_unit_data_error(self, small_setup, tmp_path):
        model, samples, calib = small_setup
        import copy

        zeroed = copy.deepcopy(model)
        for name in zeroed.tensors:
            zeroed.tensors[name] = np.zeros_like(zeroed.tensors[name])
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
        cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=True, seed=5)
        compressed, plan, _ = compress_model(model, calib, cfg)
        report = eval_compression(model, compressed, calib)
        doc = report.to_json()
        assert set(doc) == {"per_slot", "end_to_end", "params"}
        assert np.isfinite(report.output_mse) and report.output_mse >= 0
        assert 0.0 <= report.overlap_statistic <= 1.0
        assert report.achieved_retention == pytest.approx(plan.achieved_retention, abs=1e-12)
        assert report.params_compressed < report.params_original

    def test_structural_mismatch_rejected(self, small_setup):
        model, _, calib = small_setup
        other, _ = gen_synthetic(seed=1, blocks=3, d=32, h=64, n_samples=2, tokens=4)
        with pytest.raises(ManifestMismatch):
            eval_compression(model, other, calib)


def test_traces_csv_round_trip(tmp_path, small_setup):
    model, _, calib = small_setup
    cfg = PipelineConfig(trr=0.6, mrr=0.5, iterations=1, whiten=False, seed=2)
    _, _, traces = compress_model(model, calib, cfg)
    path = tmp_path / "traces.csv"
    write_traces_csv(traces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "slot,half_step,loss"
    name = next(iter(traces))
    rows = [ln.split(",") for ln in lines[1:] if ln.startswith(name + ",")]
    assert [r[1] for r in rows] == ["0", "1", "2"]
    assert float(rows[0][2]) == traces[name].initial
    assert float(rows[1][2]) == traces[name].per_half_step[0]
