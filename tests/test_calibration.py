import warnings
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank.calibration import dump_activations, gram_accumulate, stack_of_batch
from lowrank.container import load_container
from lowrank.errors import NumericalError, ShapeError
from lowrank import pipeline
from lowrank.model import RMS_EPS, gen_synthetic, rms_norm, slot_name, walk_blocks
from lowrank.pipeline import calibrate


def one_hot_samples(n, tokens=3):
    """Sample i carries a 1 in column i, so bucket means reveal the partition."""
    out = []
    for i in range(n):
        s = np.zeros((tokens, n))
        s[:, i] = 1.0
        out.append(s)
    return out


class TestStackOfBatch:
    def test_eight_into_four_buckets(self):
        samples = one_hot_samples(8)
        b = stack_of_batch(samples, 4, seed=0)
        assert len(b.buckets) == 4
        assert b.mini_bsz == 2
        assert b.counts == [2, 2, 2, 2]
        # each bucket is the mean of two distinct samples, and together they
        # cover all eight exactly once
        coverage = np.zeros(8)
        for bucket, count in zip(b.buckets, b.counts):
            member_weight = bucket[0]  # row of per-sample indicators / count
            assert np.isclose(member_weight.sum(), 1.0)
            assert np.count_nonzero(member_weight) == 2
            coverage += member_weight * count
        np.testing.assert_allclose(coverage, np.ones(8))

    def test_n_equals_m_is_permutation(self, rng):
        samples = [rng.normal(size=(3, 4)) for _ in range(4)]
        b = stack_of_batch(samples, 4, seed=5)
        assert b.mini_bsz == 1
        matched = set()
        for bucket in b.buckets:
            hits = [i for i, s in enumerate(samples) if np.array_equal(bucket, s)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == {0, 1, 2, 3}

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_constant_samples_fixed_point(self, m):
        c = 0.7318
        samples = [np.full((2, 3), c) for _ in range(4)]
        b = stack_of_batch(samples, m, seed=m)
        for bucket in b.buckets:
            np.testing.assert_array_equal(bucket, np.full((2, 3), c))

    def test_more_buckets_than_samples(self, rng):
        samples = [rng.normal(size=(2, 2)) for _ in range(3)]
        b = stack_of_batch(samples, 8, seed=1)
        assert len(b.buckets) == 3
        assert b.counts == [1, 1, 1]

    def test_uneven_split_fills_all_buckets(self, rng):
        samples = [rng.normal(size=(2, 2)) for _ in range(5)]
        b = stack_of_batch(samples, 4, seed=1)
        assert len(b.buckets) == 4
        assert b.counts == [2, 1, 1, 1]
        assert b.mini_bsz == 2

    def test_seeded_determinism(self, rng):
        samples = [rng.normal(size=(3, 2)) for _ in range(10)]
        b1 = stack_of_batch(samples, 3, seed=9)
        b2 = stack_of_batch(samples, 3, seed=9)
        for x, y in zip(b1.buckets, b2.buckets):
            np.testing.assert_array_equal(x, y)

    def test_shape_mismatch_rejected(self, rng):
        samples = [rng.normal(size=(3, 2)), rng.normal(size=(2, 3))]
        with pytest.raises(ShapeError):
            stack_of_batch(samples, 2, seed=0)

    @given(n=st.integers(1, 40), m=st.integers(1, 8), seed=st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_partition_properties(self, n, m, seed):
        b = stack_of_batch(one_hot_samples(n, tokens=1), m, seed=seed)
        assert b.mini_bsz == math.ceil(n / m)
        assert len(b.buckets) == min(n, m)
        assert sum(b.counts) == n
        assert max(b.counts) <= b.mini_bsz
        coverage = sum(bucket[0] * count for bucket, count in zip(b.buckets, b.counts))
        np.testing.assert_allclose(coverage, np.ones(n))


class TestCaptureActivations:
    """``calibrate``: one walk of the model, keeping slot Grams and block importances."""

    def test_zero_weights_give_residual_only(self):
        model, calib = gen_synthetic(seed=0, blocks=2, d=6, h=12, n_samples=2, tokens=5)
        for name in model.tensors:
            model.tensors[name] = np.zeros_like(model.tensors[name])
        grams, _, importances = calibrate(model, [calib[0], calib[1]])
        # each block passes its input through, so both see the same tokens
        np.testing.assert_array_equal(grams["blocks.1.w1"], grams["blocks.0.w1"])
        np.testing.assert_array_equal(grams["blocks.0.w2"], np.zeros((6, 6)))  # w2 is wide: its output Gram
        assert importances == {0: pytest.approx(1.0, abs=1e-15), 1: pytest.approx(1.0, abs=1e-15)}

    def test_w1_input_is_normalized_block_input(self):
        model, _ = gen_synthetic(seed=1, blocks=1, d=2, h=3, n_samples=1, tokens=1)
        sample = np.array([[3.0, 4.0]])
        grams = calibrate(model, [sample]).grams
        x = sample.T
        expected = x / np.sqrt(np.mean(x**2) + RMS_EPS)
        np.testing.assert_allclose(grams["blocks.0.w1"], gram_accumulate(expected), rtol=0, atol=0)

    def test_w2_input_is_post_activation_state(self):
        model, _ = gen_synthetic(seed=2, blocks=1, d=3, h=5, n_samples=1, tokens=4)
        sample = np.random.default_rng(0).normal(size=(4, 3))
        grams, mean_diag, _ = calibrate(model, [sample])
        w1, w2 = model.tensors["blocks.0.w1"], model.tensors["blocks.0.w2"]
        hidden = np.maximum(w1 @ rms_norm(sample.T), 0.0)
        # w2 (3 x 5) is wide: it keeps the Gram of its outputs, and its input
        # Gram's mean diagonal for the damping.
        np.testing.assert_allclose(grams["blocks.0.w2"], gram_accumulate(w2 @ hidden), atol=1e-15)
        assert mean_diag["blocks.0.w2"] == pytest.approx(np.mean(np.diag(gram_accumulate(hidden))), rel=1e-15)

    def test_damping_scale_of_every_slot(self, monkeypatch):
        # Each slot's mean_diag is its chunks' ||X||_F^2 / n summed, tall w1
        # and wide w2 alike. Against mean(diag(X @ X.T)) of the whole input it
        # differs only in the order of the sums: rtol 1e-13.
        model, calib = gen_synthetic(seed=2, blocks=2, d=8, h=16, n_samples=6, tokens=5)
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", 8 * 16 * 10)  # 10-token chunks of two samples
        assert len(pipeline._walk_chunks(model, calib)) == 3
        mean_diag = calibrate(model, list(calib)).mean_diag
        expected = {}

        def visit_slot(block_id, slot, x, out):
            expected[slot_name(block_id, slot)] = float(np.mean(np.diag(x @ x.T)))

        walk_blocks(model, list(calib), visit_slot)
        assert sorted(mean_diag) == sorted(expected) == ["blocks.0.w1", "blocks.0.w2", "blocks.1.w1", "blocks.1.w2"]
        for name, value in expected.items():
            assert mean_diag[name] == pytest.approx(value, rel=1e-13, abs=0)

    def test_capture_is_deterministic(self):
        model, calib = gen_synthetic(seed=3, blocks=3, d=8, h=16, n_samples=4, tokens=6)
        g1, d1, i1 = calibrate(model, list(calib))
        g2, d2, i2 = calibrate(model, list(calib))
        assert list(g1) == list(g2) and d1 == d2 and i1 == i2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_columns_are_all_bucket_tokens(self):
        model, calib = gen_synthetic(seed=4, blocks=1, d=8, h=16, n_samples=6, tokens=5)
        bucketed = stack_of_batch(list(calib), 3, seed=0)
        grams = calibrate(model, bucketed.buckets).grams
        tokens = np.concatenate([b.T for b in bucketed.buckets], axis=1)
        assert tokens.shape == (8, 3 * 5)
        np.testing.assert_array_equal(grams["blocks.0.w1"], gram_accumulate(rms_norm(tokens)))

    def test_no_samples_is_a_shape_error(self):
        model, _ = gen_synthetic(seed=5, blocks=1, d=4, h=8, n_samples=1, tokens=1)
        with pytest.raises(ShapeError, match="at least one"):
            calibrate(model, [])

    def test_walking_no_samples_is_a_shape_error(self):
        model, _ = gen_synthetic(seed=5, blocks=1, d=4, h=8, n_samples=1, tokens=1)
        with pytest.raises(ShapeError, match="at least one"):
            walk_blocks(model, [])

    @pytest.mark.parametrize("shape", [(5, 4), (2, 5, 3)], ids=["rank-2", "last-axis-not-d"])
    def test_other_sample_shapes_are_shape_errors(self, shape):
        model, _ = gen_synthetic(seed=5, blocks=1, d=4, h=8, n_samples=1, tokens=1)
        samples = np.ones(shape)
        with pytest.raises(ShapeError, match=r"\(samples, tokens, 4\) array, got shape"):
            walk_blocks(model, samples)
        with pytest.raises(ShapeError, match=r"\(samples, tokens, 4\) array, got shape"):
            calibrate(model, samples)

    def test_nonfinite_forward_names_block(self):
        model, calib = gen_synthetic(seed=5, blocks=3, d=4, h=8, n_samples=1, tokens=2)
        model.tensors["blocks.1.w2"][0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="block 1"):
                calibrate(model, [calib[0]])


    def test_overflowing_tokens_name_the_block(self):
        """A token whose sum of squares overflows is a NumericalError naming the block, with no warning."""
        model, calib = gen_synthetic(seed=5, blocks=3, d=4, h=8, n_samples=1, tokens=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="activations overflow in block 0"):
                calibrate(model, calib * 1e160)
            model.tensors["blocks.1.w2"] = model.tensors["blocks.1.w2"] * 1e160
            with pytest.raises(NumericalError, match="activations overflow in block 1"):
                walk_blocks(model, calib)
            with pytest.raises(NumericalError, match="activations overflow in block 1"):
                calibrate(model, calib)  # the wide slot's output Gram overflows first

class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram_accumulate(np.eye(2)), np.eye(2))

    def test_single_column_outer_product(self):
        g = gram_accumulate(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(g, np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.linalg.matrix_rank(g) == 1

    def test_random_is_symmetric_psd(self, rng):
        g = gram_accumulate(rng.normal(size=(8, 100)))
        assert np.linalg.norm(g - g.T) <= 1e-12
        assert np.linalg.eigvalsh(g).min() >= -1e-10

    @pytest.mark.parametrize("shape", [(64, 100), (513, 77)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_exactly_symmetric(self, layout, shape):
        rng = np.random.default_rng(shape[0])
        n, t = shape
        x = {
            "C": lambda: rng.normal(size=(n, t)),
            "F": lambda: np.asfortranarray(rng.normal(size=(n, t))),
            "strided": lambda: rng.normal(size=(n, 2 * t))[:, ::2],
        }[layout]()
        g = gram_accumulate(x)
        assert np.array_equal(g, g.T)
        # Symmetrizing the product changes no bit of it: the C- and F-order
        # operands the calibration walk passes keep their Grams.
        operand = np.ascontiguousarray(x) if layout == "strided" else x
        product = operand @ operand.T
        assert np.array_equal(g, (product + product.T) / 2.0)


def test_dump_activations_tensor_names(tmp_path):
    model, calib = gen_synthetic(seed=6, blocks=2, d=4, h=8, n_samples=2, tokens=3)
    calibration = calibrate(model, calib)
    dump_activations(calibration, tmp_path / "acts.st")
    tensors = load_container(tmp_path / "acts.st")
    slots = [slot_name(b, slot) for b in range(2) for slot in ("w1", "w2")]
    assert set(tensors) == {"block.0.importance", "block.1.importance"} | {
        f"slot.{name}.{field}" for name in slots for field in ("gram", "mean_diag")
    }
    for block_id, importance in calibration.importances.items():
        np.testing.assert_array_equal(tensors[f"block.{block_id}.importance"], [importance])
    for name in slots:
        np.testing.assert_array_equal(tensors[f"slot.{name}.gram"], calibration.grams[name])
        np.testing.assert_array_equal(tensors[f"slot.{name}.mean_diag"], [calibration.mean_diag[name]])
    # Each Gram is on its slot's narrow side: w1 (8 x 4) keeps its 4 x 4 input
    # Gram, w2 (4 x 8) its 4 x 4 output Gram.
    assert tensors["slot.blocks.0.w1.gram"].shape == (4, 4)
    assert tensors["slot.blocks.0.w2.gram"].shape == (4, 4)
