import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank.allocation import (
    BUDGET_TOL,
    _adjust_ranks_to_budget,
    assign_ratios,
    build_plan,
    column_cosines,
    normalize_importance,
)
from lowrank.calibration import stack_of_batch
from lowrank.container import dump_json
from lowrank.errors import BudgetError, DegenerateImportance, ShapeError
from lowrank.model import gen_synthetic
from lowrank.pipeline import calibrate


class TestLayerImportance:
    def test_identity_layer(self, rng):
        x = rng.normal(size=(6, 10))
        assert np.mean(column_cosines(x, x)) == pytest.approx(1.0)

    def test_antiparallel(self, rng):
        x = rng.normal(size=(6, 10))
        assert np.mean(column_cosines(x, -x)) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        block_in = np.stack([e1, e2], axis=1)
        block_out = np.stack([e2, e2], axis=1)
        assert np.mean(column_cosines(block_in, block_out)) == pytest.approx(0.5)

    def test_zero_norm_column_counts_as_zero(self):
        block_in = np.array([[1.0, 0.0], [0.0, 0.0]])
        block_out = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert np.mean(column_cosines(block_in, block_out)) == pytest.approx(0.5)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            np.mean(column_cosines(rng.normal(size=(3, 4)), rng.normal(size=(3, 5))))


class TestNormalizeImportance:
    def test_uniform(self):
        assert normalize_importance([0.5, 0.5, 0.5]) == [1.0, 1.0, 1.0]

    def test_two_values(self):
        out = normalize_importance([0.2, 0.4])
        np.testing.assert_allclose(out, [2.0 / 3.0, 4.0 / 3.0], rtol=1e-15)

    @given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_output_mean_is_one(self, values):
        out = normalize_importance(values)
        assert abs(np.mean(out) - 1.0) <= 1e-12

    def test_order_preserved(self):
        out = normalize_importance([0.1, 0.3, 0.2])
        assert out[0] < out[2] < out[1]

    def test_near_zero_mean_rejected(self):
        with pytest.raises(DegenerateImportance):
            normalize_importance([1.0, -1.0])


class TestAssignRatios:
    def test_formula_boundaries(self):
        # I_n = 1 -> trr; I_n = 0 -> mrr (the clamp leaves both untouched)
        out = assign_ratios([1.0, 1.0], trr=0.6, mrr=0.5, param_counts=[10, 10])
        np.testing.assert_allclose(out, [0.6, 0.6], atol=1e-12)
        out = assign_ratios([0.0, 2.0], trr=0.6, mrr=0.5, param_counts=[10, 10])
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_profile_needs_no_rescale(self):
        out = assign_ratios([1.0] * 4, trr=0.6, mrr=0.5, param_counts=[3, 3, 3, 3])
        np.testing.assert_allclose(out, 0.6, atol=1e-15)

    def test_spread_profile_direct_formula(self):
        out = assign_ratios([1.5, 0.5], trr=0.6, mrr=0.5, param_counts=[7, 7])
        np.testing.assert_allclose(out, [0.65, 0.55], atol=1e-12)

    def test_weighted_budget_with_unequal_params(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            i_n = rng.uniform(0.0, 2.0, size=n)
            i_n = i_n / i_n.mean()
            params = rng.integers(100, 10_000, size=n)
            trr = float(rng.uniform(0.3, 0.9))
            mrr = float(rng.uniform(0.1, 1.0)) * trr
            out = np.array(assign_ratios(i_n, trr, mrr, params))
            achieved = float(out @ params / params.sum())
            assert abs(achieved - trr) <= 1e-11 * trr
            assert np.all(out >= mrr - 1e-12) and np.all(out <= 1.0 + 1e-12)

    def test_heavy_cap_hand_computed(self):
        # scale 1 gives block 0 a ratio of 1.04: it is capped at 1, and block 1
        # takes the rest of the budget, 0.1 = (5/3) * 0.06 over mrr
        out = assign_ratios([1.8, 0.2], trr=0.8, mrr=0.5, param_counts=[10, 10])
        np.testing.assert_allclose(out, [1.0, 0.6], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["uniform", "gamma", "signed"])
    def test_budget_met_exactly_or_rejected(self, rng, kind):
        """Met within 1e-11 when reachable; short of it only by capping, and then by at most 1%."""
        draw = {"uniform": lambda n: rng.uniform(0.0, 2.5, n), "gamma": lambda n: rng.gamma(0.5, 2.0, n),
                "signed": lambda n: rng.uniform(-1.0, 6.0, n)}[kind]
        for _ in range(300):
            i_n = draw(int(rng.integers(1, 16)))
            n = i_n.size
            i_n = i_n / i_n.mean()
            params = rng.integers(50, 50_000, size=n)
            weights = params / params.sum()
            trr = float(rng.uniform(0.2, 0.95))
            mrr = trr * float(rng.uniform(0.05, 1.0))
            top = mrr + float(weights @ np.where(i_n > 0, 1.0 - mrr, 0.0))  # every block above mrr at 1
            if trr - top > BUDGET_TOL * trr:
                with pytest.raises(BudgetError):
                    assign_ratios(i_n, trr, mrr, params)
                continue
            out = np.array(assign_ratios(i_n, trr, mrr, params))
            achieved = float(out @ weights)
            if top >= trr:
                assert abs(achieved - trr) <= 1e-11 * trr
            else:
                np.testing.assert_array_equal(out[i_n > 0], 1.0)
            assert np.all(out[i_n <= 0] == mrr)
            assert np.all(out >= mrr) and np.all(out <= 1.0)
            assert np.all(np.diff(out[np.argsort(i_n, kind="stable")]) >= 0)

    def test_monotone_in_importance(self, rng):
        i_n = np.sort(rng.uniform(-0.5, 3.0, size=8))
        i_n = i_n - i_n.mean() + 1.0
        out = assign_ratios(i_n, trr=0.5, mrr=0.3, param_counts=[5] * 8)
        assert all(a <= b + 1e-12 for a, b in zip(out, out[1:]))

    def test_degenerate_equals_uniform(self):
        out = assign_ratios([1.7, 0.3], trr=0.6, mrr=0.6, param_counts=[2, 9])
        np.testing.assert_allclose(out, [0.6, 0.6], atol=1e-15)

    def test_bad_bounds_rejected(self):
        with pytest.raises(BudgetError):
            assign_ratios([1.0], trr=0.5, mrr=0.6, param_counts=[4])
        with pytest.raises(BudgetError):
            assign_ratios([1.0], trr=1.2, mrr=0.5, param_counts=[4])


def block_importances(model, calib, m_buckets=8, seed=0):
    return calibrate(model, stack_of_batch(list(calib), m_buckets, seed).buckets).importances


class TestBuildPlan:
    def test_single_block_gets_target_ratio(self):
        model, calib = gen_synthetic(seed=0, blocks=1, d=64, h=128, n_samples=8, tokens=16)
        plan = build_plan(block_importances(model, calib), model, trr=0.6, mrr=0.5)
        assert plan.blocks[0].normalized == pytest.approx(1.0, abs=1e-12)
        assert plan.blocks[0].retention == pytest.approx(0.6, abs=1e-12)

    def test_identical_blocks_with_identical_activations_get_equal_ratios(self, rng):
        model, calib = gen_synthetic(seed=1, blocks=2, d=32, h=64, n_samples=8, tokens=16)
        importances = block_importances(model, calib)
        # force both blocks to present the same importance score
        importances[1] = importances[0]
        plan = build_plan(importances, model, trr=0.6, mrr=0.5)
        assert plan.blocks[0].retention == pytest.approx(plan.blocks[1].retention, rel=1e-12)
        assert plan.blocks[0].retention == pytest.approx(0.6, abs=1e-12)

    def test_eight_block_budget_band(self):
        model, calib = gen_synthetic(seed=2, blocks=8, d=64, h=128, n_samples=32, tokens=32)
        plan = build_plan(block_importances(model, calib), model, trr=0.6, mrr=0.5)
        assert 0.594 <= plan.achieved_retention <= 0.606
        achieved = sum(
            (k * sum(model.slot(b.block_id, s).shape) if (k := b.ranks[s]) is not None
             else model.slot(b.block_id, s).size)
            for b in plan.blocks for s in ("w1", "w2")
        ) / model.param_count()
        assert achieved == pytest.approx(plan.achieved_retention, abs=1e-15)

    def test_normalized_mean_is_one(self):
        model, calib = gen_synthetic(seed=3, blocks=5, d=32, h=64, n_samples=8, tokens=16)
        plan = build_plan(block_importances(model, calib), model, trr=0.5, mrr=0.4)
        assert np.mean([b.normalized for b in plan.blocks]) == pytest.approx(1.0, abs=1e-12)

    def test_ratios_within_bounds_and_monotone_in_importance(self):
        model, calib = gen_synthetic(seed=4, blocks=6, d=32, h=64, n_samples=16, tokens=16)
        plan = build_plan(block_importances(model, calib), model, trr=0.6, mrr=0.45)
        for b in plan.blocks:
            assert 0.45 - 1e-12 <= b.retention <= 1.0 + 1e-12
        order = np.argsort([b.normalized for b in plan.blocks])
        rets = [plan.blocks[i].retention for i in order]
        assert all(a <= b + 1e-12 for a, b in zip(rets, rets[1:]))

    def test_degenerate_mrr_equals_trr_is_uniform(self):
        model, calib = gen_synthetic(seed=5, blocks=4, d=64, h=128, n_samples=16, tokens=16)
        plan = build_plan(block_importances(model, calib), model, trr=0.6, mrr=0.6)
        for b in plan.blocks:
            assert b.retention == pytest.approx(0.6, abs=1e-15)
        assert 0.594 <= plan.achieved_retention <= 0.606

    def test_full_retention_keeps_slots_dense(self):
        model, calib = gen_synthetic(seed=6, blocks=2, d=16, h=32, n_samples=8, tokens=8)
        plan = build_plan(block_importances(model, calib), model, trr=1.0, mrr=1.0)
        assert all(rank is None for rank in plan.slot_ranks().values())
        assert plan.achieved_retention == 1.0

    def test_plan_json_schema(self):
        model, calib = gen_synthetic(seed=7, blocks=2, d=32, h=64, n_samples=8, tokens=8)
        plan = build_plan(block_importances(model, calib), model, trr=0.6, mrr=0.5)
        doc = json.loads(dump_json(plan, "the plan"))
        assert list(doc) == ["blocks", "trr", "mrr", "achieved_retention", "importance_mode"]
        assert list(doc["blocks"][0]) == ["block_id", "importance", "normalized", "retention", "ranks"]
        assert set(doc["blocks"][0]["ranks"]) == {"w1", "w2"}

    def test_one_minus_cos_mode_flips_allocation(self):
        model, calib = gen_synthetic(seed=8, blocks=4, d=64, h=128, n_samples=16, tokens=16)
        importances = block_importances(model, calib)
        plan_cos = build_plan(importances, model, trr=0.6, mrr=0.5, importance_mode="cos")
        plan_inv = build_plan(importances, model, trr=0.6, mrr=0.5, importance_mode="one_minus_cos")
        cos_order = np.argsort([b.retention for b in plan_cos.blocks])
        inv_order = np.argsort([b.retention for b in plan_inv.blocks])
        assert list(cos_order) == list(inv_order[::-1])

    def test_mixed_block_widths_meet_budget(self, rng):
        from lowrank.model import ModelHandle

        d = 48
        widths = [32, 96, 160]
        blocks = {}
        for i, h in enumerate(widths):
            w1 = rng.normal(size=(h, d)) / np.sqrt(d)
            w2 = rng.normal(size=(d, h)) / np.sqrt(h)
            blocks[i] = {"w1": w1, "w2": w2}
        model = ModelHandle(hidden_dim=d, activation="relu", blocks=blocks)
        samples = rng.normal(size=(12, 16, d))
        plan = build_plan(block_importances(model, samples), model, trr=0.55, mrr=0.45)
        assert abs(plan.achieved_retention - 0.55) <= 0.01 * 0.55

    def test_infeasible_budget_raises(self):
        # 2x2 slots cannot express a 10% retention: rank 1 already keeps 100%
        model, calib = gen_synthetic(seed=9, blocks=1, d=2, h=2, n_samples=4, tokens=4)
        with pytest.raises(BudgetError, match="cannot reach 0.1 within 1%: every slot stays dense$"):
            build_plan(block_importances(model, calib, m_buckets=2), model, trr=0.1, mrr=0.05)

    def test_band_missed_at_the_rank_bounds_says_so(self):
        # One dense slot and one at rank 1: a 0.50% step fits the 0.60% band, but no step is left.
        slots = [(0, "w1", 200, 200), (0, "w2", 200, 200)]
        with pytest.raises(BudgetError, match=r"k \+- 1 of a 200x200 slot, is 400 of the model's 80000 parameters "
                                              r"\(0\.50%\), narrower than the \+-1% band \(0\.60% of the "
                                              r"parameters\), but no slot can step closer$"):
            _adjust_ranks_to_budget(slots, {(0, "w1"): None, (0, "w2"): 1}, [0.5], trr=0.3)
