"""Importance-aware retention allocation and compression planning.

Per-block importance is the mean cosine similarity between the token columns
entering and leaving the residual block, a zero-norm column counting as 0;
``pipeline.calibrate`` computes it from ``column_cosines``. Normalized
importances (mean 1) map to retention ratios

    cr_b = mrr + i_n[b] * (trr - mrr)

clamped to [mrr, 1] and rescaled so the parameter-weighted mean retention hits
the target. The rescale is solved exactly (``assign_ratios``) and raises
``BudgetError`` only when full retention for every block above mrr still
leaves the target more than 1% short. Integer ranks start at the per-slot
parameter-budget floor and are then nudged by largest-remainder +-1 steps
until the whole-model achieved retention sits within 1% of the target (the
floors alone systematically undershoot); the recorded per-block ratios are not
touched by this step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import BudgetError, DegenerateImportance, ShapeError
from .linalg import rank_for_retention
from .model import BLOCK_SLOTS, ModelHandle, slot_name, token_squares

IMPORTANCE_MODES = ("cos", "one_minus_cos")
BUDGET_TOL = 0.01  # fraction of trr
FULL_RETENTION_EPS = 1e-12


@dataclass
class BlockPlan:
    block_id: int
    importance: float
    normalized: float
    retention: float
    ranks: dict[str, int | None]  # slot -> rank; None keeps the slot dense


@dataclass
class CompressionPlan:
    """The retention plan; it is plan.json, whose keys are its fields in this order."""

    blocks: list[BlockPlan]
    trr: float
    mrr: float
    achieved_retention: float
    importance_mode: str

    def slot_ranks(self) -> dict[str, int | None]:
        return {
            slot_name(b.block_id, slot): rank
            for b in self.blocks
            for slot, rank in b.ranks.items()
        }


def column_cosines(
    block_in: np.ndarray,
    block_out: np.ndarray,
    in_squares: np.ndarray | None = None,
    out_squares: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine similarity between each input token column and its output column.

    ``in_squares`` and ``out_squares`` are ``token_squares`` of the two
    matrices, formed here unless the caller has them. The numerator is one
    ``einsum`` pass, as ``token_squares`` is. A zero-norm column gets
    similarity 0.
    """
    block_in = np.asarray(block_in, dtype=np.float64)
    block_out = np.asarray(block_out, dtype=np.float64)
    if block_in.shape != block_out.shape:
        raise ShapeError(f"input {block_in.shape} and output {block_out.shape} shapes differ")
    if block_in.ndim != 2 or block_in.shape[1] < 1:
        raise ShapeError(f"expected matrices with >= 1 token column, got shape {block_in.shape}")
    if in_squares is None:
        in_squares = token_squares(block_in)
    if out_squares is None:
        out_squares = token_squares(block_out)
    num = np.einsum("ij,ij->j", block_in, block_out)
    denom = np.sqrt(in_squares) * np.sqrt(out_squares)
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


def normalize_importance(i_values) -> list[float]:
    """Mean-center importances so their average is exactly 1 (order preserved)."""
    values = np.asarray(list(i_values), dtype=np.float64)
    mean = float(np.mean(values))
    if abs(mean) < 1e-12:
        raise DegenerateImportance(f"importance mean {mean:g} is too close to zero to normalize")
    return [float(v) for v in values / mean]


def assign_ratios(i_n, trr: float, mrr: float, param_counts) -> list[float]:
    """Retention ratio per block: formula, clamp to [mrr, 1], exact budget rescale.

    Each block keeps mrr + min(scale * excess, 1 - mrr). The budget is
    piecewise linear in the scale, so one pass in descending excess, capping
    each block that the scale of the blocks not yet capped would push past 1,
    solves it exactly.
    """
    check_settings(trr, mrr)
    i_n = np.asarray(list(i_n), dtype=np.float64)
    params = np.asarray(list(param_counts), dtype=np.float64)
    if i_n.shape != params.shape:
        raise ShapeError(f"{i_n.size} importances vs {params.size} parameter counts")
    weights = params / params.sum()

    cap = 1.0 - mrr
    excess = np.clip(i_n * (trr - mrr), 0.0, None)
    need, free = trr - mrr, float(weights @ excess)
    capped = np.zeros(excess.shape, dtype=bool)
    for b in np.argsort(-excess, kind="stable"):
        if excess[b] == 0.0 or excess[b] * need <= cap * free:
            break
        capped[b] = True
        need -= weights[b] * cap
        free -= weights[b] * excess[b]
    rest = float(weights[~capped] @ excess[~capped])  # summed afresh: the running free loses bits
    if rest == 0.0 and need > BUDGET_TOL * trr:
        raise BudgetError(f"cannot rescale ratios to retention {trr} within {100 * BUDGET_TOL:g}%")
    scale = need / rest if rest > 0.0 else 0.0
    scaled = np.where(capped, cap, np.minimum(excess * scale, cap))
    return [float(mrr + e) for e in scaled]


def build_plan(
    importances: Mapping[int, float],
    model: ModelHandle,
    trr: float,
    mrr: float,
    importance_mode: str = "cos",
) -> CompressionPlan:
    """Retention ratios and integer ranks for every slot.

    ``importances`` maps each block id to its raw score: the mean column cosine.
    """
    check_settings(trr, mrr, importance_mode)
    blocks = list(model.blocks)
    for block_id in blocks:
        if block_id not in importances:
            raise ShapeError(f"no importance score for block {block_id}")

    raw = [float(importances[block_id]) for block_id in blocks]
    if importance_mode == "one_minus_cos":
        raw = [1.0 - v for v in raw]
    normalized = normalize_importance(raw)
    slots = [  # (block_idx, slot, m, n)
        (bi, slot, *model.slot(block_id, slot).shape)
        for bi, block_id in enumerate(blocks)
        for slot in BLOCK_SLOTS
    ]
    block_params = [sum(m * n for bj, _, m, n in slots if bj == bi) for bi in range(len(blocks))]
    ratios = assign_ratios(normalized, trr, mrr, block_params)
    ranks = {
        (bi, slot): _initial_rank(m, n, ratios[bi])
        for bi, slot, m, n in slots
    }
    achieved = _adjust_ranks_to_budget(slots, ranks, ratios, trr)

    return CompressionPlan(
        blocks=[
            BlockPlan(
                block_id=block_id,
                importance=raw[bi],
                normalized=normalized[bi],
                retention=ratios[bi],
                ranks={slot: ranks[(bi, slot)] for slot in BLOCK_SLOTS},
            )
            for bi, block_id in enumerate(blocks)
        ],
        trr=trr,
        mrr=mrr,
        achieved_retention=achieved,
        importance_mode=importance_mode,
    )


def check_settings(trr: float, mrr: float, importance_mode: str = "cos") -> None:
    """The plan's settings: a BudgetError unless 0 < mrr <= trr <= 1, a ShapeError for an unknown mode."""
    if not 0.0 < mrr <= trr <= 1.0:
        raise BudgetError(f"need 0 < mrr <= trr <= 1, got mrr={mrr}, trr={trr}")
    if importance_mode not in IMPORTANCE_MODES:
        raise ShapeError(f"unknown importance mode {importance_mode!r}")


def _initial_rank(m: int, n: int, ratio: float) -> int | None:
    """Parameter-budget floor rank, or None when the slot should stay dense."""
    if ratio >= 1.0 - FULL_RETENTION_EPS:
        return None
    k = rank_for_retention(m, n, ratio)
    if k * (m + n) >= m * n:  # pair would not be smaller than the dense matrix
        return None
    return k


def _slot_params(m: int, n: int, rank: int | None) -> int:
    return m * n if rank is None else rank * (m + n)


def _adjust_ranks_to_budget(slots, ranks, ratios, trr: float) -> float:
    """Largest-remainder +-1 rank steps until achieved retention is within the band."""
    total = sum(m * n for _, _, m, n in slots)
    target = trr * total
    current = sum(_slot_params(m, n, ranks[(bi, slot)]) for bi, slot, m, n in slots)

    def remainder(bi, slot, m, n):
        return ratios[bi] * m * n / (m + n) - ranks[(bi, slot)]

    def can_step(step, gap, bi, slot, m, n):
        """The slot stays factored, at rank >= 1, and the step narrows the gap."""
        k = ranks[(bi, slot)]
        if k is None or abs(gap - step * (m + n)) >= abs(gap):
            return False
        return (k < min(m, n) and (k + 1) * (m + n) < m * n) if step > 0 else k > 1

    while True:
        gap = target - current
        step = 1 if gap > 0 else -1
        candidates = [c for c in slots if can_step(step, gap, *c)]
        if not candidates:
            break  # no step improves the budget
        # the largest remainder grows first, the smallest shrinks first
        bi, slot, m, n = min(candidates, key=lambda c: (-step * remainder(*c), c[0], c[1]))
        ranks[(bi, slot)] += step
        current += step * (m + n)

    achieved = current / total
    if abs(achieved - trr) > BUDGET_TOL * trr:
        raise BudgetError(_missed_band(slots, ranks, achieved, trr, total))
    return achieved


def _missed_band(slots, ranks, achieved: float, trr: float, total: int) -> str:
    """Why the rank steps ended outside the band: the smallest step a slot can take, against its width."""
    message = f"achieved retention {achieved:.4f} cannot reach {trr} within {100 * BUDGET_TOL:g}%"
    factored = [(m + n, m, n) for bi, slot, m, n in slots if ranks[(bi, slot)] is not None]
    if not factored:
        return f"{message}: every slot stays dense"
    step, m, n = min(factored)
    share, band = step / total, 2 * BUDGET_TOL * trr
    return (f"{message}: the smallest rank step, k +- 1 of a {m}x{n} slot, is {step} of the model's "
            f"{total} parameters ({share:.2%}), {'wider' if share > band else 'narrower'} than the "
            f"+-{100 * BUDGET_TOL:g}% band ({band:.2%} of the parameters)"
            + ("" if share > band else ", but no slot can step closer"))
