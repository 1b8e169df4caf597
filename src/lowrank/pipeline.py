"""End-to-end orchestration: calibrate, whiten, plan, compensate, evaluate.

Slot compression order: bucket the calibration samples, walk the original
model over them once (keeping one Gram matrix per slot and one importance
score per block), build the retention plan, then refit every planned slot
independently. Merge order follows the manifest, so outputs are
deterministic for a fixed seed and CPU count.

Each slot's Gram is on its narrow side. The data-space loss and both refits
of a slot W (m x n) depend on its inputs X only through G = X @ X.T, and,
since every Vt the refits produce lies in W's row space, for a wide slot
(m < n) only through H = W @ G @ W.T = Y @ Y.T, Y = W @ X its outputs (see
``compensation``). So the walk keeps G for a tall slot (m >= n) and H, from
the slot output the forward pass forms anyway, for a wide one. No n x n Gram
is formed for a wide slot. For every slot the walk also keeps
||X||_F^2 / n = mean diag G, from which the whitening damping
REL_DAMPING * mean diag G is read.

The buckets are one (buckets, tokens, d) array, and the walk goes over
slices of it on the worker pool below. With ``wide`` the widest slot
dimension (max of d and every h) and ``narrow`` the widest narrow-side Gram
side (max over slots of min(m, n)), the chunk width is
max(CHUNK_BYTES // (8 * wide), narrow) tokens, and every chunk but the last
holds max(1, width // tokens) buckets: its token matrices stay near cache
size, and the width is never narrower than the Gram it feeds. The walk
hands each slot's input and output to a visitor right after the slot's
product, and overwrites them once the visit returns (see
``model.walk_blocks``). The visitor forms the chunk's slot Gram there and
hands it at once to a lock-guarded merge, which adds chunk i's Gram only
after chunk i - 1's and holds one that arrives early until its turn; no
worker waits, and no chunk keeps its Grams. Each chunk returns only every
slot's share of ||X||_F^2 / n and every block's per-column importance
cosines, which the calling thread adds and joins in chunk order. So none of
them depends on the worker count or on the order in which chunks finish.

Evaluation walks the held-out samples in chunks of the same width, as a
pool stage of its own. Each eval chunk walks the original model, adding
up every slot's ||W_hat x - W x||^2 and ||W x||^2 in the slot visits, then
walks the compressed model over the same samples; the calling thread adds
the sums and joins both outputs in chunk order.

The walk chunks and the slot refits are both too small to scale across BLAS
threads, so each of these pool stages sets its own thread counts at run
time (``_pool_run`` runs every stage and yields its results in task
order): workers = min(usable CPUs, tasks, MAX_WORKERS), and every loaded
OpenBLAS gets max(1, min(its current count, usable CPUs // workers)) threads,
so the user's count is never raised. Each library's previous count is
restored when the stage ends, so planning keeps the BLAS as it was.
Where no OpenBLAS can be controlled, the tasks run serially on the calling
thread and each BLAS call keeps the library's own count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import IMPORTANCE_MODES, CompressionPlan, build_plan, column_cosines
from .calibration import Calibration, dump_activations, gram_accumulate, stack_of_batch
from .compensation import LossTrace, compensate
from .container import atomic_path
from .errors import LowrankError, ManifestMismatch, NumericalError, ShapeError
from .linalg import LowRankPair
from .model import (
    ModelHandle,
    as_compressed_handle,
    as_samples,
    load_calibration,
    slot_name,
    walk_blocks,
)
from .runtime import blas_controls, cap_malloc_arenas

OVERLAP_BINS = 64
MAX_WORKERS = 8  # memory guard: every worker holds one slot's weights, Gram and factors, or one walk chunk
CHUNK_BYTES = 2 << 20  # target size of one walk chunk's widest token matrix; the Gram side can raise it
REL_DAMPING = 1e-5  # whitening damping, relative to the mean diagonal of the slot's input Gram

# Held while a pool stage has the BLAS thread counts pinned, so that two
# concurrent compress_model calls cannot restore each other's pinned counts.
_POOL_STAGE_LOCK = threading.Lock()


@dataclass
class PipelineConfig:
    """Knobs of one compression run; mrr defaults to trr - 0.10 (floored at trr itself)."""

    trr: float
    mrr: float | None = None
    iterations: int = 1
    bucket_size: int = 32
    whiten: bool = True
    importance_mode: str = "cos"
    seed: int = 0

    def resolved_mrr(self) -> float:
        if self.mrr is not None:
            return self.mrr
        return self.trr - 0.10 if self.trr > 0.10 else self.trr

    def validate(self) -> None:
        if not 0.0 < self.trr <= 1.0:
            raise ShapeError(f"target retention must lie in (0, 1], got {self.trr}")
        mrr = self.resolved_mrr()
        if not 0.0 < mrr <= self.trr:
            raise ShapeError(f"need 0 < mrr <= trr, got mrr={mrr}, trr={self.trr}")
        if self.iterations < 0:
            raise ShapeError(f"iteration count must be >= 0, got {self.iterations}")
        if self.bucket_size < 1:
            raise ShapeError(f"bucket size must be >= 1, got {self.bucket_size}")
        if self.importance_mode not in IMPORTANCE_MODES:
            raise ShapeError(f"unknown importance mode {self.importance_mode!r}")


def split_calibration(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reserve the last 20% of samples for evaluation; the rest are for fitting."""
    n_heldout = samples.shape[0] // 5
    n_fit = samples.shape[0] - n_heldout
    return samples[:n_fit], samples[n_fit:]


def _load_samples(model: ModelHandle, calib_file: str | Path) -> np.ndarray:
    samples = load_calibration(calib_file)
    if samples.shape[2] != model.hidden_dim:
        raise ShapeError(
            f"calibration dim {samples.shape[2]} does not match model hidden_dim {model.hidden_dim}"
        )
    return samples


def calibrate(model: ModelHandle, samples: np.ndarray, with_grams: bool = True) -> Calibration:
    """One walk of the original model: the calibration product later stages read.

    ``samples`` is a (samples, tokens, d) array, or a list of equal-shape
    samples. With ``with_grams=False`` the walk keeps only the importances,
    and the Gram and mean-diagonal dicts are empty. The samples are walked in
    chunks on the pinned-BLAS worker pool, and each chunk's Grams are merged
    as they form (see the module docstring).
    """
    samples = as_samples(model, samples)
    grams = _OrderedSum()

    def walk_chunk(task):
        index, chunk = task
        scales: dict[str, float] = {}
        cosines: dict[int, np.ndarray] = {}

        def visit_slot(block_id, slot, x, out):
            name = slot_name(block_id, slot)
            try:
                gram = gram_accumulate(out if out.shape[0] < x.shape[0] else x)  # wide: the Gram of its outputs
            except NumericalError as exc:
                raise NumericalError(f"{exc} in block {block_id}") from exc
            grams.add(name, index, gram)
            scales[name] = float(np.vdot(x, x)) / x.shape[0]

        def visit_block(block_id, x, y, x_squares, y_squares):
            cosines[block_id] = column_cosines(x, y, x_squares, y_squares)

        walk_blocks(model, chunk, visit_slot if with_grams else None, visit_block)
        return scales, cosines

    mean_diag: dict[str, float] = {}
    cosines: dict[int, list[np.ndarray]] = {}
    for part_scales, part_cosines in _pool_run(walk_chunk, list(enumerate(_walk_chunks(model, samples)))):
        for name, scale in part_scales.items():
            mean_diag[name] = mean_diag.get(name, 0.0) + scale
        for block_id, cos in part_cosines.items():
            cosines.setdefault(block_id, []).append(cos)
    importances = {block_id: float(np.mean(np.concatenate(parts))) for block_id, parts in cosines.items()}
    return Calibration(grams.sums, mean_diag, importances)


class _OrderedSum:
    """Per-name sums of terms that pool workers hand in, in any order, each tagged with its chunk index.

    Chunk i's term for a name is added only after chunk i - 1's; a term that
    arrives before its turn is held here until then, so no worker waits on
    another. Each sum is bit for bit that of adding the chunks in order, and
    chunk 0's term becomes the sum array itself.
    """

    def __init__(self) -> None:
        self.sums: dict[str, np.ndarray] = {}
        self._next: dict[str, int] = {}  # name: chunk index of the next term to add
        self._early: dict[tuple[str, int], np.ndarray] = {}
        self._lock = threading.Lock()

    def add(self, name: str, index: int, term: np.ndarray) -> None:
        with self._lock:
            if index != self._next.get(name, 0):
                self._early[name, index] = term
                return
            while term is not None:
                if index == 0:
                    self.sums[name] = term
                else:
                    self.sums[name] += term
                index += 1
                term = self._early.pop((name, index), None)
            self._next[name] = index


def _walk_chunks(model: ModelHandle, samples: np.ndarray) -> list[np.ndarray]:
    """Consecutive slices of ``samples``, max(1, width // tokens) samples each (the last may hold fewer).

    The width is CHUNK_BYTES // (8 * the widest slot dimension) tokens, raised
    to the widest narrow-side Gram side so that no chunk is narrower than the
    Gram it feeds.
    """
    shapes = [model.slot_shape(block_id, slot) for block_id, slot in model.slot_ids()]
    width = max(CHUNK_BYTES // (8 * max(map(max, shapes))), max(map(min, shapes)))
    step = max(1, width // samples.shape[1])
    return [samples[i : i + step] for i in range(0, len(samples), step)]


def calibrate_and_plan(
    model: ModelHandle, calib_file: str | Path, cfg: PipelineConfig, with_grams: bool = True
) -> tuple[Calibration, CompressionPlan]:
    """Shared prefix of compress and importance: load, split, bucket, calibrate, plan.

    ``with_grams`` is passed to ``calibrate``; the plan reads only the importances.
    """
    cfg.validate()
    fit_samples = split_calibration(_load_samples(model, calib_file))[0]
    bucketed = stack_of_batch(fit_samples, cfg.bucket_size, cfg.seed)
    del fit_samples  # the buckets are copies; drop the mapped samples before the walk
    calibration = calibrate(model, bucketed.buckets, with_grams)
    plan = build_plan(calibration.importances, model, cfg.trr, cfg.resolved_mrr(), cfg.importance_mode)
    return calibration, plan


def compress_model(
    model: ModelHandle,
    calib_file: str | Path,
    cfg: PipelineConfig,
    dump_path: str | Path | None = None,
) -> tuple[ModelHandle, CompressionPlan, dict[str, LossTrace]]:
    """Run the whole compression pipeline; deterministic for fixed inputs and seed.

    With ``dump_path``, the calibration product (slot Grams and block
    importances) is also written there as a tensor container. A NaN or inf
    loss in any slot's trace is a NumericalError (see ``check_traces``).
    """
    calibration, plan = calibrate_and_plan(model, calib_file, cfg)
    grams = calibration.grams
    if dump_path is not None:
        dump_activations(calibration, dump_path)

    ranks = plan.slot_ranks()
    tasks = []  # (full slot name, weight, rank)
    for block_id, slot in model.slot_ids():
        name = slot_name(block_id, slot)
        rank = ranks[name]
        if rank is not None:
            tasks.append((name, model.slot_weight(block_id, slot), rank))
        else:
            del grams[name]  # a dense slot's Gram is not needed past the plan

    def run(task):
        name, w, rank = task
        try:
            gram = grams.pop(name)  # freed as soon as this slot is done
            damping = REL_DAMPING * calibration.mean_diag[name] if cfg.whiten else None
            return compensate(w, gram, rank, cfg.iterations, damping)
        except LowrankError as exc:
            raise type(exc)(f"slot {name}: {exc}") from exc

    results = list(_pool_run(run, tasks))

    factors: dict[str, LowRankPair] = {}
    traces: dict[str, LossTrace] = {}
    for (name, _, _), (pair, trace) in zip(tasks, results):
        factors[name] = pair
        traces[name] = trace
    check_traces(traces)
    compressed = as_compressed_handle(model, plan, factors)
    return compressed, plan, traces


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _pool_stage(n_tasks: int):
    """Pin every loaded OpenBLAS for a stage of independent tasks and yield its worker count.

    Each library's previous count is restored on exit, also when a task raises.
    With no OpenBLAS to control, the tasks run serially.
    """
    with _POOL_STAGE_LOCK:
        controls = blas_controls()
        previous = [control.get() for control in controls]
        cpus = _usable_cpus()
        workers = max(1, min(cpus, n_tasks, MAX_WORKERS)) if controls else 1
        try:
            if workers > 1:
                cap_malloc_arenas()
            for control, count in zip(controls, previous):
                control.set(max(1, min(count, cpus // workers)))
            yield workers
        finally:
            for control, count in zip(controls, previous):
                control.set(count)


def _pool_run(fn, tasks: list):
    """Yield ``fn(task)`` for every task, in task order, from one pool stage (serially with one worker)."""
    with _pool_stage(len(tasks)) as workers:
        if workers <= 1:
            yield from map(fn, tasks)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, tasks)


# --- evaluation ---------------------------------------------------------------


@dataclass
class SlotErrors:
    slot: str
    frob_rel_err: float
    data_rel_err: float


@dataclass
class EvalReport:
    per_slot: list[SlotErrors]
    output_mse: float
    output_cosine_mean: float
    overlap_statistic: float
    params_original: int
    params_compressed: int
    achieved_retention: float
    scored_on_all: bool = False  # no held-out tail, so every sample was scored; not in the JSON

    def to_json(self) -> dict:
        return {
            "per_slot": [
                {"slot": s.slot, "frob_rel_err": s.frob_rel_err, "data_rel_err": s.data_rel_err}
                for s in self.per_slot
            ],
            "end_to_end": {
                "output_mse": self.output_mse,
                "output_cosine_mean": self.output_cosine_mean,
                "overlap_statistic": self.overlap_statistic,
            },
            "params": {
                "original": self.params_original,
                "compressed": self.params_compressed,
                "achieved_retention": self.achieved_retention,
            },
        }


def _check_aligned(original: ModelHandle, compressed: ModelHandle) -> None:
    mo, mc = original.manifest, compressed.manifest
    if mo.hidden_dim != mc.hidden_dim or mo.activation != mc.activation:
        raise ManifestMismatch("models differ in hidden_dim or activation")
    if [b.block_id for b in mo.blocks] != [b.block_id for b in mc.blocks]:
        raise ManifestMismatch("models have different block structure")
    for block_id, slot in original.slot_ids():
        if original.slot_shape(block_id, slot) != compressed.slot_shape(block_id, slot):
            raise ManifestMismatch(
                f"slot {slot_name(block_id, slot)} shapes differ between the two models"
            )


def eval_compression(original: ModelHandle, compressed: ModelHandle, data: str | Path) -> EvalReport:
    """Per-slot and end-to-end error report over the held-out calibration tail.

    A set of fewer than 5 samples has no tail; then every sample is scored and
    the report's ``scored_on_all`` is set.

    The scored samples are walked in chunks on the pinned-BLAS worker pool,
    as calibration's are (see the module docstring). Each chunk walks the
    original model, adding up every slot's ||W_hat x - W x||^2 and ||W x||^2
    in the slot visits, then walks the compressed model over the same samples. The
    calling thread adds the sums and joins both outputs in chunk order, so
    no result depends on the worker count. Every squared norm is summed by
    ``einsum``, not by the BLAS, whose order of summation can follow its
    thread count.
    """
    _check_aligned(original, compressed)
    samples = _load_samples(original, data)
    _, heldout = split_calibration(samples)
    scored_on_all = heldout.shape[0] < 1
    if scored_on_all:
        heldout = samples

    def walk_chunk(chunk):
        sums: dict[str, tuple[float, float]] = {}  # slot: (||W_hat x - W x||^2, ||W x||^2)

        def visit_slot(block_id, slot, x, wx):
            diff = compressed.apply_slot(block_id, slot, x)
            diff -= wx
            sums[slot_name(block_id, slot)] = (_sum_squares(diff), _sum_squares(wx))

        out_orig = walk_blocks(original, chunk, visit_slot)
        return sums, out_orig, walk_blocks(compressed, chunk)

    totals: dict[str, tuple[float, float]] = {}
    orig_parts, comp_parts = [], []
    for sums, out_orig, out_comp in _pool_run(walk_chunk, _walk_chunks(original, heldout)):
        for name, (err, ref) in sums.items():
            total_err, total_ref = totals.get(name, (0.0, 0.0))
            totals[name] = (total_err + err, total_ref + ref)
        orig_parts.append(out_orig)
        comp_parts.append(out_comp)
    out_orig = np.concatenate(orig_parts, axis=1).T  # tokens x d, in sample order
    out_comp = np.concatenate(comp_parts, axis=1).T
    del orig_parts, comp_parts

    tiny = np.finfo(np.float64).tiny
    per_slot = []
    for block_id, slot in original.slot_ids():
        name = slot_name(block_id, slot)
        w = original.slot_weight(block_id, slot)
        frob = _relative_norm(_sum_squares(compressed.slot_weight(block_id, slot) - w), _sum_squares(w))
        per_slot.append(SlotErrors(slot=name, frob_rel_err=frob, data_rel_err=_relative_norm(*totals[name])))

    mse = float(np.mean((out_orig - out_comp) ** 2))
    norms = np.linalg.norm(out_orig, axis=1) * np.linalg.norm(out_comp, axis=1)
    dots = np.sum(out_orig * out_comp, axis=1)
    cosine = float(np.mean(dots / np.maximum(norms, tiny)))
    overlap = _histogram_overlap(out_orig.ravel(), out_comp.ravel())

    p_orig = original.param_count()
    p_comp = compressed.param_count()
    return EvalReport(
        per_slot=per_slot,
        output_mse=mse,
        output_cosine_mean=cosine,
        overlap_statistic=overlap,
        params_original=p_orig,
        params_compressed=p_comp,
        achieved_retention=p_comp / p_orig,
        scored_on_all=scored_on_all,
    )


def _sum_squares(a: np.ndarray) -> float:
    """Sum of the squared entries of a matrix, without a BLAS call or a temporary."""
    return float(np.einsum("ij,ij->", a, a))


def _relative_norm(err: float, ref: float) -> float:
    """sqrt(err) / sqrt(ref), from two sums of squares, with ref floored at the smallest normal float."""
    return float(np.sqrt(err) / max(np.sqrt(ref), np.finfo(np.float64).tiny))


def _histogram_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection of the two value histograms over their common 64-bin range."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi - lo < 1e-300:
        return 1.0
    ha, _ = np.histogram(a, bins=OVERLAP_BINS, range=(lo, hi))
    hb, _ = np.histogram(b, bins=OVERLAP_BINS, range=(lo, hi))
    return float(np.minimum(ha / a.size, hb / b.size).sum())


# --- report emission ----------------------------------------------------------


def check_traces(traces: dict[str, LossTrace]) -> None:
    """NumericalError naming the first slot and half-step whose loss is NaN or inf."""
    for slot, trace in traces.items():
        for step, loss in enumerate([trace.initial, *trace.per_half_step]):
            if not math.isfinite(loss):
                raise NumericalError(f"slot {slot}: half-step {step} has a non-finite loss ({loss!r})")


def write_traces_csv(traces: dict[str, LossTrace], path: str | Path) -> None:
    """Per-slot loss trace: one row per half-step, half_step 0 is the initial loss.

    A non-finite loss is a NumericalError, raised before any file is made.
    """
    check_traces(traces)
    with atomic_path(path) as tmp, open(tmp, "x", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "half_step", "loss"])
        for slot, trace in traces.items():
            writer.writerow([slot, 0, repr(trace.initial)])
            for i, loss in enumerate(trace.per_half_step, start=1):
                writer.writerow([slot, i, repr(loss)])


def dump_json(doc: dict, name: str) -> str:
    """``doc`` as indented JSON; NumericalError naming the output ``name`` if it holds NaN or inf."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write {name}: it holds a non-finite value ({exc})") from exc


def write_json(doc: dict, path: str | Path) -> None:
    text = dump_json(doc, str(path))
    with atomic_path(path) as tmp:
        tmp.write_text(text + "\n", "utf-8")
