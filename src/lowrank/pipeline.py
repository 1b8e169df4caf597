"""End-to-end orchestration: calibrate, whiten, plan, compensate, evaluate.

Two stages hand on one value. ``calibrate_file`` buckets the calibration
samples and walks the original model over them once, keeping one Gram matrix
per slot and one importance score per block: a ``Calibration``. Then
``compress_model`` builds the retention plan from it and refits every planned
slot independently. Merge order follows the block order, so outputs are
deterministic for a fixed seed and CPU count.

Each slot's Gram is on its narrow side. The data-space loss and both refits
of a slot W (m x n) depend on its inputs X only through G = X @ X.T, and,
since every Vt the refits produce lies in W's row space, for a wide slot
(m < n) only through H = W @ G @ W.T = Y @ Y.T, Y = W @ X its outputs (see
``compensation``). So the walk keeps G for a tall slot (m >= n) and H, from
the slot output the forward pass forms anyway, for a wide one. No n x n Gram
is formed for a wide slot. The whitening damping is REL_DAMPING * mean diag G,
and mean diag G = ||X||_F^2 / n. For a tall slot that is trace(G) / n of its
merged Gram, read once the walk is done; for a wide slot the walk sums
||X||_F^2 / n itself. That sum, as every sum of squares here, is
``linalg.frobenius_dot``, an ``einsum``: a BLAS dot product splits its sum
across threads, so its bits could follow the CPU count.

The buckets are one (buckets, tokens, d) array, and the walk goes over
slices of it on the worker pool below. With ``wide`` the widest slot
dimension (max of d and every h) and ``narrow`` the widest narrow-side Gram
side (max over slots of min(m, n)), the chunk width is
max(CHUNK_BYTES // (8 * wide), narrow) tokens, and every chunk but the last
holds max(1, width // tokens) buckets: its token matrices stay near cache
size, and the width is never narrower than the Gram it feeds. The walk
hands each slot's input and output to a visitor right after the slot's
product, and overwrites them once the visit returns (see
``model.walk_blocks``). The visitor forms the chunk's slot Gram, and for a
wide slot its share of ||X||_F^2 / n, there and hands them at once to
lock-guarded merges, which add chunk i's term only after chunk i - 1's and
hold one that arrives early until its turn; no worker waits, and no chunk
keeps its sums. Each chunk returns only every block's per-column importance
cosines, which the calling thread joins in chunk order. So none of them depends on the worker
count or on the order in which chunks finish.

Evaluation is one pool stage of its own. It cuts the held-out samples into
chunks of the same width, and its tasks are, longest first: every chunk's
walk of the original model, adding up every slot's ||W_hat x - W x||^2 and
||W x||^2 in the slot visits; every chunk's walk of the compressed model;
and every slot's weight error, W_hat formed once with W subtracted from it
in place. So the stage has 2 * chunks + slots tasks, and a one-chunk
tail is pooled like any other. The calling thread keeps only what needs
every chunk: it adds the sums and joins both outputs in chunk order, and
forms the end-to-end numbers from the joined outputs.

The walk chunks, the slot refits and the eval tasks are all too small to
scale across BLAS threads, so each of these pool stages sets its own thread
counts at run time (``_pool_run`` runs every stage and yields its results in
task order): workers = min(usable CPUs, tasks, MAX_WORKERS), and every loaded
OpenBLAS gets max(1, min(its current count, usable CPUs // workers)) threads,
so the user's count is never raised. Each library's previous count is
restored when the stage ends, so planning keeps the BLAS as it was.
Where no OpenBLAS can be controlled, the tasks run serially on the calling
thread and each BLAS call keeps the library's own count.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .allocation import CompressionPlan, build_plan, check_settings, column_cosines
from .calibration import Calibration, gram_accumulate, stack_of_batch
from .compensation import LossTrace, compensate
from .container import atomic_path
from .errors import LowrankError, ManifestMismatch, NumericalError, ShapeError
from .linalg import LowRankPair, frobenius_dot
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
    """Knobs of the stages after the walk; mrr defaults to trr - 0.10 (floored at trr itself)."""

    trr: float
    mrr: float | None = None
    iterations: int = 1
    whiten: bool = True
    importance_mode: str = "cos"

    def resolved_mrr(self) -> float:
        if self.mrr is not None:
            return self.mrr
        return self.trr - 0.10 if self.trr > 0.10 else self.trr

    def validate(self) -> None:
        check_settings(self.trr, self.resolved_mrr(), self.importance_mode)
        if self.iterations < 0:
            raise ShapeError(f"iteration count must be >= 0, got {self.iterations}")


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


def calibrate_file(
    model: ModelHandle, calib_file: str | Path, bucket_size: int, seed: int, with_grams: bool = True
) -> Calibration:
    """The calibration product of a file: its fitting samples, bucketed by ``stack_of_batch``, walked once."""
    fit_samples = split_calibration(_load_samples(model, calib_file))[0]
    bucketed = stack_of_batch(fit_samples, bucket_size, seed)
    del fit_samples  # the buckets are copies; drop the mapped samples before the walk
    return calibrate(model, bucketed.buckets, with_grams)


def calibrate(model: ModelHandle, samples: np.ndarray, with_grams: bool = True) -> Calibration:
    """One walk of the original model: the calibration product later stages read.

    ``samples`` is a (samples, tokens, d) array, or a list of equal-shape
    samples. With ``with_grams=False`` the walk keeps only the importances,
    and the Gram and mean-diagonal dicts are empty. The samples are walked in
    chunks on the pinned-BLAS worker pool, and each chunk's Grams and wide
    slots' mean diagonals are merged as they form (see the module
    docstring). A tall slot's mean diagonal is trace(G) / n of its merged Gram.
    """
    samples = as_samples(model, samples)
    grams, wide_diag = _OrderedSum(), _OrderedSum()

    def walk_chunk(task):
        index, chunk = task
        cosines: dict[int, np.ndarray] = {}

        def visit_slot(block_id, slot, x, out):
            name = slot_name(block_id, slot)
            wide = out.shape[0] < x.shape[0]
            try:
                gram = gram_accumulate(out if wide else x)  # wide: the Gram of its outputs
            except NumericalError as exc:
                raise NumericalError(f"{exc} in block {block_id}") from exc
            grams.add(name, index, gram)
            if wide:
                wide_diag.add(name, index, frobenius_dot(x, x) / x.shape[0])

        def visit_block(block_id, x, y, x_squares, y_squares):
            cosines[block_id] = column_cosines(x, y, x_squares, y_squares)

        walk_blocks(model, chunk, visit_slot if with_grams else None, visit_block)
        return cosines

    cosines: dict[int, list[np.ndarray]] = {}
    for part in _pool_run(walk_chunk, list(enumerate(_walk_chunks(model, samples)))):
        for block_id, cos in part.items():
            cosines.setdefault(block_id, []).append(cos)
    importances = {block_id: float(np.mean(np.concatenate(parts))) for block_id, parts in cosines.items()}
    mean_diag = {name: float(np.trace(gram)) / len(gram) for name, gram in grams.sums.items()}
    mean_diag.update(wide_diag.sums)  # a wide slot's Gram is of its outputs, not its inputs
    return Calibration(grams.sums, mean_diag, importances)


class _OrderedSum:
    """Per-name sums of terms that pool workers hand in, in any order, each tagged with its chunk index.

    Chunk i's term for a name is added only after chunk i - 1's; a term that
    arrives before its turn is held here until then, so no worker waits on
    another. Each sum is bit for bit that of adding the chunks in order, and
    chunk 0's term becomes the sum itself (an array term is added to in place).
    """

    def __init__(self) -> None:
        self.sums: dict[str, np.ndarray | float] = {}
        self._next: dict[str, int] = {}  # name: chunk index of the next term to add
        self._early: dict[tuple[str, int], np.ndarray | float] = {}
        self._lock = threading.Lock()

    def add(self, name: str, index: int, term: np.ndarray | float) -> None:
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
    shapes = [model.slot(block_id, slot).shape for block_id, slot in model.slot_ids()]
    width = max(CHUNK_BYTES // (8 * max(map(max, shapes))), max(map(min, shapes)))
    step = max(1, width // samples.shape[1])
    return [samples[i : i + step] for i in range(0, len(samples), step)]


def plan_compression(model: ModelHandle, calibration: Calibration, cfg: PipelineConfig) -> CompressionPlan:
    """The retention plan ``cfg`` gives from the calibration's importances; ``cfg.validate`` checks ``cfg``."""
    cfg.validate()
    return build_plan(calibration.importances, model, cfg.trr, cfg.resolved_mrr(), cfg.importance_mode)


def compress_model(
    model: ModelHandle,
    calibration: Calibration,
    cfg: PipelineConfig,
) -> tuple[ModelHandle, CompressionPlan, dict[str, LossTrace]]:
    """Plan from ``calibration`` and refit every planned slot; deterministic for fixed inputs.

    Consumes ``calibration.grams``, dropping each Gram once its slot is done,
    so that they do not all live to the end. To compress one calibration
    more than once, hand each call ``calibration._replace(grams=dict(calibration.grams))``.
    A planned slot with no Gram is a ShapeError naming it, and a NaN or inf
    loss in any slot's trace a NumericalError (see ``check_traces``).
    """
    plan = plan_compression(model, calibration, cfg)
    grams, ranks = calibration.grams, plan.slot_ranks()
    tasks = []  # (full slot name, weight, rank)
    for block_id, slot in model.slot_ids():
        name = slot_name(block_id, slot)
        rank = ranks[name]
        if rank is None:
            grams.pop(name, None)  # a dense slot's Gram is not needed past the plan
        elif name not in grams:
            raise ShapeError(f"slot {name}: the calibration has no Gram for it (with_grams=False, or consumed)")
        else:
            tasks.append((name, model.slot_weight(block_id, slot), rank))

    def run(task):
        name, w, rank = task
        try:
            gram = grams.pop(name)  # freed as soon as this slot is done
            damping = REL_DAMPING * calibration.mean_diag[name] if cfg.whiten else None
            return compensate(w, gram, rank, cfg.iterations, damping)
        except LowrankError as exc:
            raise type(exc)(f"slot {name}: {exc}") from exc

    results = list(_pool_run(run, tasks))

    factors = {name: pair for (name, _, _), (pair, _) in zip(tasks, results)}
    traces = {name: trace for (name, _, _), (_, trace) in zip(tasks, results)}
    check_traces(traces)
    return as_compressed_handle(model, factors), plan, traces


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
class EndToEnd:
    output_mse: float
    output_cosine_mean: float
    overlap_statistic: float


@dataclass
class Params:
    original: int
    compressed: int
    achieved_retention: float


@dataclass
class EvalReport:
    """The eval report; it is report.json, whose keys are its fields in this order.

    ``scored_on_all`` is set when the data had no held-out tail, so every sample was scored.
    """

    per_slot: list[SlotErrors]
    end_to_end: EndToEnd
    params: Params
    scored_on_all: bool


def _check_aligned(original: ModelHandle, compressed: ModelHandle) -> None:
    if (original.hidden_dim, original.activation) != (compressed.hidden_dim, compressed.activation):
        raise ManifestMismatch("models differ in hidden_dim or activation")
    if list(original.blocks) != list(compressed.blocks):
        raise ManifestMismatch("models have different block structure")
    for block_id, slot in original.slot_ids():
        if original.slot(block_id, slot).shape != compressed.slot(block_id, slot).shape:
            raise ManifestMismatch(
                f"slot {slot_name(block_id, slot)} shapes differ between the two models"
            )


def eval_compression(original: ModelHandle, compressed: ModelHandle, data: str | Path) -> EvalReport:
    """Per-slot and end-to-end error report over the held-out calibration tail.

    A set of fewer than 5 samples has no tail; then every sample is scored and
    the report's ``scored_on_all`` is set.

    The scored samples are cut into chunks as calibration's are, and the
    report is one stage on the pinned-BLAS worker pool (see the module
    docstring) whose tasks are, longest first: each chunk's walk of the
    original model, adding up every slot's ||W_hat x - W x||^2 and ||W x||^2
    in the slot visits; each chunk's walk of the compressed model; and each
    slot's weight error (``_weight_error``). A failing task surfaces in that
    order. The calling thread adds the sums and joins both outputs in chunk
    order, so no result depends on the worker count. Every squared norm is
    ``frobenius_dot``, not a BLAS sum, whose order can follow its thread
    count.
    """
    _check_aligned(original, compressed)
    samples = _load_samples(original, data)
    _, heldout = split_calibration(samples)
    scored_on_all = heldout.shape[0] < 1
    if scored_on_all:
        heldout = samples

    def walk_original(chunk):
        sums: dict[str, tuple[float, float]] = {}  # slot: (||W_hat x - W x||^2, ||W x||^2)

        def visit_slot(block_id, slot, x, wx):
            diff = compressed.slot(block_id, slot) @ x
            diff -= wx
            sums[slot_name(block_id, slot)] = (frobenius_dot(diff, diff), frobenius_dot(wx, wx))

        return sums, walk_blocks(original, chunk, visit_slot)

    def walk_compressed(chunk):
        return walk_blocks(compressed, chunk)

    def weight_error(block_id, slot):
        return _weight_error(slot_name(block_id, slot), original.slot_weight(block_id, slot),
                             compressed.slot(block_id, slot))

    chunks = _walk_chunks(original, heldout)
    slot_ids = original.slot_ids()
    tasks = [partial(walk_original, chunk) for chunk in chunks]
    tasks += [partial(walk_compressed, chunk) for chunk in chunks]
    tasks += [partial(weight_error, *slot_id) for slot_id in slot_ids]
    results = list(_pool_run(lambda task: task(), tasks))
    n = len(chunks)
    walked, comp_parts, weight_sums = results[:n], results[n : 2 * n], results[2 * n :]
    del results

    totals: dict[str, tuple[float, float]] = {}
    for sums, _ in walked:
        for name, (err, ref) in sums.items():
            total_err, total_ref = totals.get(name, (0.0, 0.0))
            totals[name] = (total_err + err, total_ref + ref)
    out_orig = np.concatenate([out for _, out in walked], axis=1)  # d x tokens, in sample order
    out_comp = np.concatenate(comp_parts, axis=1)
    del walked, comp_parts

    per_slot = []
    for (block_id, slot), (err, ref) in zip(slot_ids, weight_sums):
        name = slot_name(block_id, slot)
        per_slot.append(SlotErrors(slot=name, frob_rel_err=_relative_norm(err, ref),
                                   data_rel_err=_relative_norm(*totals[name])))

    mse = float(np.mean((out_orig - out_comp) ** 2))
    cosine = float(np.mean(column_cosines(out_orig, out_comp)))
    overlap = _histogram_overlap(out_orig.ravel(), out_comp.ravel())

    p_orig = original.param_count()
    p_comp = compressed.param_count()
    return EvalReport(
        per_slot=per_slot,
        end_to_end=EndToEnd(output_mse=mse, output_cosine_mean=cosine, overlap_statistic=overlap),
        params=Params(original=p_orig, compressed=p_comp, achieved_retention=p_comp / p_orig),
        scored_on_all=scored_on_all,
    )


def _weight_error(name: str, w: np.ndarray, w_hat: LowRankPair | np.ndarray) -> tuple[float, float]:
    """(||W_hat - W||_F^2, ||W||_F^2) of slot ``name``, through one m x n temporary.

    A low-rank W_hat is formed once and W is subtracted from it in place; a
    dense one is subtracted into one new array. Both are formed with
    overflow silenced, and a sum that is not finite is a NumericalError
    naming the slot, so that this task neither warns nor hands on a NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(w_hat, LowRankPair):
            diff = w_hat.product()
            diff -= w
        else:
            diff = w_hat - w
        err, ref = frobenius_dot(diff, diff), frobenius_dot(w, w)
    if not (math.isfinite(err) and math.isfinite(ref)):
        raise NumericalError(f"slot {name}: the weight error's sums of squares are not finite "
                             f"(||W_hat - W||^2 = {err!r}, ||W||^2 = {ref!r})")
    return err, ref


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

    A non-finite loss is a NumericalError, raised before any file is made;
    a file that cannot be written is an IoError naming ``path``.
    """
    check_traces(traces)
    with atomic_path(path) as tmp, open(tmp, "x", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "half_step", "loss"])
        for slot, trace in traces.items():
            writer.writerow([slot, 0, repr(trace.initial)])
            for i, loss in enumerate(trace.per_half_step, start=1):
                writer.writerow([slot, i, repr(loss)])
