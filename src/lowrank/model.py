"""Model container: manifest schema, loading/saving, the block walk (``walk_blocks``), synthetic generator.

A model is a stack of residual MLP blocks over a hidden dimension d. Each block
holds two dense slots, applied to column-token activations x (d x T):

    y = x + w2 @ act(w1 @ rms_norm(x))      w1: (h x d), w2: (d x h)

A slot is represented by exactly one of a dense matrix or a low-rank
pair (u: m x k, vt: k x n), and ``ModelHandle.slot`` returns it as that one
value: an ndarray or a ``LowRankPair``, each with ``shape``, ``size`` (the
stored parameter count) and ``@``.

On disk a model is its manifest (JSON, a ``ModelManifest``) and, beside it,
its tensor container ``<stem>.st`` (``model.json`` -> ``model.st``). Only
``load_model`` and ``save_model``, given the manifest's path, read or write
them: a handle holds slots, not tensor names.

``walk_blocks`` is the one forward. It calls a slot visitor right after each
slot's product and a block visitor once y is formed, and reuses each
activation's memory as soon as its last reader is done: act() overwrites the
pre-activation, and y overwrites the update. So a visitor reads what it is
handed during the call and keeps none of it. Each token's sum of squares is
formed once per activation; it feeds the next block's ``rms_norm``, the
block visitor (for the importance cosines) and the walk's one finiteness
check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .container import dtype_tag, load_container, save_container, write_json
from .errors import FormatError, IoError, ManifestMismatch, NumericalError, ShapeError
from .linalg import LowRankPair

SUPPORTED_VERSIONS = ("1",)
ACTIVATIONS = ("relu", "gelu", "identity")
BLOCK_SLOTS = ("w1", "w2")
RMS_EPS = 1e-12


@dataclass(frozen=True)
class LowRankRef:
    """Names of the stored factor tensors for one compressed slot."""

    u: str
    vt: str
    rank: int


@dataclass
class BlockSpec:
    block_id: int
    kind: str = "residual_mlp"
    matrices: dict[str, str] = field(default_factory=dict)
    lowrank: dict[str, LowRankRef] = field(default_factory=dict)


@dataclass
class ModelManifest:
    """The model manifest; it is model.json, whose keys are its fields in this order."""

    version: str
    hidden_dim: int
    activation: str
    blocks: list[BlockSpec]

    @staticmethod
    def from_json(doc: dict) -> "ModelManifest":
        try:
            version = doc["version"]
            hidden_dim = _json_int(doc["hidden_dim"])
            activation = doc["activation"]
            blocks_doc = doc["blocks"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"manifest lacks a valid version, hidden_dim, activation or blocks: {exc}") from exc
        _check_header(version, activation, hidden_dim)
        if not isinstance(blocks_doc, list):
            raise FormatError(f"manifest 'blocks' must be a list, got {type(blocks_doc).__name__}")
        blocks = []
        for i, entry in enumerate(blocks_doc):
            try:
                matrices = {
                    slot: _tensor_name(name) for slot, name in _json_object(entry.get("matrices", {})).items()
                }
                lowrank = {
                    slot: LowRankRef(u=_tensor_name(ref["u"]), vt=_tensor_name(ref["vt"]), rank=_json_int(ref["rank"]))
                    for slot, ref in _json_object(entry.get("lowrank", {})).items()
                }
                blocks.append(
                    BlockSpec(
                        block_id=_json_int(entry["block_id"]),
                        kind=entry.get("kind", "residual_mlp"),
                        matrices=matrices,
                        lowrank=lowrank,
                    )
                )
            except (AttributeError, KeyError, TypeError) as exc:
                raise FormatError(f"manifest block {i} is malformed: {type(exc).__name__} {exc}") from exc
        return ModelManifest(version=version, hidden_dim=hidden_dim, activation=activation, blocks=blocks)


def _check_header(version, activation, hidden_dim: int) -> None:
    """FormatError for a manifest version, activation or hidden_dim that ``load_model`` does not accept."""
    if version not in SUPPORTED_VERSIONS:
        raise FormatError(f"unsupported manifest version {version!r}")
    if activation not in ACTIVATIONS:
        raise FormatError(f"unknown activation {activation!r}")
    if hidden_dim < 1:
        raise FormatError(f"hidden_dim must be positive, got {hidden_dim}")


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _json_int(value) -> int:
    # bool is an int subclass, and int() would truncate 8.9 and parse "0"
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _tensor_name(name) -> str:
    if not isinstance(name, str):
        raise TypeError(f"tensor name must be a string, got {type(name).__name__}")
    return name


def slot_name(block_id: int, slot: str) -> str:
    return f"blocks.{block_id}.{slot}"


@dataclass
class ModelHandle:
    """An in-memory model: ``blocks`` maps each block id, in manifest order, to ``{"w1": op, "w2": op}``.

    Each op is a float64 ndarray or a ``LowRankPair``. ``dtypes`` maps a
    ``slot_name`` to the tag, "F32" or "F64", that ``save_model`` stores the
    slot as (F64 if absent). Treat a loaded handle as immutable: its F64
    arrays are read-only views into the mapped container.
    """

    hidden_dim: int
    activation: str
    blocks: dict[int, dict[str, np.ndarray | LowRankPair]]
    dtypes: dict[str, str] = field(default_factory=dict)

    def slot_ids(self) -> list[tuple[int, str]]:
        return [(block_id, slot) for block_id in self.blocks for slot in BLOCK_SLOTS]

    def slot(self, block_id: int, slot: str) -> np.ndarray | LowRankPair:
        """The slot as its operator: the dense matrix, or the low-rank pair.

        Either one has ``shape``, ``size`` (the stored parameter count) and
        ``@``, so a caller reads it without asking which it is. An unknown
        block or slot is a ManifestMismatch.
        """
        try:
            return self.blocks[block_id][slot]
        except KeyError:
            raise ManifestMismatch(f"the model has no slot {slot} in block {block_id}") from None

    def slot_weight(self, block_id: int, slot: str) -> np.ndarray:
        """Dense matrix of the slot (materializes the product for low-rank slots)."""
        op = self.slot(block_id, slot)
        return op.product() if isinstance(op, LowRankPair) else op

    def param_count(self) -> int:
        return sum(self.slot(b, s).size for b, s in self.slot_ids())


# --- block walk -------------------------------------------------------------


def token_squares(x: np.ndarray) -> np.ndarray:
    """Each token's sum of squares: the column sums of x**2 of a (d x T) activation matrix.

    One ``einsum`` pass with no x**2 temporary. On the C-ordered activations
    of the walk it adds row by row, the bits of ``add.reduce(square(x),
    axis=0)``, and it makes no BLAS call, so its bits never follow a thread
    count. Summed under ``np.errstate(over="ignore")``, so a column with
    |x| >~ 1.3e154 gives inf without a warning; the walk raises for it.
    """
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->j", x, x)


def rms_norm(x: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """Per-column RMS normalization of a (d x T) activation matrix.

    ``squares`` is ``token_squares(x)``, formed here unless the caller has it.
    """
    if squares is None:
        squares = token_squares(x)
    return x / np.sqrt(squares / x.shape[0] + RMS_EPS)


def apply_activation(name: str, x: np.ndarray, in_place: bool = False) -> np.ndarray:
    """The activation of x; with ``in_place`` it overwrites x and returns it (the same bits)."""
    out = x if in_place else None
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    if name == "gelu":
        # Imported here: erf is the package's only use of scipy. Importing
        # scipy.special takes most of `import lowrank`'s time, about doubles
        # its memory and loads scipy's own OpenBLAS; relu and identity skip it.
        from scipy.special import erf

        # 0.5 * x * (1 + erf(x / sqrt(2))), evaluated in that order, with one temporary
        phi = np.divide(x, np.sqrt(2.0))
        erf(phi, out=phi)
        phi += 1.0
        out = np.multiply(x, 0.5, out=out)
        out *= phi
        return out
    if name == "identity":
        return x
    raise FormatError(f"unknown activation {name!r}")


def as_samples(model: ModelHandle, samples: np.ndarray) -> np.ndarray:
    """``samples`` as a float64 (samples, tokens, d) array; ShapeError if empty or of another shape."""
    samples = np.asarray(samples, dtype=np.float64)
    d = model.hidden_dim
    if samples.size == 0 or samples.ndim != 3 or samples.shape[2] != d:
        raise ShapeError(f"need at least one token in a (samples, tokens, {d}) array, got shape {samples.shape}")
    return samples


def _checked_squares(x: np.ndarray, block_id: int) -> np.ndarray:
    """``token_squares(x)``; NumericalError naming the block if one is not finite or underflows.

    A nonzero token underflows when its sum of squares is below the smallest
    normal double (2.2e-308): subnormal or 0, it has lost precision. An
    all-zero token is valid (its square is 0); the columns are read only when
    some square is below that bound, to tell such a token from one that
    underflowed.
    """
    squares = token_squares(x)
    if not np.all(np.isfinite(squares)):
        if np.all(np.isfinite(x)):
            raise NumericalError(
                f"activations overflow in block {block_id}: a token's sum of squares exceeds 1.8e308"
            )
        raise NumericalError(f"non-finite activations in block {block_id}")
    small = squares < np.finfo(np.float64).tiny
    if small.any() and np.any(x[:, small]):
        raise NumericalError(
            f"activations underflow in block {block_id}: a nonzero token's sum of squares is below 2.2e-308"
        )
    return squares


def walk_blocks(
    model: ModelHandle,
    samples: np.ndarray,
    visit_slot: Callable | None = None,
    visit_block: Callable | None = None,
) -> np.ndarray:
    """Run the model forward block by block over every token of ``samples``.

    ``samples`` is a (samples, tokens, d) array, or a list of equal-shape
    samples; the columns of every activation are all tokens in sample order.
    Returns the last block's output (d x tokens). Per block, right after
    each slot's product, calls ``visit_slot(block_id, slot, x, out)``: w1
    with (rms_norm(block input), pre-activation), then w2 with (hidden state,
    update). Once the block output y = x + update is formed, calls
    ``visit_block(block_id, x, y, x_squares, y_squares)``, the last two being
    ``token_squares`` of x and y, which the next block's ``rms_norm`` reads
    too.

    Each activation lives only until its last reader is done: the hidden
    state overwrites the pre-activation, and y overwrites the update. So a
    visitor must not write to, or keep, an array it is handed once it
    returns. Every array a visitor is handed is C-ordered: the first
    block's input is a C-ordered copy of the tokens of ``samples``.

    Raises ShapeError for no samples or another shape, and NumericalError
    naming the block whose input or output has a non-finite token, or a
    token whose sum of squares overflows. Only those sums are checked, with
    overflow silenced, so no warning comes first: a slot visitor can see
    non-finite values that the block then reports.
    """
    samples = as_samples(model, samples)
    # Every block op is per-column, so one pass over all token columns equals
    # a sample-by-sample forward. The transposed view is F-ordered; one copy
    # to C order gives every block the layout of every later activation, so
    # a per-token sum takes the same order in block 0 as in the rest.
    x = np.ascontiguousarray(samples.reshape(-1, model.hidden_dim).T)
    x_squares = _checked_squares(x, next(iter(model.blocks)))
    with np.errstate(over="ignore", invalid="ignore"):
        for block_id, ops in model.blocks.items():
            x_norm = rms_norm(x, x_squares)
            pre = ops["w1"] @ x_norm
            if visit_slot is not None:
                visit_slot(block_id, "w1", x_norm, pre)
            del x_norm
            hidden = apply_activation(model.activation, pre, in_place=True)
            update = ops["w2"] @ hidden
            if visit_slot is not None:
                visit_slot(block_id, "w2", hidden, update)
            del pre, hidden
            update += x
            y, y_squares = update, _checked_squares(update, block_id)
            if visit_block is not None:
                visit_block(block_id, x, y, x_squares, y_squares)
            x, x_squares = y, y_squares
    return x


# --- validation, load, save -------------------------------------------------


def _checked_slots(manifest: ModelManifest, tensors: dict[str, np.ndarray]) -> dict[int, dict]:
    """Each block's slots as ops over ``tensors``, in manifest order, once the manifest is checked against them."""
    _check_header(manifest.version, manifest.activation, manifest.hidden_dim)
    d = manifest.hidden_dim
    if not manifest.blocks:
        raise FormatError("manifest has no blocks")
    ids = [block.block_id for block in manifest.blocks]
    if len(set(ids)) != len(ids):
        raise FormatError(f"manifest repeats block ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    blocks: dict[int, dict[str, np.ndarray | LowRankPair]] = {}
    for block in manifest.blocks:
        if block.kind != "residual_mlp":
            raise FormatError(f"block {block.block_id}: unknown kind {block.kind!r}")
        unknown = sorted((block.matrices.keys() | block.lowrank.keys()) - set(BLOCK_SLOTS))
        if unknown:
            raise FormatError(f"block {block.block_id}: unknown slot {unknown[0]!r}")
        ops = blocks[block.block_id] = {}
        for slot in BLOCK_SLOTS:
            dense = slot in block.matrices
            pair = slot in block.lowrank
            if dense == pair:
                raise FormatError(
                    f"block {block.block_id} slot {slot}: must be exactly one of dense or low-rank"
                )
            if dense:
                name = block.matrices[slot]
                if name not in tensors:
                    raise ManifestMismatch(f"manifest references absent tensor {name!r}")
                if tensors[name].ndim != 2:
                    raise ShapeError(f"tensor {name!r} must be rank 2, got shape {tensors[name].shape}")
                ops[slot] = tensors[name]
            else:
                ref = block.lowrank[slot]
                for tn in (ref.u, ref.vt):
                    if tn not in tensors:
                        raise ManifestMismatch(f"manifest references absent tensor {tn!r}")
                u, vt = tensors[ref.u], tensors[ref.vt]
                if u.ndim != 2 or vt.ndim != 2:
                    raise ShapeError(f"factor tensors of {slot} in block {block.block_id} must be rank 2")
                if u.shape[1] != ref.rank or vt.shape[0] != ref.rank:
                    raise ShapeError(
                        f"block {block.block_id} slot {slot}: inner dims {u.shape[1]}/{vt.shape[0]} "
                        f"do not match declared rank {ref.rank}"
                    )
                ops[slot] = LowRankPair(u, vt)
        (m1, n1), (m2, n2) = ops["w1"].shape, ops["w2"].shape
        if n1 != d or m2 != d:
            raise ShapeError(
                f"block {block.block_id} does not map hidden_dim {d} to itself: w1 {(m1, n1)}, w2 {(m2, n2)}"
            )
        if m1 != n2:
            raise ShapeError(
                f"block {block.block_id}: w1 output dim {m1} does not match w2 input dim {n2}"
            )
    return blocks


def container_path(manifest_path: str | Path) -> Path:
    """Where a model's tensor container sits: beside its manifest, as ``<stem>.st``."""
    return Path(manifest_path).with_suffix(".st")


def load_model(manifest_path: str | Path) -> ModelHandle:
    """Load and validate the model of a manifest and its container; F64 slots are read-only views into the map."""
    try:
        doc = json.loads(Path(manifest_path).read_text("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{manifest_path}: not valid JSON: {exc}") from exc
    manifest = ModelManifest.from_json(doc)
    stored = load_container(container_path(manifest_path))
    blocks = _checked_slots(manifest, {name: arr.astype(np.float64, copy=False) for name, arr in stored.items()})
    dtypes = {  # a pair's tag is its u's
        slot_name(b.block_id, slot): dtype_tag(stored[b.matrices[slot] if slot in b.matrices else b.lowrank[slot].u])
        for b in manifest.blocks
        for slot in BLOCK_SLOTS
    }
    return ModelHandle(manifest.hidden_dim, manifest.activation, blocks, dtypes)


def save_model(model: ModelHandle, manifest_path: str | Path) -> None:
    """Write the container, then the manifest; each slot is stored under its ``slot_name`` at its dtype tag.

    A factored slot's factors are ``<slot_name>.u`` and ``<slot_name>.vt``.
    Refuses, with load_model's error, a model that load_model would reject.
    Each file replaces its target only once it is written whole, and the
    manifest only after the container, so a failure leaves the previous pair.
    """
    specs: list[BlockSpec] = []
    tensors: dict[str, np.ndarray] = {}
    for block_id, ops in model.blocks.items():
        spec = BlockSpec(block_id=block_id)
        for slot, op in ops.items():
            name = slot_name(block_id, slot)
            dtype = np.float32 if model.dtypes.get(name) == "F32" else np.float64
            if isinstance(op, LowRankPair):
                spec.lowrank[slot] = LowRankRef(u=f"{name}.u", vt=f"{name}.vt", rank=op.rank)
                tensors[f"{name}.u"] = op.u_sigma.astype(dtype, copy=False)
                tensors[f"{name}.vt"] = op.vt_sigma.astype(dtype, copy=False)
            else:
                spec.matrices[slot] = name
                tensors[name] = op.astype(dtype, copy=False)
        specs.append(spec)
    manifest = ModelManifest(version="1", hidden_dim=model.hidden_dim, activation=model.activation, blocks=specs)
    _checked_slots(manifest, tensors)
    save_container(container_path(manifest_path), tensors)
    write_json(manifest, manifest_path)


def as_compressed_handle(model: ModelHandle, factors: dict[str, LowRankPair]) -> ModelHandle:
    """The in-memory model with each slot named in ``factors`` (by ``slot_name``) held as its pair.

    Every other slot is kept dense (a factored one is densified), and every
    slot keeps its dtype tag.
    """
    blocks = {block_id: dict(ops) for block_id, ops in model.blocks.items()}
    for block_id, slot in model.slot_ids():
        pair = factors.get(slot_name(block_id, slot))
        blocks[block_id][slot] = model.slot_weight(block_id, slot) if pair is None else pair
    return ModelHandle(model.hidden_dim, model.activation, blocks, dict(model.dtypes))


# --- synthetic generator ----------------------------------------------------


def gen_synthetic(
    seed: int,
    blocks: int,
    d: int,
    h: int,
    n_samples: int = 64,
    tokens: int = 64,
    activation: str = "relu",
) -> tuple[ModelHandle, np.ndarray]:
    """Deterministic synthetic model plus calibration tensor (n_samples x tokens x d).

    Weights are zero-mean Gaussian scaled by 1/sqrt(fan_in); calibration
    samples are standard normal.
    """
    if min(blocks, d, h, n_samples, tokens) < 1:
        raise ShapeError("all synthetic sizes must be >= 1")
    if seed < 0:
        raise ShapeError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    weights = {}
    for i in range(blocks):
        w1 = rng.normal(0.0, 1.0, size=(h, d)) / np.sqrt(d)
        w2 = rng.normal(0.0, 1.0, size=(d, h)) / np.sqrt(h)
        weights[i] = {"w1": w1, "w2": w2}
    samples = rng.normal(0.0, 1.0, size=(n_samples, tokens, d))
    return ModelHandle(hidden_dim=d, activation=activation, blocks=weights), samples


def save_calibration(path: str | Path, samples: np.ndarray) -> None:
    """Write a calibration tensor (n_samples x tokens x d) as a single-tensor container."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3:
        raise ShapeError(f"calibration tensor must be rank 3, got shape {samples.shape}")
    save_container(path, {"samples": samples})


def load_calibration(path: str | Path) -> np.ndarray:
    """Read the calibration tensor (a read-only view into the mapped file if F64); validates rank-3 shape."""
    tensors = load_container(path)
    if "samples" not in tensors:
        raise ManifestMismatch(f"{path}: calibration container lacks a 'samples' tensor")
    samples = tensors["samples"].astype(np.float64, copy=False)
    if samples.ndim != 3:
        raise ShapeError(f"{path}: calibration tensor must be rank 3, got shape {samples.shape}")
    return samples

