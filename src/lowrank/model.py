"""Model container: manifest schema, loading/saving, the block walk (``walk_blocks``), synthetic generator.

A model is a stack of residual MLP blocks over a hidden dimension d. Each block
holds two dense slots, applied to column-token activations x (d x T):

    y = x + w2 @ act(w1 @ rms_norm(x))      w1: (h x d), w2: (d x h)

A slot is represented by exactly one of a dense matrix or an absorbed low-rank
pair (u: m x k, vt: k x n), and ``ModelHandle.slot`` returns it as that one
value: an ndarray or a ``LowRankPair``, each with ``shape``, ``size`` (the
stored parameter count) and ``@``. All tensors live in a companion container
file; the manifest (JSON) names them.

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

from .container import load_container, save_container, write_json
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
    """An in-memory model: manifest plus every tensor as float64.

    ``storage_dtypes`` remembers each tensor's on-disk dtype tag so a save
    round-trips bit-identically. Treat a loaded handle as immutable: its F64
    tensors are read-only views into the mapped container.
    """

    manifest: ModelManifest
    tensors: dict[str, np.ndarray]
    storage_dtypes: dict[str, str]

    @property
    def hidden_dim(self) -> int:
        return self.manifest.hidden_dim

    def slot_ids(self) -> list[tuple[int, str]]:
        return [(b.block_id, slot) for b in self.manifest.blocks for slot in BLOCK_SLOTS]

    def slot(self, block_id: int, slot: str) -> np.ndarray | LowRankPair:
        """The slot as its operator: the dense matrix, or the absorbed low-rank pair.

        Either one has ``shape``, ``size`` (the stored parameter count) and
        ``@``, so a caller reads it without asking which it is.
        """
        for b in self.manifest.blocks:
            if b.block_id == block_id:
                ref = b.lowrank.get(slot)
                if ref is None:
                    return self.tensors[b.matrices[slot]]
                return LowRankPair(u_sigma=self.tensors[ref.u], vt_sigma=self.tensors[ref.vt])
        raise ManifestMismatch(f"no block {block_id} in manifest")

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
    token whose sum of squares overflows. Only those sums are checked: a
    slot visitor can see non-finite values that the block then reports.
    """
    samples = as_samples(model, samples)
    # Every block op is per-column, so one pass over all token columns equals
    # a sample-by-sample forward. The transposed view is F-ordered; one copy
    # to C order gives every block the layout of every later activation, so
    # a per-token sum takes the same order in block 0 as in the rest.
    x = np.ascontiguousarray(samples.reshape(-1, model.hidden_dim).T)
    x_squares = _checked_squares(x, model.manifest.blocks[0].block_id)
    for block in model.manifest.blocks:
        block_id = block.block_id
        x_norm = rms_norm(x, x_squares)
        pre = model.slot(block_id, "w1") @ x_norm
        if visit_slot is not None:
            visit_slot(block_id, "w1", x_norm, pre)
        del x_norm
        hidden = apply_activation(model.manifest.activation, pre, in_place=True)
        update = model.slot(block_id, "w2") @ hidden
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


def _validate(manifest: ModelManifest, tensors: dict[str, np.ndarray]) -> None:
    _check_header(manifest.version, manifest.activation, manifest.hidden_dim)
    d = manifest.hidden_dim
    if not manifest.blocks:
        raise FormatError("manifest has no blocks")
    ids = [block.block_id for block in manifest.blocks]
    if len(set(ids)) != len(ids):
        raise FormatError(f"manifest repeats block ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    for block in manifest.blocks:
        if block.kind != "residual_mlp":
            raise FormatError(f"block {block.block_id}: unknown kind {block.kind!r}")
        unknown = sorted((block.matrices.keys() | block.lowrank.keys()) - set(BLOCK_SLOTS))
        if unknown:
            raise FormatError(f"block {block.block_id}: unknown slot {unknown[0]!r}")
        shapes: dict[str, tuple[int, int]] = {}
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
                shapes[slot] = tensors[name].shape
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
                shapes[slot] = (u.shape[0], vt.shape[1])
        (m1, n1), (m2, n2) = shapes["w1"], shapes["w2"]
        if n1 != d or m2 != d:
            raise ShapeError(
                f"block {block.block_id} does not map hidden_dim {d} to itself: w1 {shapes['w1']}, w2 {shapes['w2']}"
            )
        if m1 != n2:
            raise ShapeError(
                f"block {block.block_id}: w1 output dim {m1} does not match w2 input dim {n2}"
            )


def load_model(manifest_path: str | Path, container_path: str | Path) -> ModelHandle:
    """Load and validate a model; F64 tensors are read-only views into the mapped container."""
    try:
        doc = json.loads(Path(manifest_path).read_text("utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{manifest_path}: not valid JSON: {exc}") from exc
    manifest = ModelManifest.from_json(doc)
    stored = load_container(container_path)
    _validate(manifest, stored)
    tensors = {name: arr.astype(np.float64, copy=False) for name, arr in stored.items()}
    dtypes = {name: ("F32" if arr.dtype == np.float32 else "F64") for name, arr in stored.items()}
    return ModelHandle(manifest=manifest, tensors=tensors, storage_dtypes=dtypes)


def save_model(model: ModelHandle, manifest_path: str | Path, container_path: str | Path) -> None:
    """Write container, then manifest; tensors are cast back to their storage dtype.

    Each file replaces its target only once it is written whole, and the
    manifest only after the container, so a failure leaves the previous pair.
    """
    _validate(model.manifest, model.tensors)
    out: dict[str, np.ndarray] = {}
    for name, arr in model.tensors.items():
        tag = model.storage_dtypes.get(name, "F64")
        out[name] = arr.astype(np.float32 if tag == "F32" else np.float64, copy=False)
    save_container(container_path, out)
    write_json(model.manifest, manifest_path)


def as_compressed_handle(model: ModelHandle, factors: dict[str, LowRankPair]) -> ModelHandle:
    """The in-memory model with each slot named in ``factors`` (by ``slot_name``) held as its pair.

    Every other slot is kept dense. Each new tensor keeps the storage dtype of
    the slot's own tensor (its dense matrix, or its ``u`` if already factored).
    """
    blocks: list[BlockSpec] = []
    tensors: dict[str, np.ndarray] = {}
    dtypes: dict[str, str] = {}
    for block in model.manifest.blocks:
        spec = BlockSpec(block_id=block.block_id, kind=block.kind)
        for slot in BLOCK_SLOTS:
            name = slot_name(block.block_id, slot)
            ref = block.lowrank.get(slot)
            tag = model.storage_dtypes.get(block.matrices[slot] if ref is None else ref.u, "F64")
            pair = factors.get(name)
            if pair is None:
                spec.matrices[slot] = name
                tensors[name] = model.slot_weight(block.block_id, slot)
                dtypes[name] = tag
                continue
            u_name, vt_name = f"{name}.u", f"{name}.vt"
            spec.lowrank[slot] = LowRankRef(u=u_name, vt=vt_name, rank=pair.rank)
            tensors[u_name] = pair.u_sigma
            tensors[vt_name] = pair.vt_sigma
            dtypes[u_name] = dtypes[vt_name] = tag
        blocks.append(spec)
    manifest = ModelManifest(
        version=model.manifest.version,
        hidden_dim=model.manifest.hidden_dim,
        activation=model.manifest.activation,
        blocks=blocks,
    )
    return ModelHandle(manifest=manifest, tensors=tensors, storage_dtypes=dtypes)


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
    specs: list[BlockSpec] = []
    tensors: dict[str, np.ndarray] = {}
    for i in range(blocks):
        w1 = rng.normal(0.0, 1.0, size=(h, d)) / np.sqrt(d)
        w2 = rng.normal(0.0, 1.0, size=(d, h)) / np.sqrt(h)
        names = {slot: slot_name(i, slot) for slot in BLOCK_SLOTS}
        tensors[names["w1"]] = w1
        tensors[names["w2"]] = w2
        specs.append(BlockSpec(block_id=i, matrices=names))
    samples = rng.normal(0.0, 1.0, size=(n_samples, tokens, d))
    manifest = ModelManifest(version="1", hidden_dim=d, activation=activation, blocks=specs)
    handle = ModelHandle(
        manifest=manifest,
        tensors=tensors,
        storage_dtypes={name: "F64" for name in tensors},
    )
    return handle, samples


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

