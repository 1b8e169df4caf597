import copy
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank import container
from lowrank.cli import run_cli
from lowrank.container import dump_json, load_container, save_container
from lowrank.errors import FormatError, IoError, LowrankError, ManifestMismatch, ShapeError
from lowrank.linalg import LowRankPair
from lowrank.model import (
    ACTIVATIONS,
    BLOCK_SLOTS,
    BlockSpec,
    LowRankRef,
    ModelHandle,
    ModelManifest,
    as_compressed_handle,
    gen_synthetic,
    load_calibration,
    load_model,
    save_calibration,
    save_model,
    slot_name,
    walk_blocks,
)
from lowrank.pipeline import PipelineConfig, calibrate_file, compress_model
from oracles import forward, svd_full, truncate_absorb
from strategies import JSON_VALUES


def save_and_reload(model, tmp_path, name="m"):
    save_model(model, tmp_path / f"{name}.json")
    return load_model(tmp_path / f"{name}.json")


def assert_same_slots(a, b):
    assert a.slot_ids() == b.slot_ids()
    for block_id, slot in a.slot_ids():
        np.testing.assert_array_equal(a.slot_weight(block_id, slot), b.slot_weight(block_id, slot))


class TestGenSynthetic:
    def test_deterministic(self):
        m1, c1 = gen_synthetic(seed=7, blocks=3, d=8, h=16)
        m2, c2 = gen_synthetic(seed=7, blocks=3, d=8, h=16)
        np.testing.assert_array_equal(c1, c2)
        assert_same_slots(m1, m2)

    def test_different_seeds_differ(self):
        m1, _ = gen_synthetic(seed=0, blocks=1, d=8, h=16)
        m2, _ = gen_synthetic(seed=1, blocks=1, d=8, h=16)
        assert not np.array_equal(m1.slot(0, "w1"), m2.slot(0, "w1"))

    def test_forward_preserves_shape(self):
        model, calib = gen_synthetic(seed=42, blocks=4, d=32, h=64)
        out = forward(model, calib[0])
        assert out.shape == (calib.shape[1], 32)

    def test_fan_in_scaling(self):
        model, _ = gen_synthetic(seed=5, blocks=1, d=64, h=128)
        w1 = model.slot(0, "w1")
        w2 = model.slot(0, "w2")
        assert w1.shape == (128, 64)
        assert w2.shape == (64, 128)
        assert abs(w1.std() - 1 / np.sqrt(64)) < 0.02
        assert abs(w2.std() - 1 / np.sqrt(128)) < 0.01

    @pytest.mark.parametrize("seed", range(10))
    def test_forward_finite(self, seed):
        model, calib = gen_synthetic(seed=seed, blocks=4, d=16, h=32, n_samples=4, tokens=8)
        for sample in calib:
            assert np.all(np.isfinite(forward(model, sample)))

    def test_calibration_tensor_shape(self):
        _, calib = gen_synthetic(seed=0, blocks=2, d=8, h=16, n_samples=5, tokens=11)
        assert calib.shape == (5, 11, 8)

    @pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
    def test_activations_forward_finite(self, activation):
        model, calib = gen_synthetic(
            seed=3, blocks=2, d=8, h=16, n_samples=2, tokens=4, activation=activation
        )
        out = forward(model, calib[0])
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
    def test_walk_hands_each_slot_its_output(self, activation):
        model, calib = gen_synthetic(seed=4, blocks=3, d=8, h=16, n_samples=3, tokens=5, activation=activation)
        factors = {
            slot_name(b, s): truncate_absorb(svd_full(model.slot_weight(b, s)), 4) for b, s in model.slot_ids()
        }
        for handle in (model, as_compressed_handle(model, factors)):
            visited, updates = [], {}

            def visit_slot(block_id, slot, x, out):
                # at visit time: the walk overwrites w1's output and turns w2's into the block output
                assert out.tobytes() == (handle.slot(block_id, slot) @ x).tobytes()
                updates[slot] = out.copy()
                visited.append((block_id, slot))

            def visit_block(block_id, x_in, y, x_squares, y_squares):
                assert y.tobytes() == (x_in + updates["w2"]).tobytes()
                visited.append(block_id)

            walk_blocks(handle, list(calib), visit_slot, visit_block)
            assert visited == [step for b in range(3) for step in ((b, "w1"), (b, "w2"), b)]

    @pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
    def test_all_zero_token_walks_with_cosine_zero(self, activation):
        """A zero token is no underflow: it stays zero through every block and gets cosine 0."""
        from lowrank.allocation import column_cosines

        model, calib = gen_synthetic(seed=4, blocks=3, d=8, h=16, n_samples=3, tokens=5, activation=activation)
        calib = np.array(calib)
        calib[1, 2] = 0.0
        zero = 1 * 5 + 2  # columns are the tokens in sample order
        cosines = []

        def visit_block(block_id, x_in, y, x_squares, y_squares):
            cosines.append(column_cosines(x_in, y, x_squares, y_squares))

        out = walk_blocks(model, calib, visit_block=visit_block)
        assert not out[:, zero].any() and np.all(np.delete(out, zero, axis=1).any(axis=0))
        assert [c[zero] for c in cosines] == [0.0, 0.0, 0.0]
        assert all(np.all(np.delete(c, zero) != 0.0) for c in cosines)

    @pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
    def test_walk_overwrites_each_activation(self, activation):
        """The hidden state is w1's output overwritten, and the block output is w2's."""
        model, calib = gen_synthetic(seed=4, blocks=2, d=8, h=16, n_samples=3, tokens=5, activation=activation)
        seen = {}

        def visit_slot(block_id, slot, x, out):
            seen[block_id, slot] = x, out  # kept only to compare addresses

        def visit_block(block_id, x_in, y, x_squares, y_squares):
            assert np.shares_memory(seen[block_id, "w2"][0], seen[block_id, "w1"][1])
            assert np.shares_memory(y, seen[block_id, "w2"][1])

        walk_blocks(model, calib, visit_slot, visit_block)
        assert len(seen) == 4

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("activation", ["relu", "gelu", "identity"])
    def test_in_place_activation_keeps_the_bits(self, activation, order):
        from lowrank.model import apply_activation

        x = np.random.default_rng(8).normal(scale=3.0, size=(16, 40))
        x[0, :6] = [0.0, -0.0, 40.0, -40.0, 1e-310, -1e-310]
        x = np.asarray(x, order=order)
        expected = apply_activation(activation, x)
        work = x.copy(order="K")
        out = apply_activation(activation, work, in_place=True)
        assert out is work
        assert out.tobytes() == expected.tobytes()

    def test_activation_functions(self):
        from lowrank.model import apply_activation

        x = np.array([[-2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(apply_activation("relu", x), [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(apply_activation("identity", x), x)
        gelu = apply_activation("gelu", x)
        assert gelu[0, 1] == 0.0
        assert gelu[0, 2] == pytest.approx(2.0 * 0.9772498680518208)  # Phi(2) * 2
        assert gelu[0, 0] == pytest.approx(-2.0 * (1 - 0.9772498680518208))


class TestLoadSave:
    def test_round_trip_bit_identical(self, tmp_path):
        model, _ = gen_synthetic(seed=42, blocks=4, d=32, h=64)
        save_model(model, tmp_path / "a.json")
        loaded = load_model(tmp_path / "a.json")
        assert_same_slots(loaded, model)
        save_model(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.st").read_bytes() == (tmp_path / "b.st").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_over_the_loaded_files(self, tmp_path):
        model, _ = gen_synthetic(seed=5, blocks=2, d=8, h=16)
        save_model(model, tmp_path / "m.json")
        before = (tmp_path / "m.st").read_bytes()
        loaded = load_model(tmp_path / "m.json")
        assert not any(loaded.slot(b, s).flags.writeable for b, s in loaded.slot_ids())  # views into the mapped file
        save_model(loaded, tmp_path / "m.json")  # replaces the mapped file
        assert_same_slots(loaded, model)
        assert (tmp_path / "m.st").read_bytes() == before
        assert_same_slots(load_model(tmp_path / "m.json"), model)

    def test_f32_storage_round_trip(self, tmp_path):
        model, _ = gen_synthetic(seed=1, blocks=1, d=4, h=8)
        model.dtypes = {slot_name(b, s): "F32" for b, s in model.slot_ids()}
        loaded = save_and_reload(model, tmp_path)
        assert loaded.dtypes["blocks.0.w1"] == "F32"
        assert loaded.slot(0, "w1").dtype == np.float64  # working copy
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "m.st").read_bytes() == (tmp_path / "again.st").read_bytes()

    @pytest.mark.parametrize("stage", ["write", "replace"])
    def test_failed_container_write_keeps_the_previous_pair(self, tmp_path, monkeypatch, stage):
        save_model(gen_synthetic(seed=1, blocks=1, d=4, h=8)[0], tmp_path / "m.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args):
            raise OSError("injected")

        if stage == "write":  # the temp file is open and nothing is written yet
            monkeypatch.setattr(container, "struct", SimpleNamespace(pack=fail))
        else:  # the temp file is written whole
            monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError, match="injected"):
            save_model(gen_synthetic(seed=2, blocks=2, d=8, h=16)[0], tmp_path / "m.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_absent_tensor_is_manifest_mismatch(self, tmp_path):
        model, _ = gen_synthetic(seed=1, blocks=4, d=4, h=8)
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["blocks"][3]["matrices"]["w2"] = "blocks.3.missing"
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestMismatch):
            load_model(tmp_path / "m.json")

    @pytest.mark.parametrize("field, value, match", [
        ("activation", "tanh", "unknown activation 'tanh'"),
    ])
    def test_save_refuses_what_load_rejects(self, tmp_path, field, value, match):
        model, _ = gen_synthetic(seed=1, blocks=1, d=4, h=8)
        setattr(model, field, value)
        with pytest.raises(FormatError, match=match):
            save_model(model, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_unsupported_version(self, tmp_path):
        model, _ = gen_synthetic(seed=1, blocks=1, d=4, h=8)
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["version"] = "99"
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(tmp_path / "m.json")

    def test_shape_contradiction(self, tmp_path):
        model, _ = gen_synthetic(seed=1, blocks=2, d=4, h=8)
        model.blocks[1]["w2"] = np.zeros((5, 8))  # out dim != hidden_dim
        with pytest.raises(ShapeError):
            save_and_reload(model, tmp_path)

    @pytest.mark.parametrize("block_id, slot", [(0, "w3"), (99, "w1")], ids=["slot", "block"])
    def test_unknown_slot_is_manifest_mismatch(self, block_id, slot):
        model, _ = gen_synthetic(seed=1, blocks=2, d=4, h=8)
        with pytest.raises(ManifestMismatch, match=f"no slot {slot} in block {block_id}"):
            model.slot(block_id, slot)

    @pytest.mark.parametrize("edit, match", [
        (lambda blocks: blocks[0]["matrices"].pop("w1"), "block 0 slot w1: must be exactly one"),
        (lambda blocks: blocks[0]["matrices"].update(w3="no.such.tensor"), "block 0: unknown slot 'w3'"),
        (lambda blocks: blocks[1]["lowrank"].update(w9={"u": "blocks.1.w1", "vt": "blocks.1.w2", "rank": 2}),
         "block 1: unknown slot 'w9'"),
    ], ids=["missing", "unknown-dense", "unknown-lowrank"])
    def test_slot_must_have_exactly_one_representation(self, tmp_path, edit, match):
        model, samples = gen_synthetic(seed=1, blocks=2, d=4, h=8, n_samples=8, tokens=4)
        save_model(model, tmp_path / "m.json")
        save_calibration(tmp_path / "c.st", samples)
        doc = json.loads((tmp_path / "m.json").read_text())
        edit(doc["blocks"])
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=match):
            load_model(tmp_path / "m.json")
        out = tmp_path / "out"
        assert run_cli(["compress", "--model", str(tmp_path / "m.json"), "--calib", str(tmp_path / "c.st"),
                        "--target-retention", "0.6", "--out", str(out)]) == 1
        assert not out.exists()


@pytest.mark.parametrize("literal", ["8.9", '"0"', "true", "1e400"], ids=["fraction", "string", "bool", "overflow"])
@pytest.mark.parametrize("field", ["hidden_dim", "block_id", "rank"])
def test_manifest_integers_must_be_json_integers(tmp_path, field, literal):
    model, _ = gen_synthetic(seed=2, blocks=2, d=4, h=8)
    pair = truncate_absorb(svd_full(model.slot_weight(1, "w1")), 2)
    save_model(as_compressed_handle(model, {"blocks.1.w1": pair}), tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    owner = {"hidden_dim": doc, "block_id": doc["blocks"][0], "rank": doc["blocks"][1]["lowrank"]["w1"]}[field]
    owner[field] = "@literal@"
    (tmp_path / "m.json").write_text(json.dumps(doc).replace('"@literal@"', literal))
    with pytest.raises(FormatError, match="expected an integer"):
        load_model(tmp_path / "m.json")


def _paths(node, prefix=()):
    """Every path into a JSON document, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_manifests(draw, valid: dict) -> bytes:
    text = json.dumps(valid)
    kind = draw(st.sampled_from(["replace", "delete", "truncate", "nest", "bytes"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "nest":
        return b"[" * draw(st.integers(1, 100_000))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    doc = copy.deepcopy(valid)
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths if kind == "replace" else paths[1:]))
    if not path:
        return json.dumps(draw(JSON_VALUES)).encode()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "replace":
        parent[path[-1]] = draw(JSON_VALUES)
    else:
        del parent[path[-1]]
    return json.dumps(doc).encode()


def test_mutated_manifests_raise_only_lowrank_errors(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    model, _ = gen_synthetic(seed=2, blocks=2, d=4, h=8)
    pair = truncate_absorb(svd_full(model.slot_weight(1, "w1")), 2)
    path = workdir / "m.json"
    save_model(as_compressed_handle(model, {"blocks.1.w1": pair}), path)
    valid = json.loads(path.read_text())
    assert valid["blocks"][0]["matrices"] and valid["blocks"][1]["lowrank"]

    @given(raw=_mutated_manifests(valid))
    @settings(max_examples=200, deadline=None)
    def check(raw):
        path.write_bytes(raw)  # beside the valid container, m.st
        try:
            load_model(path)
        except LowrankError:
            pass

    check()


class TestSaveCompressed:
    def test_param_accounting_64x64_rank16(self, tmp_path):
        model, _ = gen_synthetic(seed=9, blocks=1, d=64, h=64)
        factors = {}
        for block_id, slot in model.slot_ids():
            w = model.slot_weight(block_id, slot)
            factors[slot_name(block_id, slot)] = truncate_absorb(svd_full(w), 16)
        save_model(as_compressed_handle(model, factors), tmp_path / "model.json")
        stored = load_container(tmp_path / "model.st")
        assert stored["blocks.0.w1.u"].shape == (64, 16)
        assert stored["blocks.0.w1.vt"].shape == (16, 64)
        assert stored["blocks.0.w1.u"].size + stored["blocks.0.w1.vt"].size == 16 * (64 + 64)
        loaded = load_model(tmp_path / "model.json")
        assert loaded.slot(0, "w1").size == 2048

    def test_zero_compressed_slots_is_dense_copy(self, tmp_path):
        model, _ = gen_synthetic(seed=3, blocks=2, d=8, h=16)
        save_model(as_compressed_handle(model, {}), tmp_path / "model.json")
        assert_same_slots(load_model(tmp_path / "model.json"), model)
        assert not any(b["lowrank"] for b in json.loads((tmp_path / "model.json").read_text())["blocks"])

    def test_saved_pair_reproduces_forward(self, tmp_path):
        model, calib = gen_synthetic(seed=11, blocks=2, d=16, h=32, n_samples=2, tokens=8)
        factors = {
            slot_name(b, s): truncate_absorb(svd_full(model.slot_weight(b, s)), 10)
            for b, s in model.slot_ids()
        }
        save_model(as_compressed_handle(model, factors), tmp_path / "model.json")
        reloaded = load_model(tmp_path / "model.json")
        in_memory = ModelHandle(
            hidden_dim=reloaded.hidden_dim,
            activation=reloaded.activation,
            blocks={b: {s: factors[slot_name(b, s)] for s in BLOCK_SLOTS} for b in reloaded.blocks},
        )
        out_mem = forward(in_memory, calib[0])
        out_disk = forward(reloaded, calib[0])
        err = np.linalg.norm(out_disk - out_mem) / max(np.linalg.norm(out_mem), 1e-300)
        assert err <= 1e-12

    def test_full_rank_pair_preserves_block_outputs(self, tmp_path):
        model, calib = gen_synthetic(seed=2, blocks=1, d=24, h=48, n_samples=1, tokens=16)
        k = 24  # min(m, n) for both slots
        factors = {
            slot_name(b, s): truncate_absorb(svd_full(model.slot_weight(b, s)), k)
            for b, s in model.slot_ids()
        }
        save_model(as_compressed_handle(model, factors), tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        ref = forward(model, calib[0])
        out = forward(loaded, calib[0])
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_recompressed_f32_model_stays_f32(self, tmp_path):
        """A factored slot's dtype comes from its own u, so compressing a compressed F32 model writes F32."""
        model, samples = gen_synthetic(seed=3, blocks=2, d=32, h=64, n_samples=10, tokens=8)
        model.dtypes = {slot_name(b, s): "F32" for b, s in model.slot_ids()}
        save_calibration(tmp_path / "c.st", samples)
        for step in ("once", "twice"):
            calibration = calibrate_file(model, tmp_path / "c.st", 32, 0)
            compressed, _, _ = compress_model(model, calibration, PipelineConfig(trr=0.6))
            assert any(isinstance(compressed.slot(b, s), LowRankPair) for b, s in compressed.slot_ids())
            save_model(compressed, tmp_path / f"{step}.json")
            assert {arr.dtype for arr in load_container(tmp_path / f"{step}.st").values()} == {np.dtype("<f4")}
            model = load_model(tmp_path / f"{step}.json")

    def test_factored_slot_saves_at_the_dtype_of_its_u(self, tmp_path):
        """A slot has one dtype tag: a file with an F32 u and an F64 vt saves both as F32, under slot names."""
        model, _ = gen_synthetic(seed=3, blocks=1, d=8, h=16)
        pair = truncate_absorb(svd_full(model.slot_weight(0, "w1")), 4)
        save_model(as_compressed_handle(model, {"blocks.0.w1": pair}), tmp_path / "m.json")
        stored = load_container(tmp_path / "m.st")
        stored["blocks.0.w1.u"] = stored["blocks.0.w1.u"].astype(np.float32)
        save_container(tmp_path / "m.st", stored)
        loaded = load_model(tmp_path / "m.json")
        assert loaded.dtypes == {"blocks.0.w1": "F32", "blocks.0.w2": "F64"}
        save_model(loaded, tmp_path / "again.json")
        assert {name: arr.dtype.str for name, arr in load_container(tmp_path / "again.st").items()} == {
            "blocks.0.w1.u": "<f4", "blocks.0.w1.vt": "<f4", "blocks.0.w2": "<f8"}

    def test_dimension_mismatch_rejected(self, tmp_path):
        model, _ = gen_synthetic(seed=3, blocks=1, d=8, h=16)
        bad = LowRankPair(u_sigma=np.zeros((16, 4)), vt_sigma=np.zeros((4, 16)))
        factors = {slot_name(b, s): bad for b, s in model.slot_ids()}
        with pytest.raises(ShapeError):
            save_model(as_compressed_handle(model, factors), tmp_path / "model.json")


@st.composite
def _manifests(draw) -> ModelManifest:
    """A manifest ``load_model`` accepts before it looks at tensors, each slot dense or factored."""
    names = st.text(max_size=8)
    blocks = []
    for block_id in draw(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=4, unique=True)):
        spec = BlockSpec(block_id=block_id)
        for slot in BLOCK_SLOTS:
            if draw(st.booleans()):
                spec.lowrank[slot] = LowRankRef(u=draw(names), vt=draw(names), rank=draw(st.integers(1, 1 << 20)))
            else:
                spec.matrices[slot] = draw(names)
        blocks.append(spec)
    return ModelManifest(version="1", hidden_dim=draw(st.integers(1, 1 << 20)),
                         activation=draw(st.sampled_from(ACTIVATIONS)), blocks=blocks)


@given(manifest=_manifests())
@settings(deadline=None)
def test_manifest_json_round_trip(manifest):
    assert ModelManifest.from_json(json.loads(dump_json(manifest, "the manifest"))) == manifest


class TestCalibrationFile:
    def test_round_trip(self, tmp_path, rng):
        samples = rng.normal(size=(6, 5, 4))
        save_calibration(tmp_path / "c.st", samples)
        np.testing.assert_array_equal(load_calibration(tmp_path / "c.st"), samples)

    def test_rank3_required(self, tmp_path, rng):
        with pytest.raises(ShapeError):
            save_calibration(tmp_path / "c.st", rng.normal(size=(5, 4)))
