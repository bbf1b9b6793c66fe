"""IDX loading, synthetic datasets, and checkpoint round trips."""

import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn.checkpoint import (
    Checkpoint,
    instance_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from dtsnn.datasets import (
    Dataset,
    load_idx,
    read_idx_images,
    synth_dataset,
)
from dtsnn.config import spec_from_dict, spec_to_dict
from dtsnn.errors import ChecksumError, DataFormatError, VersionError
from dtsnn.network import (
    LayerSpec,
    NetworkSpec,
    build_instance,
    scan_timesteps,
)
from idx_files import write_idx_images, write_idx_labels

rng = np.random.default_rng(31337)


class TestIdx:
    def test_hand_crafted_two_image_fixture(self, tmp_path):
        # Bytes written out field by field; the loader must reproduce them.
        img_path = tmp_path / "imgs.idx3-ubyte"
        lbl_path = tmp_path / "lbls.idx1-ubyte"
        pixels = bytes(
            [0, 255, 128, 64, 1, 2, 3, 4] + [10, 20, 30, 40, 50, 60, 70, 80]
        )
        with open(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 4))
            fh.write(pixels)
        with open(lbl_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(bytes([7, 3]))
        ds = load_idx(img_path, lbl_path, mean=0.0, std=1.0, split="test")
        assert ds.images.shape == (2, 1, 2, 4)
        npt.assert_array_equal(ds.labels, [7, 3])
        expected = np.frombuffer(pixels, np.uint8).reshape(2, 1, 2, 4) / 255.0
        npt.assert_allclose(ds.images, expected.astype(np.float32), atol=1e-7)

    def test_round_trip_through_writers(self, tmp_path):
        images = rng.integers(0, 256, size=(5, 9, 9), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5).astype(np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        npt.assert_array_equal((ds.images[:, 0] * 255).round().astype(np.uint8), images)
        npt.assert_array_equal(ds.labels, labels)

    def test_corrupted_magic_names_expectation(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000777, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(DataFormatError, match="0x00000803"):
            read_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 4, 4))
            fh.write(bytes(10))  # needs 32
        with pytest.raises(DataFormatError, match="truncated"):
            read_idx_images(path)

    def test_header_whose_count_passes_2_to_the_63_is_truncated(self, tmp_path):
        # 2**31 * 2**31 * 4 wraps to 0 in numpy's int64 product.
        path = tmp_path / "huge.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4))
            fh.write(bytes(16))
        with pytest.raises(DataFormatError, match="truncated IDX payload"):
            read_idx_images(path)

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 2, 2), np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(4, np.uint8))
        with pytest.raises(DataFormatError, match="does not match label count"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_empty_split_rejected(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((0, 3, 3), np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(0, np.uint8))
        with pytest.raises(DataFormatError, match=r"i\.idx: IDX file holds no images"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_normalization_recorded(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.full((2, 3, 3), 255, np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(2, np.uint8))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx", mean=0.5, std=2.0)
        assert (ds.mean, ds.std) == (0.5, 2.0)
        npt.assert_allclose(ds.images, 0.25, atol=1e-7)


class TestSynth:
    def test_same_seed_identical(self):
        a = synth_dataset("stripes", 60, 10, seed=5)
        b = synth_dataset("stripes", 60, 10, seed=5)
        npt.assert_array_equal(a.images, b.images)
        npt.assert_array_equal(a.labels, b.labels)

    def test_label_histogram_balanced(self):
        ds = synth_dataset("blobs", 103, 10, seed=0)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_blobs_wide_separation_linear_probe(self):
        ds = synth_dataset("blobs", 120, 2, seed=3, noise=0.05)
        x = ds.images.reshape(len(ds), -1).astype(np.float64)
        x = np.hstack([x, np.ones((len(ds), 1))])
        onehot = np.eye(2)[ds.labels]
        coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        preds = (x @ coef).argmax(axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            synth_dataset("spirals", 10, 2, seed=0)

    def test_needs_at_least_one_per_class(self):
        with pytest.raises(ValueError, match="n >= num_classes"):
            synth_dataset("blobs", 3, 5, seed=0)

    def test_standardized_and_recorded(self):
        ds = synth_dataset("stripes", 200, 4, seed=9)
        assert abs(ds.images.mean()) < 1e-5
        assert abs(ds.images.std() - 1.0) < 1e-4
        assert ds.std > 0

    def test_subset(self):
        ds = synth_dataset("stripes", 50, 5, seed=1)
        sub = ds.subset(20)
        assert len(sub) == 20
        npt.assert_array_equal(sub.images, ds.images[:20])


def small_spec():
    return NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=3,
        t_max=4,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )


class TestCheckpoint:
    def make_ckpt(self, seed=0):
        net = build_instance(small_spec(), seed=seed)
        return net, Checkpoint(
            spec=net.spec,
            params=net.params,
            train_config={"epochs": 3, "lr0": 0.1},
            seed=seed,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        net, ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.spec == net.spec
        assert loaded.seed == 0
        assert loaded.train_config == {"epochs": 3, "lr0": 0.1}
        for orig, back in zip(net.params, loaded.params):
            assert (orig is None) == (back is None)
            for name in orig or ():
                npt.assert_array_equal(orig[name], back[name])
                assert orig[name].dtype == back[name].dtype

    def test_version_bump_rejected(self, tmp_path):
        _, ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        body = raw[:-32]
        body[8] = 9  # little-endian version field right after the magic
        import hashlib

        digest = hashlib.sha256(bytes(body)).digest()
        path.write_bytes(bytes(body) + digest)
        with pytest.raises(VersionError, match="version 9"):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        _, ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="corrupted"):
            load_checkpoint(path)

    def test_array_shape_checked_against_spec(self, tmp_path):
        _, ckpt = self.make_ckpt()
        ckpt.params[4] = dict(ckpt.params[4], w=ckpt.params[4]["w"].T)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(DataFormatError, match=r"layer 4 parameter 'w' has shape \(64, 3\)"):
            load_checkpoint(path)

    def test_missing_parameter_detected(self, tmp_path):
        _, ckpt = self.make_ckpt()
        ckpt.params[4] = {"w": ckpt.params[4]["w"]}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(DataFormatError, match="layer 4 is missing parameter 'b'"):
            load_checkpoint(path)

    def resealed(self, tmp_path, reseal, **edits):
        _, ckpt = self.make_ckpt()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        return reseal(path, **edits)

    def test_short_payload_rejected(self, tmp_path, reseal):
        path = self.resealed(tmp_path, reseal, edit_payload=lambda p: p[:-8])
        with pytest.raises(DataFormatError, match="payload ends inside layer 4 parameter 'w'"):
            load_checkpoint(path)

    def test_object_dtype_rejected(self, tmp_path, reseal):
        def to_object(header):
            header["arrays"][0]["dtype"] = "|O"

        path = self.resealed(tmp_path, reseal, edit_header=to_object)
        with pytest.raises(DataFormatError, match=r"non-numeric dtype '\|O'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, reseal):
        path = self.resealed(tmp_path, reseal, edit_payload=lambda p: p + bytes(8))
        with pytest.raises(DataFormatError, match="8 bytes follow the last array"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keys", [
        ("seed",), ("arrays",), ("num_layers",), ("spec",), ("train_config",),
        ("arrays", 0, "layer"), ("arrays", 0, "name"), ("arrays", 0, "shape"),
        ("arrays", 0, "dtype"),
        ("spec", "t_max"), ("spec", "layers"), ("spec", "lif"),
    ], ids=lambda keys: "-".join(map(str, keys)))
    def test_missing_header_key_named(self, reseal, keys):
        def drop(header):
            part = header
            for key in keys[:-1]:
                part = part[key]
            del part[keys[-1]]

        path = reseal(edit_header=drop)
        where = {1: "header", 2: "spec", 3: "manifest entry 0"}[len(keys)]
        message = f"{re.escape(str(path))}: {where} lacks key '{keys[-1]}'"
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["spec"]["layers"][0].update(kernel_size=3), "invalid spec .*'kernel_size'"),
        (lambda h: h["arrays"].__setitem__(0, 7), "manifest entry 0 is not a mapping"),
    ], ids=["unknown_spec_layer_key", "manifest_entry_not_a_mapping"])
    def test_malformed_header_part_named(self, reseal, edit, message):
        path = reseal(edit_header=edit)
        with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_mistyped_spec_field_named(self, reseal):
        path = reseal(edit_header=lambda h: h["spec"].update(t_max=True))
        message = f"{re.escape(str(path))}: invalid spec .*model.t_max must be int, got True"
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)

    def test_header_not_json_named(self, reseal):
        path = reseal(raw_header=b"{not json")
        with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: header is not JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.update(num_layers=13.0), "num_layers 13.0 is not an integer"),
        (lambda h: h.update(arrays={}), "arrays is not a list"),
        (lambda h: h["arrays"][0].update(layer=0.0), "manifest entry 0 has layer 0.0, not an integer"),
        (lambda h: h["arrays"][0].update(name=["w"]), r"manifest entry 0 has name \['w'\], not a string"),
        (lambda h: h["arrays"][0].update(shape=[12.0]), r"manifest entry 0 has shape \[12.0\], not a list"),
        (lambda h: h["arrays"][0].update(shape=12), "manifest entry 0 has shape 12, not a list"),
    ], ids=["num_layers_float", "arrays_mapping", "layer_float", "name_list", "shape_float", "shape_int"])
    def test_manifest_field_type_named(self, reseal, edit, message):
        path = reseal(edit_header=edit)
        with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("eps", 1e-3), ("momentum", 0.2)])
    def test_foreign_norm_constant_rejected(self, reseal, key, value):
        def change(header):
            gamma = next(e for e in header["arrays"] if e["name"] == "gamma")
            assert gamma[key] != value
            gamma[key] = value

        path = reseal(edit_header=change)
        with pytest.raises(DataFormatError, match=f"has {key} {value}; this build normalizes"):
            load_checkpoint(path)

    def test_spec_too_large_to_build_is_checked_without_building(self, reseal):
        # A layer plan of 2**40 input channels: the stored shapes do not match
        # it, and no array of its size is allocated to find that out.
        path = reseal(edit_header=lambda h: h["spec"]["input_shape"].__setitem__(0, 2**40))
        message = (r"layer 0 parameter 'w' has shape \(12, 1, 3, 3\), "
                   rf"spec needs \(12, {2**40}, 3, 3\)")
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_inference_equivalence_after_reload(self, tmp_path):
        net, ckpt = self.make_ckpt(seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        rebuilt = instance_from_checkpoint(load_checkpoint(path))
        images = rng.standard_normal((100, 1, 8, 8)).astype(np.float32)
        a = scan_timesteps(net, images, 4)["mean_logits"][:, 3]
        b = scan_timesteps(rebuilt, images, 4)["mean_logits"][:, 3]
        npt.assert_array_equal(a, b)

    def test_spec_dict_round_trip(self):
        spec = small_spec()
        assert spec_from_dict(spec_to_dict(spec)) == spec
