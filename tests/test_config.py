"""Configuration parsing: defaults, validation messages, round trips."""

import copy
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsnn.config import (
    DEFAULT_THETA_GRID,
    load_dataset_pair,
    parse_config,
    parse_config_dict,
    serialize_config,
    spec_from_dict,
    spec_to_dict,
)
from dtsnn.errors import ConfigError

MINIMAL = {
    "model": {
        "input_shape": [1, 8, 8],
        "num_classes": 3,
        "t_max": 4,
        "layers": [
            {"kind": "conv", "out_channels": 4},
            {"kind": "norm"},
            {"kind": "lif"},
            {"kind": "pool", "window": 2},
            {"kind": "classifier"},
        ],
    },
    "train": {"epochs": 2},
}


def write_config(tmp_path, raw):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestHardwareDefaults:
    def test_empty_hardware_section_gives_reference_table(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        arch = cfg.arch
        assert arch.crossbar_size == 64
        assert arch.crossbars_per_tile == 64
        assert arch.device_bits == 4
        assert arch.weight_bits == 8

    def test_hardware_override(self, tmp_path):
        raw = dict(MINIMAL)
        raw["hardware"] = {"crossbar_size": 128, "sigma_e_ratio": 1e-4}
        cfg = parse_config(write_config(tmp_path, raw))
        assert cfg.arch.crossbar_size == 128
        assert cfg.arch.sigma_e_ratio == 1e-4

    @pytest.mark.parametrize("key", [
        "crossbars_per_pe", "sigma_over_mu", "r_on_kohm", "r_off_over_r_on",
        "v_dd", "v_read", "global_buffer_kb", "tile_buffer_kb", "pe_buffer_kb",
        "sigma_lut_kb", "entropy_lut_kb", "technology", "adc_mux_ratio",
    ])
    def test_reference_design_values_are_not_keys(self, key):
        raw = {**MINIMAL, "hardware": {key: 1}}
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'hardware'"):
            parse_config_dict(raw)


class TestValidation:
    def test_tau_out_of_range_quotes_invariant(self, tmp_path):
        raw = {**MINIMAL, "model": {**MINIMAL["model"], "lif": {"tau": 1.5}}}
        with pytest.raises(ConfigError, match=r"0 < tau <= 1"):
            parse_config(write_config(tmp_path, raw))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section 'hardwear'"):
            parse_config_dict({**MINIMAL, "hardwear": {}})

    def test_unknown_train_key_named(self):
        for key in ("learning_rate", "per_timestep_target"):
            raw = {**MINIMAL, "train": {"epochs": 2, key: 0.1}}
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'train'"):
                parse_config_dict(raw)

    def test_unknown_layer_key_named(self):
        raw = {**MINIMAL, "model": {**MINIMAL["model"], "layers": [
            {"kind": "conv", "out_channels": 4, "kernel_size": 3},
            {"kind": "lif"},
            {"kind": "classifier"},
        ]}}
        with pytest.raises(ConfigError, match="kernel_size"):
            parse_config_dict(raw)

    def test_numeric_key_beside_string_keys_named(self):
        raw = {**MINIMAL, "model": {**MINIMAL["model"], "layers": [
            {"kind": "lif", 11: 1.5, "x": 1},
            {"kind": "classifier"},
        ]}}
        with pytest.raises(ConfigError, match=r"unknown key '11' in section 'model\.layers\[0\]'"):
            parse_config_dict(raw)
        with pytest.raises(ConfigError, match="unknown section '7'"):
            parse_config_dict({**MINIMAL, 7: {}, "trian": {}})

    @pytest.mark.parametrize("field, value, message", [
        ("out_channels", "12", r"model\.layers\[0\]\.out_channels must be int, got '12'"),
        ("kernel", 3.0, r"model\.layers\[0\]\.kernel must be int, got 3\.0"),
        ("bias", "yes", r"model\.layers\[0\]\.bias must be bool, got 'yes'"),
    ], ids=["out_channels_str", "kernel_float", "bias_str"])
    def test_layer_field_type_named(self, field, value, message):
        layers = [{"kind": "conv", "out_channels": 4, field: value}] + MINIMAL["model"]["layers"][1:]
        raw = {**MINIMAL, "model": {**MINIMAL["model"], "layers": layers}}
        with pytest.raises(ConfigError, match=message):
            parse_config_dict(raw)

    def test_model_field_type_is_config_error(self):
        raw = {**MINIMAL, "model": {**MINIMAL["model"], "num_classes": "3"}}
        with pytest.raises(ConfigError, match="section 'model'"):
            parse_config_dict(raw)

    def test_model_section_required(self):
        with pytest.raises(ConfigError, match="'model'"):
            parse_config_dict({"train": {"epochs": 1}})

    def test_theta_out_of_range(self):
        raw = {**MINIMAL, "exit": {"theta": 1.5}}
        with pytest.raises(ConfigError, match="0 <= theta <= 1"):
            parse_config_dict(raw)

    def test_bad_data_kind(self):
        raw = {**MINIMAL, "data": {"kind": "csv"}}
        with pytest.raises(ConfigError, match="'idx' or 'synth'"):
            parse_config_dict(raw)

    @pytest.mark.parametrize("key", ["n_train", "n_test"])
    def test_empty_dataset_rejected(self, key):
        raw = {**MINIMAL, "data": {key: 0}}
        with pytest.raises(ConfigError, match=f"{key} >= 1, got 0"):
            parse_config_dict(raw)


class TestFieldTypes:
    """Every value is checked against its field's type at the boundary."""

    @pytest.mark.parametrize("path, value, message", [
        ("train.epochs", "3", "must be int, got '3'"),
        ("train.epochs", True, "must be int, got True"),
        ("train.batch_size", 32.0, "must be int, got 32.0"),
        ("hardware.crossbar_size", "64", "must be int, got '64'"),
        ("exit.theta", "0.1", "must be float, got '0.1'"),
        ("exit.theta_grid", 0.3, "must be list, got 0.3"),
        ("data.noise", "x", "must be float, got 'x'"),
        ("data.train_images", 5, "must be str, got 5"),
        ("model.t_max", True, "must be int, got True"),
        ("model.lif.tau", "0.5", "must be float, got '0.5'"),
    ])
    def test_wrong_type_names_key(self, path, value, message):
        raw = copy.deepcopy(MINIMAL)
        *sections, key = path.split(".")
        part = raw
        for name in sections:
            part = part.setdefault(name, {})
        part[key] = value
        with pytest.raises(ConfigError, match=re.escape(f"{path} {message}")):
            parse_config_dict(raw)

    def test_eval_batch_is_an_unknown_train_key(self):
        raw = {**MINIMAL, "train": {"epochs": 2, "eval_batch": 512}}
        with pytest.raises(ConfigError, match="unknown key 'eval_batch' in section 'train'"):
            parse_config_dict(raw)


def _number(lo, hi):
    """An int or a float in [lo, hi]: a float field takes both."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False))


_TEXT = st.one_of(st.text(alphabet="ab5/._- ", max_size=10),
                  st.sampled_from(["true", "null", "5", "~", "1e3", "0.5"]))


@st.composite
def _networks(draw):
    """A valid model mapping: conv blocks with optional norm / pool / fc."""
    channels, side = draw(st.integers(1, 3)), draw(st.sampled_from([4, 8]))
    size, layers = side, []
    for _ in range(draw(st.integers(1, 2))):
        kernel = draw(st.sampled_from([1, 3]))
        layers.append({"kind": "conv", "out_channels": draw(st.integers(1, 6)),
                       "kernel": kernel, "padding": kernel // 2,
                       "bias": draw(st.booleans())})
        if draw(st.booleans()):
            layers.append({"kind": "norm"})
        layers.append(draw(st.sampled_from([
            {"kind": "lif"}, {"kind": "lif", "tau": 0.25}, {"kind": "lif", "v_th": 2},
        ])))
        if size % 2 == 0 and draw(st.booleans()):
            layers.append({"kind": "pool", "window": 2})
            size //= 2
    if draw(st.booleans()):
        layers += [{"kind": "fc", "out_features": draw(st.integers(1, 8))}, {"kind": "lif"}]
    layers.append({"kind": "classifier"})
    return {
        "input_shape": [channels, side, side],
        "num_classes": draw(st.integers(2, 10)),
        "t_max": draw(st.integers(1, 8)),
        "lif": {"tau": draw(_number(0.01, 1.0)), "v_th": draw(_number(0.1, 4.0))},
        "layers": layers,
    }


_SECTIONS = _networks().flatmap(lambda model: st.fixed_dictionaries({
    "model": st.just(model),
    "train": st.fixed_dictionaries({
        "epochs": st.integers(1, 50), "batch_size": st.integers(1, 512),
        "lr0": _number(1e-4, 1.0), "weight_decay": _number(0.0, 1e-2),
        "momentum": st.one_of(st.just(0), st.floats(0.0, 1.0, exclude_max=True)),
        "loss_mode": st.sampled_from(["standard", "per_timestep"]),
        "seed": st.integers(0, 2**31), "t_train": st.integers(1, model["t_max"]),
    }),
    "exit": st.fixed_dictionaries({
        "theta": _number(0.0, 1.0),
        "theta_grid": st.lists(_number(0.0, 1.0), min_size=1, max_size=6),
    }),
    "hardware": st.integers(0, 3).flatmap(lambda bits: st.fixed_dictionaries({
        "crossbar_size": st.integers(1, 256), "crossbars_per_tile": st.integers(1, 256),
        "device_bits": st.just(2**bits), "weight_bits": st.integers(1, 4).map(lambda k: k * 2**bits),
        "e_mac": _number(0.0, 1.0), "e_adc": _number(0.0, 1.0),
        "e_crossbar_digital": _number(0.0, 1.0), "e_crossbar_buffer": _number(0.0, 1.0),
        "e_step_digital": _number(0.0, 1.0), "e_step_buffer": _number(0.0, 1.0),
        "sigma_e_ratio": _number(0.0, 1.0), "latency_per_timestep": _number(1e-3, 10.0),
    })),
    "data": st.fixed_dictionaries({
        "kind": st.sampled_from(["idx", "synth"]), "train_images": _TEXT,
        "train_labels": _TEXT, "test_images": _TEXT, "test_labels": _TEXT,
        "mean": _number(-1.0, 1.0), "std": _number(0.1, 2.0),
        "limit_train": st.integers(0, 100), "limit_test": st.integers(0, 100),
        "synth_kind": st.sampled_from(["blobs", "stripes"]),
        "n_train": st.integers(model["num_classes"], 10_000),
        "n_test": st.integers(model["num_classes"], 10_000),
        "image_size": st.integers(1, 64), "noise": _number(0.0, 2.0), "seed": st.integers(0, 10_000),
    }),
}))


class TestRoundTripProperty:
    """Whatever serialize_config emits, the typed reader reads back."""

    @settings(max_examples=60, deadline=None)
    @given(_SECTIONS)
    def test_parse_serialize_parse_is_fixed_point(self, raw):
        first = parse_config_dict(raw)
        text = serialize_config(first)
        second = parse_config_dict(yaml.safe_load(text))
        assert (second.network, second.train, second.exit, second.arch, second.data) == (
            first.network, first.train, first.exit, first.arch, first.data)
        assert serialize_config(second) == text

    @settings(max_examples=60, deadline=None)
    @given(_networks())
    def test_spec_dict_round_trip(self, model):
        spec = spec_from_dict(model)
        assert spec_from_dict(spec_to_dict(spec)) == spec


class TestDefaultsAndRoundTrip:
    def test_default_theta_grid_has_ten_points_with_zero(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.exit.theta_grid == DEFAULT_THETA_GRID
        assert len(cfg.exit.theta_grid) == 10
        assert cfg.exit.theta_grid[0] == 0.0

    def test_lif_defaults(self):
        cfg = parse_config_dict(MINIMAL)
        assert (cfg.network.lif.tau, cfg.network.lif.v_th) == (0.5, 1.0)

    def test_round_trip_is_fixed_point(self, tmp_path):
        first = parse_config(write_config(tmp_path, MINIMAL))
        text = serialize_config(first)
        second = parse_config_dict(yaml.safe_load(text))
        assert second.network == first.network
        assert second.train == first.train
        assert second.exit == first.exit
        assert second.arch == first.arch
        assert second.data == first.data
        assert serialize_config(second) == text


class TestDataLoading:
    def test_synth_pair(self):
        cfg = parse_config_dict({**MINIMAL, "data": {
            "kind": "synth", "n_train": 30, "n_test": 12, "image_size": 8,
        }})
        train, test = load_dataset_pair(cfg.data, cfg.network.num_classes)
        assert len(train) == 30 and len(test) == 12
        assert train.images.shape[1:] == (1, 8, 8)
        assert train.labels.max() < 3

    def test_limits_apply(self):
        cfg = parse_config_dict({**MINIMAL, "data": {
            "kind": "synth", "n_train": 30, "n_test": 12, "image_size": 8,
            "limit_train": 10, "limit_test": 5,
        }})
        train, test = load_dataset_pair(cfg.data, 3)
        assert len(train) == 10 and len(test) == 5

    def test_idx_requires_paths(self):
        cfg = parse_config_dict({**MINIMAL, "data": {"kind": "idx"}})
        with pytest.raises(ConfigError, match="requires data.train_images"):
            load_dataset_pair(cfg.data, 3)


class TestShippedConfigs:
    def test_every_config_parses(self):
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
        assert {p.name for p in paths} >= {"mnist.yaml", "synth.yaml"}
        for path in paths:
            cfg = parse_config(path)  # validation only; no data is read
            assert cfg.network.layers, path
