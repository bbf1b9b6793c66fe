"""Declared field bounds: each bounded field of the config dataclasses rejects
a value just past each of its bounds, and NaN and infinity when it holds
floats, both when the dataclass is built directly (with its own error class)
and when the value comes from a configuration mapping (ConfigError naming
the section and the key)."""

import copy
import dataclasses
import math
import re
import typing

import pytest

from dtsnn.config import DataConfig, ExitSettings, parse_config_dict
from dtsnn.errors import ConfigError, ShapeError
from dtsnn.exit_policy import ExitPolicy
from dtsnn.hardware import ArchConfig, calibrate_energy_coefficients, load_reference_trace
from dtsnn.kernels import ConvParams
from dtsnn.network import LayerSpec, LifConfig, NetworkSpec
from dtsnn.training import TrainConfig

# class -> (its error class, valid values for the fields without a default,
#           path of its mapping in a configuration or None)
CLASSES = {
    ArchConfig: (ConfigError, {}, ("hardware",)),
    TrainConfig: (ValueError, {"epochs": 1}, ("train",)),
    DataConfig: (ConfigError, {}, ("data",)),
    ExitSettings: (ConfigError, {}, ("exit",)),
    ExitPolicy: (ValueError, {"theta": 0.1, "t_max": 4}, None),
    LifConfig: (ValueError, {}, ("model", "lif")),
    ConvParams: (ShapeError, {"in_channels": 1, "out_channels": 1,
                              "kernel_h": 1, "kernel_w": 1}, None),
    LayerSpec: (ValueError, {"kind": "lif"}, ("model", "layers", 0)),
    NetworkSpec: (ValueError, {"input_shape": (1, 4, 4), "num_classes": 3, "t_max": 4,
                               "layers": (LayerSpec("lif"), LayerSpec("classifier"))},
                  ("model",)),
}

RAW = {
    "model": {"input_shape": [1, 4, 4], "num_classes": 3, "t_max": 4,
              "layers": [{"kind": "lif"}, {"kind": "classifier"}]},
    "train": {"epochs": 1},
}


def _bad_values(f):
    """Values just past each declared bound of field ``f``, plus NaN and
    +-inf for a float field; a tuple field gets each as a one-item tuple."""
    bounds = f.metadata["bounds"]
    if "choices" in bounds:
        return ["nope"]
    floats = float in (f.type, *typing.get_args(f.type))
    past = {"gt": lambda b: b, "lt": lambda b: b,
            "ge": lambda b: math.nextafter(b, -math.inf) if floats else b - 1,
            "le": lambda b: math.nextafter(b, math.inf) if floats else b + 1}
    values = [past[kind](b) for kind, b in bounds.items()]
    if floats:
        values += [math.nan, math.inf, -math.inf]
    if typing.get_origin(f.type) is tuple:
        values = [(v,) for v in values]
    return values


CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in CLASSES
    for f in dataclasses.fields(cls) if "bounds" in f.metadata
    for value in _bad_values(f)
]


def test_every_class_declares_bounds():
    assert {case.values[0] for case in CASES} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES)
def test_valid_values_construct(cls):
    cls(**CLASSES[cls][1])


@pytest.mark.parametrize("cls, name, value", CASES)
def test_constructor_rejects_value_past_bound(cls, name, value):
    error, valid, _ = CLASSES[cls]
    with pytest.raises(error, match=f"^{name} must") as info:
        cls(**{**valid, name: value})
    assert info.type is error


@pytest.mark.parametrize("cls, name, value", [c for c in CASES if CLASSES[c.values[0]][2]])
def test_config_rejects_value_past_bound(cls, name, value):
    path = CLASSES[cls][2]
    raw = copy.deepcopy(RAW)
    part = raw
    for step in path:
        part = part[step] if isinstance(step, int) else part.setdefault(step, {})
    part[name] = list(value) if isinstance(value, tuple) else value
    section = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)[1:]
    with pytest.raises(ConfigError, match=f"^section '{re.escape(section)}': {name} must"):
        parse_config_dict(raw)


@pytest.mark.parametrize("section, key, value, message", [
    ("data", "n_test", 2, "n_train and n_test must be >= model.num_classes (3), got 8000 and 2"),
    ("data", "n_train", 1, "n_train and n_test must be >= model.num_classes (3), got 1 and 2000"),
    ("train", "t_train", 5, "t_train must satisfy t_train <= model.t_max (4)"),
])
def test_config_checks_ranges_set_by_the_model(section, key, value, message):
    raw = copy.deepcopy(RAW)
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"section '{section}': {message}")):
        parse_config_dict(raw)


def test_idx_data_ignores_synthetic_sizes():
    cfg = parse_config_dict({**RAW, "data": {"kind": "idx", "n_test": 2}})
    assert cfg.data.n_test == 2


def test_default_and_calibrated_coefficients_satisfy_bounds():
    ArchConfig()  # construction checks the bounds
    ArchConfig(**calibrate_energy_coefficients(load_reference_trace(), ArchConfig()))
