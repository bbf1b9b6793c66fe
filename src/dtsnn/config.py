"""Experiment configuration: a YAML file with model / train / exit /
hardware / data sections.

Every key is optional except the model layer list; omitted values fall back
to the shipped defaults (LIF tau 0.5 and threshold 1.0, the reference
hardware parameter table, a ten-point theta grid including 0).  One reader,
`_from_mapping`, turns every mapping into its dataclass, checkpoint specs
included: unknown sections or keys are rejected by name, and a value of the
wrong type names its `section.key`.  Each field declares its range with
`errors.bounded`, checked by its dataclass; `parse_config_dict` adds the
ranges that the model sets for train and data.  `serialize_config` inverts
`parse_config`: parse -> serialize -> parse is a fixed point.
"""

import dataclasses
import typing
from dataclasses import MISSING, dataclass

import numpy as np
import yaml

from .datasets import load_idx, synth_dataset
from .errors import ConfigError, bounded, check_bounds
from .hardware import ArchConfig
from .network import NetworkSpec
from .training import TrainConfig

DEFAULT_THETA_GRID = (0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.18, 0.25, 0.4, 0.6)


@dataclass(frozen=True)
class ExitSettings:
    """Default threshold for single evaluations plus the sweep grid."""

    theta: float = bounded(0.1, ge=0, le=1)
    theta_grid: tuple[float, ...] = bounded(DEFAULT_THETA_GRID, ge=0, le=1)

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", tuple(self.theta_grid))
        check_bounds(self, ConfigError)
        if not self.theta_grid:
            raise ConfigError("theta_grid must contain at least one threshold")


@dataclass(frozen=True)
class DataConfig:
    """Where the train/test data comes from: IDX files or a synthetic set."""

    kind: str = bounded("synth", choices=("idx", "synth"))
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    mean: float = bounded(0.0)
    std: float = bounded(1.0, gt=0)
    limit_train: int = bounded(0, ge=0)  # 0 means use everything
    limit_test: int = bounded(0, ge=0)
    synth_kind: str = bounded("stripes", choices=("blobs", "stripes"))
    n_train: int = bounded(8000, ge=1)
    n_test: int = bounded(2000, ge=1)
    image_size: int = bounded(28, ge=1)
    noise: float = bounded(0.45, ge=0)
    seed: int = bounded(1234, ge=0)

    def __post_init__(self):
        check_bounds(self, ConfigError)


@dataclass
class AppConfig:
    """Everything one run needs, parsed and validated."""

    network: NetworkSpec
    train: TrainConfig
    exit: ExitSettings
    arch: ArchConfig
    data: DataConfig


def _read(want, value, name, key):
    """``value`` checked against the annotated type ``want`` of field
    ``name.key``: a float field takes int or float, a tuple field a list
    (``tuple[X, ...]`` checks each item as X), a dataclass field a mapping,
    and only a bool field takes a bool."""
    if dataclasses.is_dataclass(want):
        return _from_mapping(want, value, f"{name}.{key}")
    item = typing.get_args(want)[0] if typing.get_origin(want) is tuple else None
    want = typing.get_origin(want) or want
    accepted = {float: (int, float), tuple: (list, tuple)}.get(want, want)
    if not isinstance(value, accepted) or (isinstance(value, bool) and want is not bool):
        raise ConfigError(
            f"section '{name}': {name}.{key} must be "
            f"{'list' if want is tuple else want.__name__}, got {value!r}"
        )
    if item is not None:
        return tuple(_read(item, v, name, f"{key}[{i}]") for i, v in enumerate(value))
    return value


def _from_mapping(cls, section, name, defaults=()):
    """The dataclass ``cls`` that config mapping ``section`` describes, with
    ``defaults`` for keys it leaves out.  Unknown keys, values of the wrong
    type, missing required keys and values ``cls`` rejects raise ConfigError
    naming the section."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - fields.keys(), key=str)  # YAML keys may be numbers
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section '{name}'")
    values = {key: _read(fields[key].type, value, name, key)
              for key, value in {**dict(defaults), **section}.items()}
    for key, f in fields.items():
        if key not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"section '{name}' must define '{key}'")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"section '{name}': {exc}") from exc


def spec_from_dict(d):
    """The NetworkSpec of a model mapping: a config's model section or a
    checkpoint's spec.  Input shape, classes and T default to (1, 28, 28),
    10 and 4."""
    return _from_mapping(NetworkSpec, d, "model",
                         {"input_shape": (1, 28, 28), "num_classes": 10, "t_max": 4})


def spec_to_dict(spec):
    """Plain-data form of a NetworkSpec, read back by spec_from_dict."""
    d = dataclasses.asdict(spec)
    return {"input_shape": list(spec.input_shape), "num_classes": spec.num_classes,
            "t_max": spec.t_max, "lif": d["lif"], "layers": list(d["layers"])}


def parse_config_dict(raw):
    """Validate a configuration mapping and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {"model", "train", "exit", "hardware", "data"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown section '{sorted(unknown, key=str)[0]}'")
    if "model" not in raw:
        raise ConfigError("configuration must contain a 'model' section")
    network = spec_from_dict(raw["model"])
    train = _from_mapping(TrainConfig, raw.get("train"), "train", {"epochs": 10})
    exit_settings = _from_mapping(ExitSettings, raw.get("exit"), "exit")
    arch = _from_mapping(ArchConfig, raw.get("hardware"), "hardware")
    data = _from_mapping(DataConfig, raw.get("data"), "data")
    # Ranges set by the model, checked before a run reads data or writes output.
    if data.kind == "synth" and min(data.n_train, data.n_test) < network.num_classes:
        raise ConfigError(f"section 'data': n_train and n_test must be >= model.num_classes "
                          f"({network.num_classes}), got {data.n_train} and {data.n_test}")
    if train.t_train > network.t_max:
        raise ConfigError(f"section 'train': t_train must satisfy t_train <= model.t_max "
                          f"({network.t_max}), got {train.t_train}")
    return AppConfig(network=network, train=train, exit=exit_settings,
                     arch=arch, data=data)


def parse_config(path):
    """Parse and validate a YAML configuration file."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    return parse_config_dict(raw or {})


def config_to_dict(cfg):
    """Plain-dict form of an AppConfig (inverse of parse_config_dict)."""
    return {
        "model": spec_to_dict(cfg.network),
        "train": dataclasses.asdict(cfg.train),
        "exit": {"theta": cfg.exit.theta, "theta_grid": list(cfg.exit.theta_grid)},
        "hardware": dataclasses.asdict(cfg.arch),
        "data": dataclasses.asdict(cfg.data),
    }


def serialize_config(cfg):
    """YAML text whose parse equals cfg (round-trip fixed point)."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


def load_dataset_pair(data_cfg, num_classes):
    """Materialize (train, test) Datasets described by a DataConfig."""
    if data_cfg.kind == "idx":
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            path = getattr(data_cfg, name)
            if not path:
                raise ConfigError(f"data.kind 'idx' requires data.{name}")
        train = load_idx(
            data_cfg.train_images, data_cfg.train_labels,
            mean=data_cfg.mean, std=data_cfg.std, split="train",
        )
        test = load_idx(
            data_cfg.test_images, data_cfg.test_labels,
            mean=data_cfg.mean, std=data_cfg.std, split="test",
        )
        if int(train.labels.max()) >= num_classes or int(test.labels.max()) >= num_classes:
            raise ConfigError(
                f"dataset labels exceed model.num_classes={num_classes}"
            )
    else:
        train = synth_dataset(
            data_cfg.synth_kind, data_cfg.n_train, num_classes,
            seed=data_cfg.seed, image_size=data_cfg.image_size,
            noise=data_cfg.noise, split="train",
        )
        test = synth_dataset(
            data_cfg.synth_kind, data_cfg.n_test, num_classes,
            seed=data_cfg.seed + 1, image_size=data_cfg.image_size,
            noise=data_cfg.noise, split="test",
        )
    if data_cfg.limit_train:
        train = train.subset(data_cfg.limit_train)
    if data_cfg.limit_test:
        test = test.subset(data_cfg.limit_test)
    return train, test
