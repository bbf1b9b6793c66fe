"""Experiment configuration: a YAML file with model / train / exit /
hardware / data sections.

Every key is optional except the model layer list; omitted values fall back
to the shipped defaults (LIF tau 0.5 and threshold 1.0, the reference
hardware parameter table, a ten-point theta grid including 0).  Unknown
sections or keys are rejected by name, and out-of-range values raise errors
quoting the violated invariant.  `serialize_config` inverts `parse_config`,
and the round trip parse -> serialize -> parse is a fixed point.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import yaml

from .datasets import load_idx, synth_dataset
from .errors import ConfigError
from .hardware import ArchConfig
from .network import LayerSpec, LifConfig, NetworkSpec
from .training import TrainConfig

DEFAULT_THETA_GRID = (0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.18, 0.25, 0.4, 0.6)


@dataclass(frozen=True)
class ExitSettings:
    """Default threshold for single evaluations plus the sweep grid."""

    theta: float = 0.1
    theta_grid: tuple = DEFAULT_THETA_GRID

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", tuple(self.theta_grid))
        for theta in (self.theta, *self.theta_grid):
            if not 0.0 <= theta <= 1.0:
                raise ConfigError(f"theta must satisfy 0 <= theta <= 1, got {theta}")
        if not self.theta_grid:
            raise ConfigError("theta_grid must contain at least one threshold")


@dataclass(frozen=True)
class DataConfig:
    """Where the train/test data comes from: IDX files or a synthetic set."""

    kind: str = "synth"
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    mean: float = 0.0
    std: float = 1.0
    limit_train: int = 0  # 0 means use everything
    limit_test: int = 0
    synth_kind: str = "stripes"
    n_train: int = 8000
    n_test: int = 2000
    image_size: int = 28
    noise: float = 0.45
    seed: int = 1234

    def __post_init__(self):
        if self.kind not in ("idx", "synth"):
            raise ConfigError(f"data.kind must be 'idx' or 'synth', got {self.kind!r}")
        if self.limit_train < 0 or self.limit_test < 0:
            raise ConfigError("limit_train and limit_test must be >= 0")
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must satisfy {name} >= 1, got {getattr(self, name)}")


@dataclass
class AppConfig:
    """Everything one run needs, parsed and validated."""

    network: NetworkSpec
    train: TrainConfig
    exit: ExitSettings
    arch: ArchConfig
    data: DataConfig


def _from_mapping(cls, section, name):
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key '{sorted(unknown)[0]}' in section '{name}'"
        )
    try:
        return cls(**section)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc


def _network_from_section(section):
    if not isinstance(section, dict):
        raise ConfigError("section 'model' must be a mapping")
    allowed = {"input_shape", "num_classes", "t_max", "lif", "layers"}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section 'model'")
    if "layers" not in section:
        raise ConfigError("section 'model' must define 'layers'")
    lif_section = section.get("lif") or {}
    lif_allowed = {"tau", "v_th"}
    if set(lif_section) - lif_allowed:
        raise ConfigError(
            f"unknown key '{sorted(set(lif_section) - lif_allowed)[0]}' in 'model.lif'"
        )
    layer_types = {f.name: f.type for f in dataclasses.fields(LayerSpec)}
    layers = []
    for i, raw in enumerate(section["layers"]):
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(f"model.layers[{i}] must be a mapping with a 'kind'")
        unknown = set(raw) - layer_types.keys()
        if unknown:
            raise ConfigError(
                f"unknown key '{sorted(unknown)[0]}' in model.layers[{i}]"
            )
        for key, value in raw.items():
            want = layer_types[key]
            if not isinstance(value, (int, float) if want is float else want):
                raise ConfigError(
                    f"model.layers[{i}].{key} must be {want.__name__}, got {value!r}"
                )
        layers.append(LayerSpec(**raw))
    try:
        return NetworkSpec(
            input_shape=tuple(section.get("input_shape", (1, 28, 28))),
            num_classes=section.get("num_classes", 10),
            t_max=section.get("t_max", 4),
            lif=LifConfig(**lif_section),
            layers=tuple(layers),
        )
    except (ConfigError, ValueError, TypeError) as exc:  # TypeError: a field of the wrong type
        raise ConfigError(f"section 'model': {exc}") from exc


def parse_config_dict(raw):
    """Validate a configuration mapping and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {"model", "train", "exit", "hardware", "data"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown section '{sorted(unknown)[0]}'")
    if "model" not in raw:
        raise ConfigError("configuration must contain a 'model' section")
    network = _network_from_section(raw["model"])
    train_section = dict(raw.get("train") or {})
    train_section.setdefault("epochs", 10)
    train = _from_mapping(TrainConfig, train_section, "train")
    exit_settings = _from_mapping(ExitSettings, raw.get("exit"), "exit")
    arch = _from_mapping(ArchConfig, raw.get("hardware"), "hardware")
    data = _from_mapping(DataConfig, raw.get("data"), "data")
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
    from .network import spec_to_dict

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
