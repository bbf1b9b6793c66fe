"""Single-file model checkpoints with integrity checking.

Container layout (little-endian):
    8 bytes   magic "DTSNNCK\\0"
    u32       format version
    u64       length of the JSON header
    ...       JSON header: network spec, training-config echo, RNG seed,
              and a manifest of (layer, name, dtype, shape) for every array
    ...       raw array payloads, in manifest order
    32 bytes  SHA-256 over everything above

Writes are atomic (temp file in the target directory, then rename), so an
interrupted save never leaves a partial checkpoint behind.
"""

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import spec_from_dict, spec_to_dict
from .errors import ChecksumError, ConfigError, DataFormatError, VersionError
from .kernels import BN_EPS, BN_MOMENTUM
from .network import NetworkSpec, SnnInstance

MAGIC = b"DTSNNCK\x00"
VERSION = 1
# Manifest order of a layer's parameters.  A norm layer's gamma entry also
# records the momentum and eps it was trained with.
_PARAM_ORDER = ("b", "w", "gamma", "beta", "running_mean", "running_var")
_NORM_CONSTANTS = {"momentum": BN_MOMENTUM, "eps": BN_EPS}


@dataclass
class Checkpoint:
    """Everything needed to rebuild a trained instance bit-exactly."""

    spec: NetworkSpec
    params: list
    train_config: dict
    seed: int
    version: int = VERSION


def _collect_arrays(params):
    """Flatten instance parameters into (manifest, ordered arrays)."""
    manifest, arrays = [], []
    for i, p in enumerate(params):
        for name in sorted(p or (), key=_PARAM_ORDER.index):
            arr = p[name]
            manifest.append({
                "layer": i,
                "name": name,
                "dtype": arr.dtype.str,  # byte order explicit, e.g. '<f4'
                "shape": list(arr.shape),
                **(_NORM_CONSTANTS if name == "gamma" else {}),
            })
            arrays.append(np.ascontiguousarray(arr))
    return manifest, arrays


def save_checkpoint(path, ckpt):
    """Serialize and atomically write a checkpoint."""
    manifest, arrays = _collect_arrays(ckpt.params)
    header = json.dumps(
        {
            "spec": spec_to_dict(ckpt.spec),
            "train_config": ckpt.train_config,
            "seed": ckpt.seed,
            "num_layers": len(ckpt.params),
            "arrays": manifest,
        }
    ).encode()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", ckpt.version)
    blob += struct.pack("<Q", len(header))
    blob += header
    for arr in arrays:
        blob += arr.tobytes()
    digest = hashlib.sha256(bytes(blob)).digest()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(blob))
            fh.write(digest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(path, mapping, keys, where):
    """Reject a header part that is not a mapping or lacks one of ``keys``."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{path}: {where} is not a mapping")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise DataFormatError(f"{path}: {where} lacks key '{missing[0]}'")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_manifest(path, header):
    """Counts, indices and shapes must be integers (13.0 would pass the count
    and key checks, then fail as an index), and stored norm constants must be
    the ones this build normalizes with."""
    if not _is_int(header["num_layers"]):
        raise DataFormatError(f"{path}: num_layers {header['num_layers']!r} is not an integer")
    if not isinstance(header["arrays"], list):
        raise DataFormatError(f"{path}: arrays is not a list")
    for i, entry in enumerate(header["arrays"]):
        where = f"{path}: manifest entry {i}"
        _require(path, entry, ("layer", "name", "dtype", "shape"), f"manifest entry {i}")
        if not _is_int(entry["layer"]):
            raise DataFormatError(f"{where} has layer {entry['layer']!r}, not an integer")
        if not isinstance(entry["name"], str):
            raise DataFormatError(f"{where} has name {entry['name']!r}, not a string")
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(_is_int(d) and d >= 0 for d in shape)):
            raise DataFormatError(f"{where} has shape {shape!r}, not a list of sizes")
        for key, value in _NORM_CONSTANTS.items():
            if entry.get(key, value) != value:
                raise DataFormatError(
                    f"{where} has {key} {entry[key]!r}; this build normalizes with {value}"
                )


def _check_against_spec(path, header, spec):
    """Every stored array must have the shape the spec's layer plan gives it, and
    every weighted or norm layer must have all of its parameters."""
    if header["num_layers"] != len(spec.layers):
        raise DataFormatError(
            f"{path}: {header['num_layers']} layers stored, spec has {len(spec.layers)}"
        )
    expected = {(i, name): list(shape) for i, plan in enumerate(spec.layer_plan)
                for name, shape in (plan.param_shapes or {}).items()}
    stored = {(e["layer"], e["name"]): e["shape"] for e in header["arrays"]}
    for (i, name), shape in stored.items():
        if (i, name) not in expected:
            raise DataFormatError(f"{path}: layer {i} has unexpected parameter '{name}'")
        if shape != expected[i, name]:
            raise DataFormatError(
                f"{path}: layer {i} parameter '{name}' has shape {tuple(shape)}, "
                f"spec needs {tuple(expected[i, name])}"
            )
    missing = sorted(expected.keys() - stored.keys())
    if missing:
        i, name = missing[0]
        raise DataFormatError(f"{path}: layer {i} is missing parameter '{name}'")


def load_checkpoint(path):
    """Read, verify and reconstruct a Checkpoint."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 12 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise DataFormatError(f"{path}: not a dtsnn checkpoint (bad magic)")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ChecksumError(f"{path}: checksum mismatch, file is corrupted")
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if version != VERSION:
        raise VersionError(
            f"{path}: checkpoint format version {version}, this build reads {VERSION}"
        )
    (header_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    try:
        header = json.loads(body[offset : offset + header_len].decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataFormatError(f"{path}: header is not JSON ({exc})") from exc
    offset += header_len
    _require(path, header, ("spec", "train_config", "seed", "num_layers", "arrays"), "header")
    _check_manifest(path, header)
    _require(path, header["spec"], ("input_shape", "num_classes", "t_max", "lif", "layers"),
             "spec")
    try:
        spec = spec_from_dict(header["spec"])
    except ConfigError as exc:  # an unknown, mistyped or invalid spec field
        raise DataFormatError(f"{path}: invalid spec ({exc})") from exc
    _check_against_spec(path, header, spec)
    layers = {}
    for entry in header["arrays"]:
        i, name = entry["layer"], entry["name"]
        try:
            dtype = np.dtype(entry["dtype"])
        except TypeError:
            dtype = None
        if dtype is None or dtype.kind not in "fiu":
            raise DataFormatError(
                f"{path}: layer {i} parameter '{name}' has non-numeric dtype {entry['dtype']!r}"
            )
        count = math.prod(entry["shape"])
        if offset + count * dtype.itemsize > len(body):
            raise DataFormatError(f"{path}: payload ends inside layer {i} parameter '{name}'")
        arr = np.frombuffer(
            body, dtype=dtype, count=count, offset=offset
        ).reshape(entry["shape"]).copy()
        offset += count * dtype.itemsize
        layers.setdefault(i, {})[name] = arr
    if offset != len(body):
        raise DataFormatError(f"{path}: {len(body) - offset} bytes follow the last array")
    return Checkpoint(
        spec=spec,
        params=[layers.get(i) for i in range(header["num_layers"])],
        train_config=header["train_config"],
        seed=header["seed"],
        version=version,
    )


def instance_from_checkpoint(ckpt):
    """Bind checkpointed weights to a fresh inference instance."""
    return SnnInstance(spec=ckpt.spec, params=ckpt.params)
