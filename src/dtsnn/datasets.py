"""Dataset loading: IDX-format image files and deterministic synthetic sets.

IDX is the big-endian binary format of the classic handwritten-digit
benchmarks: magic 0x00000803 for image files (N x rows x cols of uint8) and
0x00000801 for label files.  Loaded pixel values are scaled to [0, 1] and
then standardized with the configured mean/std, which are recorded on the
Dataset so downstream consumers can undo or reproduce the normalization.

The synthetic generators ("blobs", "stripes") produce balanced, seeded image
classification sets in the same (N, 1, H, W) layout for desk-scale runs and
CI, with a per-sample difficulty spread so confidence-based early exit has
something to discriminate.
"""

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Images (N,C,H,W) float32, integer labels, and their normalization."""

    images: np.ndarray
    labels: np.ndarray
    split: str
    mean: float
    std: float

    def __len__(self):
        return len(self.images)

    def subset(self, n):
        """The first n samples."""
        if n >= len(self):
            return self
        return Dataset(self.images[:n], self.labels[:n], self.split, self.mean, self.std)


def _read_idx(path, expected_magic, expected_dims):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":  # gzip-compressed IDX, as distributed
        raw = gzip.decompress(raw)
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated IDX file (no magic)")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    header_len = 4 + 4 * expected_dims
    if len(raw) < header_len:
        raise DataFormatError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{expected_dims}I", raw[4:header_len])
    count = math.prod(dims)  # exact: numpy's product would wrap at 2**63
    if len(raw) < header_len + count:
        raise DataFormatError(
            f"{path}: truncated IDX payload ({len(raw) - header_len} bytes, "
            f"expected {count})"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_len)
    return data.reshape(dims)


def read_idx_images(path):
    """Raw uint8 image array (N, rows, cols) from an IDX image file."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3)


def read_idx_labels(path):
    """Raw uint8 label vector (N,) from an IDX label file."""
    return _read_idx(path, IDX_LABELS_MAGIC, 1)


def load_idx(images_path, labels_path, mean=0.0, std=1.0, split="train"):
    """Load an IDX image/label pair into a normalized Dataset."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) == 0:
        raise DataFormatError(f"{images_path}: IDX file holds no images")
    if len(images) != len(labels):
        raise DataFormatError(
            f"image count {len(images)} does not match label count {len(labels)} "
            f"({images_path} vs {labels_path})"
        )
    scaled = images.astype(np.float32) / 255.0
    normalized = (scaled - mean) / std
    return Dataset(
        images=normalized[:, None, :, :],
        labels=labels.astype(np.int64),
        split=split,
        mean=float(mean),
        std=float(std),
    )


def _balanced_labels(n, num_classes, rng):
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    return labels


def _blob_image(rng, size, center, spread, amplitude):
    yy, xx = np.mgrid[0:size, 0:size]
    cy, cx = center
    return amplitude * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread**2))


def synth_dataset(kind, n, num_classes, seed, image_size=28, noise=0.3,
                  split="train"):
    """Deterministic separable image classes for desk-scale experiments.

    "blobs": one bright Gaussian bump per class at a class-specific location.
    "stripes": oriented gratings, one orientation per class, with jittered
    phase/frequency.  Per-sample pixel noise is drawn from [0.3, 1.7] * noise
    so samples span a range of difficulty.  Labels are balanced within 1.
    """
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, K={num_classes}")
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, num_classes, rng)
    images = np.empty((n, 1, image_size, image_size), dtype=np.float32)
    if kind == "blobs":
        radius = image_size * 0.32
        centers = [
            (
                image_size / 2 + radius * np.sin(2 * np.pi * k / num_classes),
                image_size / 2 + radius * np.cos(2 * np.pi * k / num_classes),
            )
            for k in range(num_classes)
        ]
        for i, label in enumerate(labels):
            cy, cx = centers[label]
            jitter = rng.normal(0, image_size * 0.02, size=2)
            img = _blob_image(
                rng,
                image_size,
                (cy + jitter[0], cx + jitter[1]),
                spread=image_size * 0.11,
                amplitude=rng.uniform(0.8, 1.2),
            )
            img += rng.normal(0.0, noise * rng.uniform(0.3, 1.7), size=img.shape)
            images[i, 0] = img
    elif kind == "stripes":
        yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
        yy = (yy - image_size / 2) / image_size
        xx = (xx - image_size / 2) / image_size
        for i, label in enumerate(labels):
            angle = np.pi * label / num_classes + rng.normal(0, 0.035)
            freq = 3.0 * rng.uniform(0.92, 1.08)
            phase = rng.uniform(0, 2 * np.pi)
            img = np.sin(
                2 * np.pi * freq * (xx * np.cos(angle) + yy * np.sin(angle)) + phase
            ) * rng.uniform(0.8, 1.2)
            img += rng.normal(0.0, noise * rng.uniform(0.3, 1.7), size=img.shape)
            images[i, 0] = img
    else:
        raise ValueError(f"unknown synthetic dataset kind {kind!r}")
    mean = float(images.mean())
    std = float(images.std())
    images -= mean  # in place: the same float32 arithmetic, no copies of the images
    images /= std
    return Dataset(
        images=images,
        labels=labels.astype(np.int64),
        split=split,
        mean=mean,
        std=std,
    )
