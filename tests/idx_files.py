"""IDX fixture writers: the inverse of `dtsnn.datasets.read_idx_images` and
`read_idx_labels`, for tests that build IDX files."""

import struct

import numpy as np

from dtsnn.datasets import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def write_idx_images(path, images):
    """Write a uint8 (N, rows, cols) array in IDX image format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    """Write a uint8 (N,) label vector in IDX label format."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())
