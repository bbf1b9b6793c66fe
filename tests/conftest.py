import hashlib
import json
import os
import struct
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

BENCH_CKPT = Path(__file__).resolve().parents[1] / "bench" / "model.ckpt"


@pytest.fixture
def reseal(tmp_path):
    """reseal(source=bench/model.ckpt, edit_header=None, edit_payload=None,
    raw_header=None) -> path of a copy of checkpoint ``source`` whose JSON
    header or payload was edited, or whose header bytes were replaced by
    ``raw_header``, and whose digest was recomputed over the result, so it
    passes the checksum."""

    def make(source=BENCH_CKPT, edit_header=None, edit_payload=None, raw_header=None):
        with open(source, "rb") as fh:
            body = fh.read()[:-32]
        (header_len,) = struct.unpack_from("<Q", body, 12)
        header = json.loads(body[20 : 20 + header_len])
        payload = body[20 + header_len :]
        if edit_header:
            edit_header(header)
        if edit_payload:
            payload = edit_payload(payload)
        raw = json.dumps(header).encode() if raw_header is None else raw_header
        body = body[:12] + struct.pack("<Q", len(raw)) + raw + payload
        path = tmp_path / "resealed.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        return path

    return make


INPUT_FORMS = ("list", "object", "ragged", "complex")


def input_form(x, form):
    """The float array x as a nested list, an object array, a ragged nested
    list or a complex array: an entry point takes the list as
    ``np.asarray(x.tolist())`` and rejects the others with DataFormatError."""
    if form == "list":
        return x.tolist()
    if form == "object":
        return x.astype(object)
    if form == "complex":
        return x.astype(complex)
    ragged = x.tolist()
    ragged[-1][0][-1] = ragged[-1][0][-1][:-1]  # one row of the last sample is short
    return ragged
