"""Checkpoint format: JSON manifest plus one flat little-endian f64 blob.

The manifest lists every array as {name, shape, dtype, byte_offset} along
with the blob filename, total byte count, the blob's CRC-32 and a
free-form `meta` object (model architecture and hyperparameters live
there). `save` writes format_version 2 (f64, so a round trip is exact);
`load` also reads version 1 files, whose f32 values it widens to float64,
and files written before the CRC was recorded.

Every file is written through `write_atomic`, the blob before the
manifest, so a crash leaves each file either old or new, and a new blob
under an old manifest fails its CRC check.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from rdecomp import nn


class CheckpointError(ValueError):
    pass


def write_atomic(path, data):
    """Write data (bytes or str) to a temporary name, then os.replace it onto
    path, so that path holds the old contents or the new, never a part."""
    tmp = f"{path}.tmp"
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save(path, params, meta=None):
    """Write `params` (name -> array) to `path` (.json) and a sibling .bin."""
    blob_path = os.path.splitext(path)[0] + ".bin"
    entries = []
    chunks = []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(params[name], dtype="<f8")
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": "f64",
                "byte_offset": offset,
            }
        )
        raw = arr.tobytes(order="C")
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": 2,
        "blob": os.path.basename(blob_path),
        "total_bytes": offset,
        "blob_crc32": zlib.crc32(blob),
        "tensors": entries,
        "meta": meta or {},
    }
    write_atomic(blob_path, blob)
    write_atomic(path, json.dumps(manifest, indent=1) + "\n")


def load(path):
    """Read a checkpoint; returns (params dict of read-only float64 arrays, meta)."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    blob_path = os.path.join(os.path.dirname(path) or ".", manifest["blob"])
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    dtypes = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
    expected = 0
    for entry in manifest["tensors"]:
        if entry["dtype"] not in dtypes:
            raise CheckpointError(f"unsupported dtype {entry['dtype']!r}")
        expected += int(np.prod(entry["shape"])) * dtypes[entry["dtype"]].itemsize
    if expected != manifest["total_bytes"] or len(blob) != expected:
        raise CheckpointError(
            f"blob length mismatch: manifest {manifest['total_bytes']}, "
            f"tensors need {expected}, file has {len(blob)}"
        )
    crc = zlib.crc32(blob)
    if manifest.get("blob_crc32", crc) != crc:
        raise CheckpointError(f"{blob_path} does not match the CRC-32 in {path}")
    params = {}
    for entry in manifest["tensors"]:
        count = int(np.prod(entry["shape"]))
        start = entry["byte_offset"]
        arr = np.frombuffer(blob, dtype=dtypes[entry["dtype"]], count=count, offset=start)
        params[entry["name"]] = nn.read_only(arr.reshape(entry["shape"]))
    return params, manifest.get("meta", {})
