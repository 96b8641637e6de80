"""Checkpoint format: JSON manifest plus one flat little-endian f64 blob.

The manifest lists every tensor as {name, shape, dtype, byte_offset} along
with the blob filename, total byte count, and a free-form `meta` object
(model architecture and hyperparameters live there). `save` writes
format_version 2 (f64, so a round trip is exact); `load` also reads
version 1 files, whose f32 values it widens to float64.
"""

from __future__ import annotations

import json
import os

import numpy as np

from rdecomp.autodiff import Tensor


class CheckpointError(ValueError):
    pass


def save(path, params, meta=None):
    """Write `params` (name -> Tensor) to `path` (.json) and a sibling .bin."""
    blob_path = os.path.splitext(path)[0] + ".bin"
    entries = []
    chunks = []
    offset = 0
    for name in sorted(params):
        arr = params[name].data.astype("<f8")
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
    manifest = {
        "format_version": 2,
        "blob": os.path.basename(blob_path),
        "total_bytes": offset,
        "tensors": entries,
        "meta": meta or {},
    }
    with open(blob_path, "wb") as fh:
        fh.write(b"".join(chunks))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def load(path):
    """Read a checkpoint; returns (params dict of float64 Tensors, meta)."""
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
    params = {}
    for entry in manifest["tensors"]:
        count = int(np.prod(entry["shape"]))
        start = entry["byte_offset"]
        arr = np.frombuffer(blob, dtype=dtypes[entry["dtype"]], count=count, offset=start)
        params[entry["name"]] = Tensor(arr.reshape(entry["shape"]))
    return params, manifest.get("meta", {})
