import json

import numpy as np
import pytest
from sgd import SgdOptimizer

from rdecomp import checkpoint, decomposer, nn
from rdecomp.policies import GaussianPolicy


def make_params(rng):
    return {
        "layer/w": rng.normal(size=(6, 4)),
        "layer/b": rng.normal(size=4),
        "scalar": np.array([[3.14159265358979]]),
    }


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = make_params(rng)
    path = str(tmp_path / "model.json")
    checkpoint.save(path, params, meta={"architecture": "attention", "note": 7})
    loaded, meta = checkpoint.load(path)
    assert meta == {"architecture": "attention", "note": 7}
    assert set(loaded) == set(params)
    for k in params:
        assert loaded[k].dtype == np.float64
        np.testing.assert_array_equal(loaded[k], params[k])
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["format_version"] == 2
    assert {e["dtype"] for e in doc["tensors"]} == {"f64"}


def write_version_1(tmp_path):
    """A checkpoint hand-built in the version-1 layout: f32 values, 4 bytes
    each, no CRC; returns its path and its arrays."""
    w = np.arange(6, dtype="<f4").reshape(2, 3) / 7
    b = np.array([0.1, -2.5], dtype="<f4")
    (tmp_path / "old.bin").write_bytes(b.tobytes() + w.tobytes())
    doc = {
        "format_version": 1,
        "blob": "old.bin",
        "total_bytes": 32,
        "tensors": [
            {"name": "b", "shape": [2], "dtype": "f32", "byte_offset": 0},
            {"name": "w", "shape": [2, 3], "dtype": "f32", "byte_offset": 8},
        ],
        "meta": {"architecture": "attention"},
    }
    (tmp_path / "old.json").write_text(json.dumps(doc))
    return str(tmp_path / "old.json"), w, b


def test_format_version_1_f32_file_still_loads(tmp_path):
    path, w, b = write_version_1(tmp_path)
    loaded, meta = checkpoint.load(path)
    assert meta == {"architecture": "attention"}
    assert loaded["w"].dtype == np.float64
    np.testing.assert_array_equal(loaded["w"], w.astype(np.float64))
    np.testing.assert_array_equal(loaded["b"], b.astype(np.float64))


def _read_only_f64(params):
    return all(type(p) is np.ndarray and p.dtype == np.float64 and not p.flags.writeable
               for p in params.values())


def test_parameters_are_read_only_float64_arrays(tmp_path):
    rng = np.random.default_rng(5)
    models = [decomposer.make_predictor(arch, 7, rng) for arch in ("ff", "recurrent", "attention")]
    policy = GaussianPolicy(rng, 3, 2, hidden=(8,))
    for params in [m.params for m in models] + [policy.params]:
        assert _read_only_f64(params)
        grad = np.ones(nn.flatten_params(params).size)
        assert _read_only_f64(nn.AdamOptimizer(1e-3).step(params, grad))
        assert _read_only_f64(SgdOptimizer(1e-3).step(params, grad))
    path = str(tmp_path / "model.json")
    checkpoint.save(path, policy.params)
    assert _read_only_f64(checkpoint.load(path)[0])
    assert _read_only_f64(checkpoint.load(write_version_1(tmp_path)[0])[0])


def test_blob_of_another_save_rejected(tmp_path):
    # a crash between the blob and the manifest of one save leaves a new
    # blob under the old manifest: same length, other values
    path = str(tmp_path / "model.json")
    checkpoint.save(path, make_params(np.random.default_rng(6)))
    old_manifest = (tmp_path / "model.json").read_bytes()
    checkpoint.save(path, make_params(np.random.default_rng(7)))
    (tmp_path / "model.json").write_bytes(old_manifest)
    with pytest.raises(checkpoint.CheckpointError, match="CRC"):
        checkpoint.load(path)


def test_truncated_blob_rejected(tmp_path):
    params = make_params(np.random.default_rng(1))
    path = str(tmp_path / "model.json")
    checkpoint.save(path, params)
    blob = tmp_path / "model.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(checkpoint.CheckpointError, match="length mismatch"):
        checkpoint.load(path)


def test_manifest_total_bytes_validated(tmp_path):
    params = make_params(np.random.default_rng(2))
    path = str(tmp_path / "model.json")
    checkpoint.save(path, params)
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["total_bytes"] += 8
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


def test_unknown_dtype_rejected(tmp_path):
    params = make_params(np.random.default_rng(3))
    path = str(tmp_path / "model.json")
    checkpoint.save(path, params)
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["tensors"][0]["dtype"] = "f16"
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(checkpoint.CheckpointError, match="dtype"):
        checkpoint.load(path)


def test_byte_offsets_are_recorded_in_name_order(tmp_path):
    params = make_params(np.random.default_rng(4))
    path = str(tmp_path / "model.json")
    checkpoint.save(path, params)
    doc = json.loads((tmp_path / "model.json").read_text())
    names = [e["name"] for e in doc["tensors"]]
    assert names == sorted(names)
    offsets = [e["byte_offset"] for e in doc["tensors"]]
    assert offsets == sorted(offsets)
    assert doc["total_bytes"] == sum(
        int(np.prod(e["shape"])) * 8 for e in doc["tensors"]
    )
