"""Binary envelope: magic + JSON header + little-endian payload."""

import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisf.errors import FormatVersionError, PayloadError
from nisf.serial import array_entries, read_blob, write_blob, write_json_atomic

MAGIC = "NISF-TEST"


def _round_trip(arrays, header=None, version=1):
    buf = io.BytesIO()
    write_blob(buf, MAGIC, version, header or {}, arrays)
    buf.seek(0)
    return read_blob(buf, MAGIC, version)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.int64])
def test_round_trip_bit_exact_per_dtype(dtype):
    rng = np.random.default_rng(0)
    arr = (rng.random((3, 4, 2)) * 100).astype(dtype)
    _, _, out = _round_trip({"a": arr})
    assert out["a"].dtype == arr.dtype
    assert out["a"].tobytes() == arr.tobytes()


def test_round_trip_preserves_header_and_order():
    arrays = {"weights": np.ones((2, 2)), "bias": np.zeros(3), "ids": np.arange(4)}
    version, header, out = _round_trip(arrays, header={"note": "x", "n": 7})
    assert version == 1
    assert header["note"] == "x" and header["n"] == 7
    assert [e[0] for e in header["arrays"]] == ["weights", "bias", "ids"]
    assert list(out) == ["weights", "bias", "ids"]


def test_scalar_shape_round_trips():
    _, _, out = _round_trip({"s": np.array(3.5)})
    assert out["s"].shape == ()
    assert out["s"] == 3.5


def test_nan_and_inf_round_trip_bitwise():
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
    _, _, out = _round_trip({"a": arr})
    assert out["a"].tobytes() == arr.tobytes()


def test_wrong_magic_rejected():
    buf = io.BytesIO()
    write_blob(buf, "OTHER", 1, {}, {"a": np.zeros(2)})
    buf.seek(0)
    with pytest.raises(PayloadError, match="magic"):
        read_blob(buf, MAGIC, 1)


def test_newer_version_rejected_older_accepted():
    buf = io.BytesIO()
    write_blob(buf, MAGIC, 3, {}, {"a": np.zeros(2)})
    buf.seek(0)
    with pytest.raises(FormatVersionError):
        read_blob(buf, MAGIC, 2)
    buf.seek(0)
    version, _, _ = read_blob(buf, MAGIC, 3)
    assert version == 3


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    write_blob(buf, MAGIC, 1, {}, {"a": np.arange(10, dtype=np.float64)})
    clipped = io.BytesIO(buf.getvalue()[:-8])
    with pytest.raises(PayloadError, match="truncated"):
        read_blob(clipped, MAGIC, 1)


def test_trailing_bytes_rejected():
    buf = io.BytesIO()
    write_blob(buf, MAGIC, 1, {}, {"a": np.zeros(2)})
    padded = io.BytesIO(buf.getvalue() + b"x")
    with pytest.raises(PayloadError, match="trailing"):
        read_blob(padded, MAGIC, 1)


def test_unsupported_dtype_rejected_on_write():
    with pytest.raises(PayloadError, match="dtype"):
        array_entries({"a": np.zeros(2, dtype=np.complex128)})
    with pytest.raises(PayloadError, match="dtype"):
        write_blob(io.BytesIO(), MAGIC, 1, {}, {"a": np.zeros(2, dtype=np.int32)})


def test_garbage_header_rejected():
    buf = io.BytesIO(f"{MAGIC} 1\n".encode() + b"not json\n")
    with pytest.raises(PayloadError, match="header"):
        read_blob(buf, MAGIC, 1)


def test_header_without_arrays_table_rejected():
    buf = io.BytesIO(f"{MAGIC} 1\n".encode() + json.dumps({"k": 1}).encode() + b"\n")
    with pytest.raises(PayloadError, match="arrays"):
        read_blob(buf, MAGIC, 1)


def test_non_contiguous_array_round_trips():
    base = np.arange(24, dtype=np.float64).reshape(4, 6)
    view = base[::2, ::3]
    _, _, out = _round_trip({"v": view})
    assert np.array_equal(out["v"], view)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                min_size=0, max_size=50))
def test_float64_payloads_round_trip_bitwise(values):
    arr = np.array(values, dtype=np.float64)
    _, _, out = _round_trip({"a": arr})
    assert out["a"].tobytes() == arr.tobytes()
    assert out["a"].shape == arr.shape


def test_write_json_atomic_replaces_whole_file(tmp_path):
    path = str(tmp_path / "record.json")
    write_json_atomic(path, {"b": [1, 2], "a": 0.5})
    write_json_atomic(path, {"c": 1})
    with open(path, encoding="utf-8") as f:
        assert json.load(f) == {"c": 1}
    assert os.listdir(tmp_path) == ["record.json"]
