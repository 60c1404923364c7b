"""Binary envelope: magic + JSON header + little-endian payload."""

import io
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisf.errors import FormatVersionError, PayloadError
from nisf.serial import (array_entries, config_from_dict, digest, read_blob, require,
                         write_blob, write_json_atomic)

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


@pytest.mark.parametrize("entry", [
    "x", ["x", [2]], [1, [2], "float64"], ["x", 2, "float64"], ["x", [2, "a"], "float64"],
    ["x", [-1], "float64"], ["x", [2], ["float64"]], ["x", [True], "float64"]])
def test_malformed_arrays_entry_rejected(entry):
    # a header table entry that is not [name, shape of ints >= 0, dtype name]
    buf = io.BytesIO(f"{MAGIC} 1\n".encode() + json.dumps({"arrays": [entry]}).encode()
                     + b"\n" + bytes(16))
    with pytest.raises(PayloadError, match="entry"):
        read_blob(buf, MAGIC, 1)


def test_require_names_the_missing_key():
    require({"a": 1, "b": 2}, ("a", "b"), "test header")
    with pytest.raises(PayloadError, match="test header missing 'c'"):
        require({"a": 1}, ("a", "c", "d"), "test header")


@dataclass(frozen=True)
class _Stored:
    size: int
    scale: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")


def test_config_from_dict_names_wrong_keys_and_values():
    assert config_from_dict(_Stored, {"size": 2}, "stored") == _Stored(2)
    assert config_from_dict(_Stored, {"size": 2, "scale": [3]}, "stored",
                            scale=lambda v: v[0]) == _Stored(2, 3)
    with pytest.raises(PayloadError, match=r"^stored: unknown keys \['width'\], "
                                           r"missing keys \['size'\]$"):
        config_from_dict(_Stored, {"width": 2}, "stored")
    with pytest.raises(PayloadError, match=r"^stored: unknown keys \['w', 'x'\], "
                                           r"missing keys \[\]$"):
        config_from_dict(_Stored, {"size": 2, "x": 0, "w": 1}, "stored")
    with pytest.raises(PayloadError, match="must be a JSON object, got list"):
        config_from_dict(_Stored, [2], "stored")
    with pytest.raises(PayloadError, match="^stored: '<' not supported"):
        config_from_dict(_Stored, {"size": "2"}, "stored")


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


def test_write_json_atomic_writes_indented_sorted_lines(tmp_path):
    path = str(tmp_path / "record.json")
    obj = {"b": [1, 2.0], "a": {"z": None, "y": "x"}}
    write_json_atomic(path, obj)
    with open(path, encoding="utf-8") as f:
        assert f.read() == json.dumps(obj, indent=1, sort_keys=True) + "\n"


def test_digest_is_sha256_of_its_parts_in_order():
    abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert digest("abc") == digest("a", "", "bc") == digest(np.frombuffer(b"abc", np.uint8)) == abc
    assert digest("bc", "a") != abc
    assert digest(np.array([1.0, 2.0])) == digest(np.array([1.0]), 2.0)


def test_digest_reads_values_in_little_endian_at_their_dtype():
    values = np.arange(12.0).reshape(3, 4) / 7.0
    big = values.astype(">f8")
    assert digest(big) == digest(values) == digest(np.asfortranarray(values))
    assert digest(values[:, ::2]) == digest(values[:, ::2].copy())
    assert digest(values.astype(np.float32)) != digest(values)
