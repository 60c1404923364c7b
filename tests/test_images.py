"""PGM writers: header bytes, palette mapping, and round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisf.errors import ContractError
from nisf.images import write_label_pgm, write_pgm8, write_pgm16, write_raw_f64
from nisf.serial import read_blob
from oracles import read_pgm


def test_pgm8_exact_bytes(tmp_path):
    path = str(tmp_path / "tiny.pgm")
    write_pgm8(path, np.array([[0.0, 1.0], [0.5, 0.25]]))
    raw = open(path, "rb").read()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])


def test_pgm16_exact_bytes(tmp_path):
    path = str(tmp_path / "deep.pgm")
    write_pgm16(path, np.array([[0.0, 1.0, 0.5]]))
    raw = open(path, "rb").read()
    assert raw == b"P5\n3 1\n65535\n" + bytes([0, 0, 255, 255, 128, 0])


def test_label_pgm_exact_bytes(tmp_path):
    path = str(tmp_path / "lab.pgm")
    write_label_pgm(path, np.array([[0, 1, 2], [3, 2, 1]], dtype=np.uint8), 4)
    raw = open(path, "rb").read()
    assert raw == b"P5\n3 2\n255\n" + bytes([0, 85, 170, 255, 170, 85])


def test_pgm8_round_trip_quantizes_to_half_ulp(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.uniform(size=(7, 11))
    path = str(tmp_path / "r.pgm")
    write_pgm8(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert back.shape == (7, 11)
    assert np.max(np.abs(back / 255.0 - img)) <= 0.5 / 255.0 + 1e-12


def test_pgm16_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.uniform(size=(3, 4))
    path = str(tmp_path / "deep.pgm")
    write_pgm16(path, img)
    back = read_pgm(path)
    assert back.dtype == np.dtype(">u2")
    assert np.array_equal(back, np.rint(img * 65535.0).astype(">u2"))


def test_label_palette_four_classes(tmp_path):
    path = str(tmp_path / "lab.pgm")
    write_label_pgm(path, np.array([[0, 1], [2, 3]], dtype=np.uint8), 4)
    back = read_pgm(path)
    assert back.tolist() == [[0, 85], [170, 255]]


def test_label_palette_two_classes_is_binary(tmp_path):
    path = str(tmp_path / "bin.pgm")
    write_label_pgm(path, np.array([[0, 1]], dtype=np.uint8), 2)
    assert read_pgm(path).tolist() == [[0, 255]]


def test_image_contracts(tmp_path):
    path = str(tmp_path / "bad.pgm")
    with pytest.raises(ContractError, match="2-D"):
        write_pgm8(path, np.zeros(5))
    with pytest.raises(ContractError, match=r"\[0,1\]"):
        write_pgm8(path, np.array([[1.5]]))
    with pytest.raises(ContractError, match=r"\[0,1\]"):
        write_pgm16(path, np.array([[-0.1]]))
    with pytest.raises(ContractError, match="palette"):
        write_label_pgm(path, np.array([[4]]), 4)
    with pytest.raises(ContractError, match="classes"):
        write_label_pgm(path, np.array([[0]]), 1)


def test_raw_f64_blob_round_trip(tmp_path):
    path = str(tmp_path / "field.nraw")
    arr = np.random.default_rng(7).normal(size=(4, 5))
    write_raw_f64(path, "probs", arr)
    with open(path, "rb") as f:
        version, header, arrays = read_blob(f, "NISF-RAW", 1)
    assert version == 1
    assert header["name"] == "probs"
    assert np.array_equal(arrays["probs"], arr)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), fill=st.integers(0, 255))
def test_pgm8_preserves_uint8_grid_exactly(rows, cols, fill, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pgm")
    img = np.full((rows, cols), fill, dtype=np.float64) / 255.0
    path = str(tmp / "g.pgm")
    write_pgm8(path, img)
    assert np.all(read_pgm(path) == fill)
