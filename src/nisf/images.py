"""Grayscale PGM (P5) output plus raw float dumps.

PGM is used because it is dependency-free and byte-exactly specified:
header ``P5\\n<width> <height>\\n<maxval>\\n`` followed by row-major
samples, one byte per pixel for maxval 255 or two bytes big-endian for
maxval 65535.

Label images map class id c to gray level round(c * maxval / (M-1)), so
for the 4-class palette at 8 bit: background 0, LV pool 85,
LV myocardium 170, RV pool 255.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .serial import write_blob

RAW_MAGIC = "NISF-RAW"
RAW_VERSION = 1


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ContractError(f"images must be 2-D [rows, cols], got shape {img.shape}")
    return img


def _write_pgm(path: str, data: np.ndarray, maxval: int) -> None:
    """P5 header for the [rows, cols] samples ``data``, then their bytes."""
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n{maxval}\n".encode("ascii"))
        f.write(data.tobytes())


def write_pgm8(path: str, img: np.ndarray) -> None:
    """Intensity image in [0,1] to 8-bit PGM (values scaled by 255, rounded)."""
    img = _check_image(img)
    if img.size and (img.min() < 0.0 or img.max() > 1.0):
        raise ContractError("pgm8 expects intensities in [0,1]")
    _write_pgm(path, np.rint(img * 255.0).astype(np.uint8), 255)


def write_pgm16(path: str, img: np.ndarray) -> None:
    """Intensity image in [0,1] to 16-bit big-endian PGM."""
    img = _check_image(img)
    if img.size and (img.min() < 0.0 or img.max() > 1.0):
        raise ContractError("pgm16 expects intensities in [0,1]")
    _write_pgm(path, np.rint(img * 65535.0).astype(">u2"), 65535)


def write_label_pgm(path: str, labels: np.ndarray, num_classes: int) -> None:
    """Label image to 8-bit PGM with the documented class->gray palette."""
    labels = _check_image(labels)
    if num_classes < 2:
        raise ContractError("label palette needs >= 2 classes")
    if labels.size and int(labels.max()) >= num_classes:
        raise ContractError("label id outside palette")
    gray = np.rint(labels.astype(np.float64) * (255.0 / (num_classes - 1))).astype(np.uint8)
    _write_pgm(path, gray, 255)


def write_raw_f64(path: str, name: str, array: np.ndarray,
                  extra: dict | None = None) -> None:
    """Raw float dump: the standard blob envelope around one float64 array."""
    header = {"name": name}
    if extra:
        header.update(extra)
    with open(path, "wb") as f:
        write_blob(f, RAW_MAGIC, RAW_VERSION, header,
                   {name: np.asarray(array, dtype=np.float64)})
