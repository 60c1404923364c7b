"""Volumetric samples: (3D+t) intensity/label grids with physical spacing.

Conventions used throughout the package:

* Array axis order is (x, y, z, t). x and y are the high-resolution
  in-plane axes; z is the sparse slice axis; t indexes time frames.
* Voxel centers sit at physical position index*spacing (mm) per spatial
  axis; index 0 is at 0 mm.
* Normalized coordinates map index i of an axis with extent n to
  i/(n-1) in [0,1]; a degenerate axis (n == 1) maps to 0.5. Time uses
  the same rule, so the model only ever sees [0,1]^4.
* The optional mask marks observed voxels (True = observed). Ground
  truth stays intact under degradation; only the mask changes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, DimensionError, PayloadError
from .serial import expect, read_blob, require, write_blob, write_json_atomic

VOLUME_MAGIC = "NISF-VOL"
VOLUME_VERSION = 1

CLASS_NAMES = ("background", "lv_pool", "lv_myocardium", "rv_pool")
NUM_CLASSES = len(CLASS_NAMES)


def normalize_index(index, extent: int):
    """index/(extent-1) in [0,1]; a 1-extent axis maps to 0.5.

    Accepts scalars or arrays of indices; raises on out-of-range.
    """
    idx = np.asarray(index, dtype=np.float64)
    if extent < 1:
        raise ContractError(f"axis extent must be >= 1, got {extent}")
    if idx.size and (idx.min() < 0 or idx.max() > extent - 1):
        raise ContractError(f"index outside [0,{extent - 1}]")
    if extent == 1:
        out = np.full(idx.shape, 0.5)
    else:
        out = idx / (extent - 1)
    return float(out) if np.isscalar(index) or np.ndim(index) == 0 else out


def linear_axis(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` normalized samples: lo + (hi-lo)*(i/(count-1)).

    count == 1 yields the midpoint. Written so that a grid refined by an
    integer factor r (count' = r*(count-1)+1) reproduces the original
    sample values bit-exactly at the shared indices: (r*i)/(r*(count-1))
    rounds to the same float as i/(count-1).
    """
    if count < 1:
        raise ContractError(f"axis sample count must be >= 1, got {count}")
    if count == 1:
        return np.array([0.5 * (lo + hi)], dtype=np.float64)
    i = np.arange(count, dtype=np.float64)
    return lo + (hi - lo) * (i / (count - 1))


@dataclass
class VolumeSample:
    """One subject's gridded observations plus physical metadata."""

    subject_id: str
    intensity: np.ndarray  # [X,Y,Z,T] in [0,1]
    labels: np.ndarray     # [X,Y,Z,T] in {0..M-1}, uint8
    spacing: tuple[float, float, float]  # mm per (x,y,z) step
    mask: np.ndarray | None = None  # [X,Y,Z,T] bool, True = observed
    phantom: dict | None = field(default=None, repr=False)  # generator description

    def __post_init__(self):
        if self.intensity.ndim != 4:
            raise DimensionError(f"intensity must be 4-D (x,y,z,t), got {self.intensity.shape}")
        if self.labels.shape != self.intensity.shape:
            raise DimensionError(f"labels shape {self.labels.shape} != intensity "
                                 f"shape {self.intensity.shape}")
        if self.mask is not None and self.mask.shape != self.intensity.shape:
            raise DimensionError(f"mask shape {self.mask.shape} != volume shape "
                                 f"{self.intensity.shape}")
        if len(self.spacing) != 3 or not all(np.isfinite(s) and s > 0 for s in self.spacing):
            raise ContractError("spacing must be 3 finite positive mm values, "
                                f"got {self.spacing}")
        if self.intensity.size:
            if not np.all(np.isfinite(self.intensity)):
                raise ContractError("intensity contains non-finite values")
            lo, hi = float(self.intensity.min()), float(self.intensity.max())
            if lo < 0.0 or hi > 1.0:
                raise ContractError(f"intensity outside [0,1]: min={lo}, max={hi}")
        if self.labels.size and int(self.labels.max()) >= NUM_CLASSES:
            raise ContractError(f"label id {int(self.labels.max())} >= {NUM_CLASSES}")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.intensity.shape

    @property
    def num_frames(self) -> int:
        return self.intensity.shape[3]

    def observed(self) -> np.ndarray:
        """Boolean observation mask (all-True when no mask is set)."""
        if self.mask is None:
            return np.ones(self.shape, dtype=bool)
        return self.mask

    # -- coordinate transforms ------------------------------------------

    @property
    def span_mm(self) -> tuple[float, float, float]:
        """Physical size of the normalized unit cube per spatial axis:
        (extent - 1) * spacing, 0 on a degenerate axis."""
        return tuple((self.shape[a] - 1) * self.spacing[a] for a in range(3))

    def norm_to_mm(self, norm_xyz: np.ndarray) -> np.ndarray:
        """Normalized [..,3] spatial coordinates to physical mm."""
        return np.asarray(norm_xyz, dtype=np.float64) * np.array(self.span_mm)


@dataclass
class Batch:
    """Observed voxels of a set of frames of one subject, one row each:
    frame by frame in the order given, raster order within a frame."""

    coords: np.ndarray       # [B,4] normalized
    intensities: np.ndarray  # [B,1] in [0,1]
    labels: np.ndarray       # [B] class ids


def make_batch(volume: VolumeSample, frames: int | Sequence[int] | None = None) -> Batch:
    """The coordinate rows of ``frames``: one frame index, a sequence of
    them, or None for every frame.

    Within a frame rows follow raster (x-major C) order. Voxels the
    observation mask excludes are dropped, so a frame with none observed
    adds no rows; it is an error only if no row is left.
    """
    gx, gy, gz, gt = volume.shape
    frames = np.arange(gt) if frames is None else np.atleast_1d(frames)
    if frames.size == 0:
        raise ContractError("make_batch needs at least one frame")
    # normalize_index rejects a frame index out of range before any indexing
    t, x, y, z = np.meshgrid(normalize_index(frames, gt),
                             *(normalize_index(np.arange(n), n) for n in (gx, gy, gz)),
                             indexing="ij")
    coords = np.stack([a.reshape(-1) for a in (x, y, z, t)], axis=1)

    def rows(grid: np.ndarray) -> np.ndarray:  # [X,Y,Z,T] -> [B] in row order
        return np.moveaxis(grid[:, :, :, frames], 3, 0).reshape(-1)

    keep = rows(volume.observed())
    if not keep.all():
        coords = coords[keep]
    if coords.shape[0] == 0:
        raise ContractError(f"frames {frames.tolist()} have no observed voxels")
    return Batch(coords=coords, intensities=rows(volume.intensity)[keep].reshape(-1, 1),
                 labels=rows(volume.labels)[keep])


# ---------------------------------------------------------------------------
# sparse observations: dropped slices


def drop_slices(volume: VolumeSample, slices: list[int]) -> VolumeSample:
    """Mark the given z slices unobserved across all frames; ground truth
    arrays are untouched."""
    if not slices:
        raise ContractError("drop_slices needs a nonempty slice list")
    mask = volume.observed().copy()
    for z in slices:
        if not 0 <= z < volume.shape[2]:
            raise ContractError(f"slice index {z} outside [0,{volume.shape[2]})")
        mask[:, :, z, :] = False
    if not mask.any():
        raise ContractError("degradation removed every observed point")
    return replace(volume, mask=mask)


# ---------------------------------------------------------------------------
# file format


def save_volume(volume: VolumeSample, path: str) -> None:
    header = {
        "subject_id": volume.subject_id,
        "shape": list(volume.shape),
        "spacing": list(map(float, volume.spacing)),
        "class_names": list(CLASS_NAMES),
        "phantom": volume.phantom,
        "has_mask": volume.mask is not None,
    }
    arrays = {
        "intensity": np.asarray(volume.intensity, dtype=np.float64),
        "labels": np.asarray(volume.labels, dtype=np.uint8),
    }
    if volume.mask is not None:
        arrays["mask"] = volume.mask.astype(np.uint8)
    with open(path, "wb") as f:
        write_blob(f, VOLUME_MAGIC, VOLUME_VERSION, header, arrays)


def load_volume(path: str) -> VolumeSample:
    with open(path, "rb") as f:
        _, header, arrays = read_blob(f, VOLUME_MAGIC, VOLUME_VERSION)
    require(header, ("shape", "subject_id", "spacing"), "volume header")
    require(arrays, ("intensity", "labels"), "volume payload")
    shape = tuple(header["shape"])
    if arrays["intensity"].shape != shape or arrays["labels"].shape != shape:
        raise PayloadError(f"payload shapes {arrays['intensity'].shape} disagree "
                           f"with sidecar shape {shape}")
    mask = None
    if header.get("has_mask"):
        if "mask" not in arrays:
            raise PayloadError("sidecar declares a mask but payload has none")
        mask = arrays["mask"].astype(bool)
    return VolumeSample(subject_id=header["subject_id"], intensity=arrays["intensity"],
                        labels=arrays["labels"], spacing=tuple(header["spacing"]),
                        mask=mask, phantom=header.get("phantom"))


# ---------------------------------------------------------------------------
# dataset manifest


MANIFEST_NAME = "dataset.json"
SPLITS = ("train", "val", "test")


def write_dataset_manifest(out_dir: str, entries: list[dict], seed: int,
                           generator_version: int) -> str:
    """entries: [{"id", "path", "split", "seed"}]; splits must be disjoint."""
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate subject ids in manifest")
    manifest = {
        "format_version": 1,
        "generator_version": generator_version,
        "seed": seed,
        "num_classes": NUM_CLASSES,
        "class_names": list(CLASS_NAMES),
        "subjects": entries,
        "splits": {split: [e["id"] for e in entries if e["split"] == split]
                   for split in SPLITS},
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    write_json_atomic(path, manifest)
    return path


def load_dataset_manifest(dataset_dir: str) -> dict:
    """The manifest of ``dataset_dir``; a file that is not JSON, or lacks a
    key its readers use or holds it with the wrong type, is a ``PayloadError``."""
    path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ContractError(f"no {MANIFEST_NAME} in {dataset_dir}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise PayloadError(f"unreadable dataset manifest {path}: {exc}") from exc
    what = f"dataset manifest {path}"
    require(manifest, ("format_version",), what)
    if manifest["format_version"] != 1:
        raise ContractError(f"unsupported manifest format_version "
                            f"{manifest['format_version']}")
    require(manifest, ("subjects", "splits"), what)
    expect(manifest["subjects"], list, f"{what} 'subjects'")
    require(manifest["splits"], SPLITS, f"{what} splits")
    for split in SPLITS:
        expect(manifest["splits"][split], list, f"{what} split {split!r}")
        for subject_id in manifest["splits"][split]:
            expect(subject_id, str, f"{what} split {split!r} entry")
    for entry in manifest["subjects"]:
        require(entry, ("id", "path"), f"{what} subject entry")
        for key in ("id", "path"):
            expect(entry[key], str, f"{what} subject entry {key!r}")
    return manifest


def manifest_subjects(manifest: dict, dataset_dir: str, split: str) -> list[tuple[str, str]]:
    """(subject_id, absolute volume path) pairs for one split."""
    if split not in SPLITS:
        raise ContractError(f"unknown split {split!r}")
    wanted = set(manifest["splits"][split])
    return [(e["id"], os.path.join(dataset_dir, e["path"]))
            for e in manifest["subjects"] if e["id"] in wanted]
