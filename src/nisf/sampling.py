"""Arbitrary-resolution querying of a fitted (model, latent) pair.

Grids and oblique planes are just coordinate constructions: the field's
value at a point depends only on the continuous coordinate, never on the
grid it is queried through. The nearest-neighbor resampler provides the
classical baseline the neural predictions are compared against, using
physical (mm) distances so anisotropic spacing is honored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .inference import evaluate_points
from .model import FieldModel
from .volume import VolumeSample, linear_axis, normalize_index

ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sample lattice in normalized coordinates.

    One (count, range) pair per axis (x, y, z, t). count == 1 samples the
    range midpoint, so a fixed axis is written as count 1 with a
    degenerate range (v, v). Ranges outside [0,1] are allowed; such
    points are extrapolations of the field.
    """

    counts: tuple[int, int, int, int]
    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.counts) != 4 or len(self.ranges) != 4:
            raise ContractError("GridSpec needs 4 counts and 4 ranges")
        if any(c < 1 for c in self.counts):
            raise ContractError(f"axis counts must be >= 1, got {self.counts}")
        if any(lo > hi for lo, hi in self.ranges):
            raise ContractError("range lower bound exceeds upper bound")

    @classmethod
    def matching_volume(cls, volume: VolumeSample, t_index: int | None = None) -> "GridSpec":
        """The spec that reproduces a volume's own voxel-center lattice."""
        def full(n):
            return (0.0, 1.0) if n > 1 else (0.5, 0.5)

        gx, gy, gz, gt = volume.shape
        if t_index is None:
            t_count, t_range = gt, full(gt)
        else:
            t_count, t_range = 1, (normalize_index(t_index, gt),) * 2
        return cls(counts=(gx, gy, gz, t_count),
                   ranges=(full(gx), full(gy), full(gz), t_range))

    def axes(self) -> list[np.ndarray]:
        return [linear_axis(lo, hi, n) for n, (lo, hi) in zip(self.counts, self.ranges)]

    def coords(self) -> np.ndarray:
        """All sample coordinates, shape [nx, ny, nz, nt, 4]."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)


@dataclass
class GridSample:
    intensity: np.ndarray   # [nx,ny,nz,nt]
    labels: np.ndarray      # [nx,ny,nz,nt] uint8
    probs: np.ndarray       # [nx,ny,nz,nt,M]


def sample_grid(model: FieldModel, h, spec: GridSpec) -> GridSample:
    coords = spec.coords()
    flat = coords.reshape(-1, 4)
    labels, probs, intensity = evaluate_points(model, h, flat)
    shape = coords.shape[:-1]
    return GridSample(intensity=intensity.reshape(shape),
                      labels=labels.reshape(shape),
                      probs=probs.reshape(*shape, -1))


def sample_volume(model: FieldModel, h, volume: VolumeSample) -> VolumeSample:
    """Decode the fitted field on a volume's own voxel grid.

    The result carries predicted labels and (clipped) intensities on the
    same grid and spacing, with no mask and no generator geometry. Frames
    are decoded one at a time, as their own batches (see ``evaluate_points``).
    """
    frames = [sample_grid(model, h, GridSpec.matching_volume(volume, t))
              for t in range(volume.num_frames)]
    return VolumeSample(subject_id=volume.subject_id,
                        intensity=np.clip(np.concatenate([g.intensity for g in frames], 3),
                                          0.0, 1.0),
                        labels=np.concatenate([g.labels for g in frames], 3),
                        spacing=volume.spacing)


@dataclass(frozen=True)
class PlaneSpec:
    """An arbitrarily oriented image plane through the volume.

    Geometry lives in physical space: ``dir1_mm``/``dir2_mm`` are
    orthonormal mm-space directions, ``extent_mm`` the physical width
    along each, ``origin_norm`` the plane center in normalized
    coordinates. ``span_mm`` is the physical size of the normalized unit
    cube per axis (grid extent minus one, times spacing) and is what
    ties the two spaces together. Pixel (i, j) sits at

        center_mm + a_i * dir1_mm + b_j * dir2_mm

    with a, b spanning [-extent/2, +extent/2].
    """

    origin_norm: tuple[float, float, float]
    dir1_mm: tuple[float, float, float]
    dir2_mm: tuple[float, float, float]
    extent_mm: tuple[float, float]
    counts: tuple[int, int]
    t: float
    span_mm: tuple[float, float, float]

    def __post_init__(self):
        if not np.all(np.isfinite([*self.origin_norm, *self.dir1_mm, *self.dir2_mm,
                                   *self.extent_mm, self.t, *self.span_mm])):
            raise ContractError("plane origin, directions, extent, t and span must be finite")
        d1 = np.asarray(self.dir1_mm, dtype=np.float64)
        d2 = np.asarray(self.dir2_mm, dtype=np.float64)
        if abs(d1 @ d1 - 1.0) > ORTHO_TOL or abs(d2 @ d2 - 1.0) > ORTHO_TOL:
            raise ContractError("plane directions must be unit length (mm space)")
        if abs(d1 @ d2) > ORTHO_TOL:
            raise ContractError("plane directions must be orthogonal (mm space)")
        if any(c < 1 for c in self.counts) or any(e <= 0 for e in self.extent_mm):
            raise ContractError("plane counts must be >= 1 and extents positive")
        if any(s < 0 for s in self.span_mm):
            raise ContractError("span_mm must be nonnegative")

    def pixel_mm(self) -> np.ndarray:
        """Physical pixel positions, shape [nu, nv, 3]."""
        a = linear_axis(-0.5 * self.extent_mm[0], 0.5 * self.extent_mm[0], self.counts[0])
        b = linear_axis(-0.5 * self.extent_mm[1], 0.5 * self.extent_mm[1], self.counts[1])
        center = np.asarray(self.origin_norm) * np.asarray(self.span_mm)
        d1 = np.asarray(self.dir1_mm)
        d2 = np.asarray(self.dir2_mm)
        return (center[None, None, :]
                + a[:, None, None] * d1[None, None, :]
                + b[None, :, None] * d2[None, None, :])

    def pixel_norm(self) -> np.ndarray:
        """Normalized pixel coordinates [nu, nv, 3]; degenerate axes -> 0.5."""
        mm = self.pixel_mm()
        out = np.empty_like(mm)
        for axis in range(3):
            span = self.span_mm[axis]
            out[..., axis] = mm[..., axis] / span if span > 0 else 0.5
        return out


@dataclass
class PlaneSample:
    intensity: np.ndarray       # [nu,nv]
    labels: np.ndarray          # [nu,nv] uint8
    probs: np.ndarray           # [nu,nv,M]
    out_of_volume: np.ndarray   # [nu,nv] bool; True = outside [0,1]^3
    coords_norm: np.ndarray     # [nu,nv,3]


def sample_plane(model: FieldModel, h, spec: PlaneSpec) -> PlaneSample:
    norm = spec.pixel_norm()
    nu, nv = spec.counts
    flat = np.concatenate([norm.reshape(-1, 3),
                           np.full((nu * nv, 1), float(spec.t))], axis=1)
    labels, probs, intensity = evaluate_points(model, h, flat)
    # fully out-of-volume planes are legal; every pixel just comes back flagged
    outside = np.any((norm < 0.0) | (norm > 1.0), axis=-1)
    return PlaneSample(intensity=intensity.reshape(nu, nv),
                       labels=labels.reshape(nu, nv),
                       probs=probs.reshape(nu, nv, -1),
                       out_of_volume=outside,
                       coords_norm=norm)


# ---------------------------------------------------------------------------
# nearest-neighbor baseline


def _nn_indices(positions_mm: np.ndarray, extent: int, spacing: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest voxel index along one axis, half-way ties toward the lower index.

    Returns (indices, inside): queries outside the voxel-center hull
    [0, (extent-1)*spacing] are flagged and their index clamped for safe
    gathering (callers must mask them out).
    """
    x = positions_mm / spacing
    idx = np.ceil(x - 0.5).astype(np.int64)  # round-half-down
    inside = (positions_mm >= 0.0) & (positions_mm <= (extent - 1) * spacing)
    return np.clip(idx, 0, extent - 1), inside


def nn_lookup(volume: VolumeSample, points_mm: np.ndarray, t_index: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-voxel (intensity, label, inside-mask) at physical points.

    Per-axis rounding equals true physical-distance nearest neighbor
    because the squared distance separates over axes; on exact half-way
    ties every axis independently takes the lower index, which is the
    lexicographically smallest of the tied voxels.
    """
    p = np.asarray(points_mm, dtype=np.float64)
    if p.shape[-1] != 3:
        raise DimensionError(f"points must end in 3 components, got {p.shape}")
    if not 0 <= t_index < volume.num_frames:
        raise ContractError(f"frame index {t_index} outside [0,{volume.num_frames})")
    idx, inside = [], np.ones(p.shape[:-1], dtype=bool)
    for axis in range(3):
        i, ok = _nn_indices(p[..., axis], volume.shape[axis], volume.spacing[axis])
        idx.append(i)
        inside &= ok
    intensity = volume.intensity[idx[0], idx[1], idx[2], t_index]
    labels = volume.labels[idx[0], idx[1], idx[2], t_index]
    intensity = np.where(inside, intensity, 0.0)
    labels = np.where(inside, labels, 0).astype(np.uint8)
    return intensity, labels, inside


def nearest_frame(volume: VolumeSample, t_norm: float) -> int:
    """Frame whose normalized time is closest to t (ties toward lower)."""
    gt = volume.num_frames
    if gt == 1:
        return 0
    return int(np.clip(np.ceil(t_norm * (gt - 1) - 0.5), 0, gt - 1))


def nearest_neighbor_resample(volume: VolumeSample, spec: "PlaneSpec | GridSpec"
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical resampling of stored voxels onto a plane or grid.

    Returns (intensity, labels, inside_mask) shaped like the spec's
    lattice. Out-of-bounds queries fill 0 and flag False.
    """
    if isinstance(spec, PlaneSpec):
        points = spec.pixel_mm()
        t_index = nearest_frame(volume, spec.t)
        return nn_lookup(volume, points, t_index)
    if isinstance(spec, GridSpec):
        coords = spec.coords()  # [...,4] normalized
        mm = volume.norm_to_mm(coords[..., :3])
        shape = coords.shape[:-1]
        intensity = np.zeros(shape)
        labels = np.zeros(shape, dtype=np.uint8)
        inside = np.zeros(shape, dtype=bool)
        for ti in range(shape[3]):
            t_index = nearest_frame(volume, float(coords[0, 0, 0, ti, 3]))
            vals, labs, ok = nn_lookup(volume, mm[:, :, :, ti, :], t_index)
            intensity[:, :, :, ti] = vals
            labels[:, :, :, ti] = labs
            inside[:, :, :, ti] = ok
        return intensity, labels, inside
    raise ContractError(f"unsupported spec type {type(spec).__name__}")

