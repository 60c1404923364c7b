"""Synthetic (3D+t) cardiac-like phantoms with an analytic label oracle.

A subject is two concentric LV ellipsoids (blood pool inside a
myocardial shell) plus an offset RV ellipsoid whose overlap with the LV
is carved away, leaving a crescent. All three structures contract
sinusoidally over the cycle. Labels come from exact ellipsoid membership
tests, so ground truth exists at any continuous coordinate, not just on
the stored grid: that is what lets arbitrary-plane predictions be scored
without interpolating labels.

Geometry is drawn as fractions of the grid's physical extent so one
generator serves both full-size and miniature test volumes. Class
precedence at boundaries: LV pool over myocardium over RV pool over
background.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError
from .serial import config_dict, config_from_dict
from .volume import SPLITS, VolumeSample, check_spacing, normalize_index

GENERATOR_VERSION = 1

BACKGROUND, LV_POOL, LV_MYO, RV_POOL = 0, 1, 2, 3

DEFAULT_GRID_SHAPE = (32, 32, 8, 10)
DEFAULT_SPACING = (2.0, 2.0, 10.0)

@dataclass(frozen=True)
class PhantomSpec:
    """Analytic description of one subject. Lengths in mm, time normalized."""

    lv_center: tuple[float, float, float]
    lv_endo_radii: tuple[float, float, float]
    wall_thickness: float
    rv_center: tuple[float, float, float]
    rv_radii: tuple[float, float, float]
    contraction_amp: float
    contraction_phase: float
    epi_motion_factor: float
    rv_motion_factor: float
    tissue_means: tuple[float, float, float, float]
    noise_sigma: float
    grid_shape: tuple[int, int, int, int]
    spacing: tuple[float, float, float]

    def __post_init__(self):
        for f in fields(self):  # a JSON description (``to_dict``) holds lists
            if isinstance(getattr(self, f.name), list):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        check_grid(self.grid_shape, self.spacing)
        if self.wall_thickness <= 0:
            raise ContractError("wall_thickness must be positive")
        if not 0.0 <= self.contraction_amp < 1.0:
            raise ContractError("contraction_amp must lie in [0,1)")
        if not (0.0 <= self.epi_motion_factor <= 1.0 and 0.0 <= self.rv_motion_factor <= 1.0):
            raise ContractError("motion factors must lie in [0,1]")
        if any(not 0.0 <= m <= 1.0 for m in self.tissue_means):
            raise ContractError("tissue means must lie in [0,1]")
        if any(r <= 0 for r in self.lv_endo_radii + self.rv_radii):
            raise ContractError("radii must be positive")

    def to_dict(self) -> dict:
        return config_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        return config_from_dict(cls, d, "phantom spec")

    @property
    def lv_epi_radii(self) -> tuple[float, float, float]:
        return tuple(r + self.wall_thickness for r in self.lv_endo_radii)

    def scales(self, t_norm: float) -> tuple[float, float, float]:
        """(endo, epi, rv) radius scale factors at normalized time t.

        u(t) = (1 - cos(2*pi*t + phase))/2 rises from 0 toward systole;
        the epicardium moves less than the endocardium, so the wall
        thickens during contraction.
        """
        u = 0.5 * (1.0 - np.cos(2.0 * np.pi * float(t_norm) + self.contraction_phase))
        a = self.contraction_amp
        return (1.0 - a * u,
                1.0 - self.epi_motion_factor * a * u,
                1.0 - self.rv_motion_factor * a * u)

    def label_at(self, points_mm, t_norm: float) -> np.ndarray:
        """Exact class ids at physical points [...,3] and one time value.

        Precedence (last assignment wins): background < RV pool <
        myocardium < LV pool, which carves the RV crescent out of the LV
        wall and resolves the endocardial boundary toward the pool.
        """
        p = np.asarray(points_mm, dtype=np.float64)
        if p.shape[-1] != 3:
            raise ContractError(f"points must have 3 trailing components, got {p.shape}")
        s_endo, s_epi, s_rv = self.scales(t_norm)

        def inside(center, radii, scale):
            c = np.asarray(center, dtype=np.float64)
            r = np.asarray(radii, dtype=np.float64) * scale
            q = (p - c) / r
            return np.sum(q * q, axis=-1) <= 1.0

        labels = np.zeros(p.shape[:-1], dtype=np.uint8)
        labels[inside(self.rv_center, self.rv_radii, s_rv)] = RV_POOL
        labels[inside(self.lv_center, self.lv_epi_radii, s_epi)] = LV_MYO
        labels[inside(self.lv_center, self.lv_endo_radii, s_endo)] = LV_POOL
        return labels


def check_grid(grid_shape, spacing) -> None:
    """Raise ``ContractError`` unless the generator can draw on this grid.

    Geometry is drawn as fractions of each spatial extent, so X, Y and Z
    need at least 2 voxels; T needs at least 1 frame, and the spacing is
    checked as ``VolumeSample`` checks it.
    """
    if len(grid_shape) != 4 or min(grid_shape[:3]) < 2 or grid_shape[3] < 1:
        raise ContractError(f"grid must be X,Y,Z >= 2 and T >= 1 voxel counts, "
                            f"got {tuple(grid_shape)}")
    check_spacing(spacing)


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def draw_spec(seed: int, grid_shape=DEFAULT_GRID_SHAPE,
              spacing=DEFAULT_SPACING) -> PhantomSpec:
    """Sample one subject's geometry. Deterministic per seed.

    Fractions below are of the physical extent per axis; the LV sits
    left of center so the RV (offset toward +x) stays inside the field
    of view for the whole draw range.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x9A17, seed]))
    extent = np.array([(grid_shape[a] - 1) * spacing[a] for a in range(3)])

    lv_center = (extent[0] * (0.5 + _uniform(rng, -0.08, -0.02)),
                 extent[1] * (0.5 + _uniform(rng, -0.06, 0.06)),
                 extent[2] * (0.5 + _uniform(rng, -0.07, 0.07)))
    lv_endo_radii = (extent[0] * _uniform(rng, 0.15, 0.21),
                     extent[1] * _uniform(rng, 0.15, 0.21),
                     extent[2] * _uniform(rng, 0.23, 0.31))
    wall = min(extent[0], extent[1]) * _uniform(rng, 0.08, 0.11)
    rv_center = (lv_center[0] + extent[0] * _uniform(rng, 0.19, 0.26),
                 lv_center[1] + extent[1] * _uniform(rng, -0.05, 0.05),
                 lv_center[2] + extent[2] * _uniform(rng, -0.04, 0.04))
    rv_radii = (extent[0] * _uniform(rng, 0.16, 0.22),
                extent[1] * _uniform(rng, 0.19, 0.26),
                extent[2] * _uniform(rng, 0.20, 0.29))
    amp = _uniform(rng, 0.15, 0.30)
    phase = _uniform(rng, -0.3, 0.3)
    # Intensity model skewed hard toward the extremes (near-black air,
    # bright blood pools, dim myocardium), which is what makes a BCE
    # reconstruction term appropriate and drivable close to zero.
    means = (0.002 + _uniform(rng, 0.0, 0.006),
             0.96 + _uniform(rng, -0.015, 0.015),
             0.09 + _uniform(rng, -0.015, 0.015),
             0.93 + _uniform(rng, -0.015, 0.015))
    return PhantomSpec(lv_center=lv_center, lv_endo_radii=lv_endo_radii,
                       wall_thickness=wall, rv_center=rv_center, rv_radii=rv_radii,
                       contraction_amp=amp, contraction_phase=phase,
                       epi_motion_factor=0.4, rv_motion_factor=0.7,
                       tissue_means=means, noise_sigma=0.01,
                       grid_shape=tuple(grid_shape), spacing=tuple(spacing))


def render_volume(spec: PhantomSpec, seed: int, subject_id: str) -> VolumeSample:
    """Rasterize a spec onto its grid: oracle labels + noisy intensities."""
    gx, gy, gz, gt = spec.grid_shape
    xs = np.arange(gx, dtype=np.float64) * spec.spacing[0]
    ys = np.arange(gy, dtype=np.float64) * spec.spacing[1]
    zs = np.arange(gz, dtype=np.float64) * spec.spacing[2]
    centers = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1)  # [X,Y,Z,3]

    labels = np.empty((gx, gy, gz, gt), dtype=np.uint8)
    for ti in range(gt):
        labels[..., ti] = spec.label_at(centers, normalize_index(ti, gt))

    means = np.asarray(spec.tissue_means, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([0x9A18, seed]))
    noise = rng.normal(0.0, spec.noise_sigma, size=labels.shape)
    intensity = np.clip(means[labels] + noise, 0.0, 1.0)
    return VolumeSample(subject_id=subject_id, intensity=intensity, labels=labels,
                        spacing=spec.spacing, phantom=spec.to_dict())


def generate_subject(seed: int, grid_shape=DEFAULT_GRID_SHAPE, spacing=DEFAULT_SPACING,
                     subject_id: str | None = None) -> tuple[PhantomSpec, VolumeSample]:
    """Draw geometry and rasterize it; bit-identical output per seed."""
    spec = draw_spec(seed, grid_shape=grid_shape, spacing=spacing)
    volume = render_volume(spec, seed, subject_id or f"phantom-{seed}")
    return spec, volume


def subject_seeds(dataset_seed: int, count: int) -> np.ndarray:
    """Per-subject generator seeds derived from one dataset seed."""
    rng = np.random.default_rng(np.random.SeedSequence([0xD5, dataset_seed]))
    return rng.integers(0, 2 ** 62, size=count)


def generate_dataset(dataset_seed: int, counts: tuple[int, int, int],
                     grid_shape=DEFAULT_GRID_SHAPE, spacing=DEFAULT_SPACING):
    """Yield ``(split, seed, volume)`` for every subject of a dataset, in id order.

    ``counts`` gives the train, val and test sizes. Subject ``i`` is
    ``s{i:04d}`` with seed ``subject_seeds(dataset_seed, sum(counts))[i]``;
    the first ``counts[0]`` subjects are train, the next ``counts[1]`` val
    and the rest test.
    """
    seeds = subject_seeds(dataset_seed, sum(counts))
    splits = [split for split, count in zip(SPLITS, counts) for _ in range(count)]
    for i, (split, seed) in enumerate(zip(splits, seeds.tolist())):
        _, volume = generate_subject(seed, grid_shape=grid_shape, spacing=spacing,
                                     subject_id=f"s{i:04d}")
        yield split, seed, volume

