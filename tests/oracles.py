"""Test oracles: slow, obviously correct references for the code under test."""

import numpy as np

from nisf.volume import VolumeSample


def brute_force_nn(volume: VolumeSample, points_mm: np.ndarray, t_index: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for nn_lookup: scan every voxel center, compare squared
    physical distances, break ties by lexicographically smallest index.
    Quadratic cost; only sensible on small volumes."""
    p = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    xs, ys, zs = volume.voxel_centers_mm()
    intensity = np.zeros(p.shape[0])
    labels = np.zeros(p.shape[0], dtype=np.uint8)
    inside = np.zeros(p.shape[0], dtype=bool)
    hull_hi = [(volume.shape[a] - 1) * volume.spacing[a] for a in range(3)]
    for n in range(p.shape[0]):
        best = None
        for i in range(volume.shape[0]):
            for j in range(volume.shape[1]):
                for k in range(volume.shape[2]):
                    d = ((p[n, 0] - xs[i]) ** 2 + (p[n, 1] - ys[j]) ** 2
                         + (p[n, 2] - zs[k]) ** 2)
                    key = (d, i, j, k)
                    if best is None or key < best:
                        best = key
        _, i, j, k = best
        ok = all(0.0 <= p[n, a] <= hull_hi[a] for a in range(3))
        inside[n] = ok
        if ok:
            intensity[n] = volume.intensity[i, j, k, t_index]
            labels[n] = volume.labels[i, j, k, t_index]
    shape = np.asarray(points_mm).shape[:-1]
    return intensity.reshape(shape), labels.reshape(shape), inside.reshape(shape)
