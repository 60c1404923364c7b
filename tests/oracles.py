"""Test oracles: slow, obviously correct references for the code under test.

Besides plain-numpy references, this holds the composed tape ops that
``autodiff.gabor_trunk`` is compared against bit for bit: the trunk's
input layer (``latent_linear``) and its wavelet (``gabor``) as separate
tape entries, with the trunk's arithmetic, and ``composed_trunk``, which
chains them with ``linear`` and ``add``. They are built from autodiff's
private helpers, so they record and differentiate like any library op.
"""

import numpy as np

import nisf.autodiff as ad
from nisf.errors import DimensionError
from nisf.model import ModelConfig
from nisf.volume import CLASS_NAMES, NUM_CLASSES, VolumeSample


def latent_linear(coords: ad.Tensor, h: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``linear`` of [coords | h] where one latent ``h`` [d] conditions every row.

    With ``w`` split row-wise into [w_c; w_h] at k = coords.shape[1], the
    output is coords @ w_c + (h @ w_h + b): the trunk's input layer, with
    the coordinate term as one einsum and the latent row computed once.
    """
    if coords.ndim != 2 or h.ndim != 1 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"latent_linear needs [B,k], [d], [k+d,n], [n], got "
                             f"{coords.shape}, {h.shape}, {w.shape}, {b.shape}")
    k = coords.shape[1]
    if w.shape[0] != k + h.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"latent_linear extents disagree: {coords.shape}, "
                             f"{h.shape}, {w.shape}, {b.shape}")
    vals = np.einsum("bk,kn->bn", coords.values, w.values[:k])
    vals += h.values @ w.values[k:] + b.values
    sc, sh, sw, sb = (ad._grad_slot(t) for t in (coords, h, w, b))

    def rule(g: np.ndarray) -> None:
        g_sum = g.sum(axis=0)
        if sc is not None:
            ad._accumulate(sc, ad._input_grad(g, w.values[:k]), owned=True)
        if sh is not None:
            ad._accumulate(sh, w.values[k:] @ g_sum, owned=True)
        if sw is not None:
            ad._accumulate(sw, np.concatenate([coords.values.T @ g, np.outer(h.values, g_sum)]),
                           owned=True)
        if sb is not None:
            ad._accumulate(sb, g_sum, owned=True)

    return ad._make_output(vals, "latent_linear", (sc, sh, sw, sb), rule)


def gabor(x: ad.Tensor, omega0: float, s0: float) -> ad.Tensor:
    """cos(omega0*x) * exp(-(s0*x)^2) elementwise, through the trunk's kernel.

    A 0-d input stays an array; the derivative is computed only while a
    tape records ``x``, as in the trunk.
    """
    sx = ad._grad_slot(x)
    vals = x.values.copy()  # C-ordered, so the kernel can work on a [size, 1] view
    deriv = np.empty_like(vals) if sx is not None else None
    ad._gabor_kernel(vals.reshape(-1, 1), omega0, s0,
                     None if deriv is None else deriv.reshape(-1, 1),
                     ad._kernel_scratch(vals.size, 1, sx is not None, vals.dtype))

    def rule(g: np.ndarray) -> None:
        ad._accumulate(sx, g * deriv, owned=True)

    return ad._make_output(vals, "gabor", (sx,), rule)


def composed_trunk(coords, h, w_in, b_in, blocks, omega0, s0) -> ad.Tensor:
    """``gabor_trunk`` as separate tape entries: the input layer, then
    x + linear(gabor(linear(x, w1, b1)), w2, b2) for every block."""
    x = latent_linear(coords, h, w_in, b_in)
    for w1, b1, w2, b2 in blocks:
        x = ad.add(x, ad.linear(gabor(ad.linear(x, w1, b1), omega0, s0), w2, b2))
    return x


def param_count(cfg: ModelConfig) -> int:
    """Total learnable parameter count as a pure function of the config."""
    w, m = cfg.hidden_width, cfg.num_classes
    n_in = (cfg.coord_dim + cfg.latent_dim) * w + w
    n_res = cfg.num_res_layers * 2 * (w * w + w)
    n_heads = (w * m + m) + (w * 1 + 1)
    return n_in + n_res + n_heads


# Documented generator bounds on per-class volume fraction (whole 4D grid).
CLASS_FRACTION_BOUNDS = {
    "background": (0.55, 0.98),
    "lv_pool": (0.002, 0.10),
    "lv_myocardium": (0.010, 0.20),
    "rv_pool": (0.002, 0.12),
}


def class_fractions(labels: np.ndarray) -> dict[str, float]:
    """Each class's share of the voxels of ``labels``, by class name."""
    return {CLASS_NAMES[c]: float(np.count_nonzero(labels == c)) / labels.size
            for c in range(NUM_CLASSES)}


def voxel_centers_mm(volume: VolumeSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis physical voxel-center positions (1-D arrays for x, y, z)."""
    return tuple(np.arange(volume.shape[a], dtype=np.float64) * volume.spacing[a]
                 for a in range(3))


def read_pgm(path: str) -> np.ndarray:
    """Read a P5 PGM back (uint8 for maxval <= 255, big-endian uint16 otherwise)."""
    with open(path, "rb") as f:
        assert f.readline().strip() == b"P5", f"{path} is not a P5 PGM"
        width, height = (int(v) for v in f.readline().split())
        dt = np.dtype(">u2") if int(f.readline()) > 255 else np.dtype("u1")
        raw = f.read()
    assert len(raw) == width * height * dt.itemsize, f"{path}: payload size"
    return np.frombuffer(raw, dtype=dt).reshape(height, width)


def brute_force_nn(volume: VolumeSample, points_mm: np.ndarray, t_index: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Oracle for nn_lookup: scan every voxel center, compare squared
    physical distances, break ties by lexicographically smallest index.
    Quadratic cost; only sensible on small volumes."""
    p = np.asarray(points_mm, dtype=np.float64).reshape(-1, 3)
    xs, ys, zs = voxel_centers_mm(volume)
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
