"""The frozen trunk's worker threads: same bits at any worker count, no
worker under a tape, and errors that reach the caller after every tile.

``autodiff.TRUNK_WORKERS`` (W) is the worker count ``gabor_trunk`` and
``inference._in_chunks`` read; these tests patch it. The pinned digests
were taken on the commit before the trunk ran on worker threads, with
numpy 2.4 and OpenBLAS 0.3.31 on an AVX-512 Xeon (see
``test_fingerprint.py`` for another BLAS build or CPU).
"""

import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nisf.autodiff as ad
from nisf.autodiff import Tensor
from nisf.inference import InferConfig, evaluate_points, infer_latent
from nisf.losses import LossWeights, inference_loss, train_loss
from nisf.model import FieldModel, ModelConfig
from nisf.sampling import GridSpec, PlaneSpec, sample_grid, sample_plane

# widths 128 and 24 keep the bits of whole-tile products; at width 100 the
# products' rows depend on the batch, so only the worker count is free there
DIGESTS = {128: "42c35c5d0c6516cd2a8f296c194871e658accb79629aa0b8dd339c3853ee1cd6",
           24: "df25b04b0bdc3136ee3ad380eea52dbdae105ea1525a2a8d3f316d8254843e44",
           100: None}


def _row_counts(width):
    # around one tile, four tiles and 3 rows (a W = 2 chunk and a ragged
    # one), and a query of 16 W = 2 chunks and a ragged one at width 128
    return (1, 2, 1023, 1025, 4 * ad.block_rows(width) + 3, 65541)


def _model(width):
    cfg = ModelConfig(hidden_width=width, num_res_layers=2, latent_dim=16)
    return FieldModel.init(cfg, seed=3)


def frozen_outputs(width) -> list[np.ndarray]:
    """Every array ``evaluate_points``, ``sample_grid``, ``sample_plane`` and
    a fixed-seed ``infer_latent`` trace return, at each row count."""
    model = _model(width)
    rng = np.random.default_rng(width)
    h = rng.normal(scale=0.1, size=model.config.latent_dim)
    arrays = []
    for rows in _row_counts(width):
        coords = rng.uniform(size=(rows, 4))
        arrays += evaluate_points(model, h, coords)
        grid = sample_grid(model, h, GridSpec(counts=(rows, 1, 1, 1), ranges=(
            (-0.1, 1.1), (0.4, 0.4), (0.6, 0.6), (0.2, 0.2))))
        arrays += [grid.intensity, grid.labels, grid.probs]
        plane = sample_plane(model, h, PlaneSpec(
            origin_norm=(0.5, 0.5, 0.5), dir1_mm=(0.6, 0.8, 0.0), dir2_mm=(0.0, 0.0, 1.0),
            extent_mm=(60.0, 40.0), counts=(1, rows), t=0.3, span_mm=(60.0, 60.0, 40.0)))
        arrays += [plane.intensity, plane.labels, plane.probs]
        labels = rng.integers(0, model.config.num_classes, size=rows)
        latent, trace = infer_latent(
            model, coords, rng.uniform(0.05, 0.95, size=rows),
            InferConfig(steps_to_run=1, record_cadence=1, points_per_step=64, lr_infer=1e-2,
                        seed=rows), analysis=(coords[:1025], labels[:1025]))
        arrays += [latent.values, trace.recon_loss, trace.latent_norm, trace.dice_per_class]
    return arrays


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("width", sorted(DIGESTS))
def test_frozen_bits_do_not_depend_on_the_worker_count(width, monkeypatch):
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 1)
    one = frozen_outputs(width)
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 2)
    two = frozen_outputs(width)
    for i, (a, b) in enumerate(zip(one, two)):
        assert np.array_equal(a, b), (width, i)
    if DIGESTS[width] is not None:
        assert _digest(two) == DIGESTS[width]


def test_more_workers_than_cores_keep_the_bits(monkeypatch):
    # five workers on 2 cores, switching threads as often as they can, over
    # nine tiles: a tile lost, run twice or written into another's rows
    # would change the output
    model = _model(128)
    rng = np.random.default_rng(12)
    coords, h = rng.uniform(size=(9 * 1024 - 5, 4)), rng.normal(scale=0.1, size=16)
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 1)
    expect = model.forward(coords, h)
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 5)
    monkeypatch.setattr(ad, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = model.forward(coords, h)
            for a, b in zip(got, expect):
                assert np.array_equal(a.values, b.values)
    finally:
        sys.setswitchinterval(interval)
        ad._pool.shutdown()


class _SpyPool:
    """A one-thread executor that counts what it is given."""

    def __init__(self):
        self.submitted = 0
        self._pool = ThreadPoolExecutor(1)

    def submit(self, fn, *args):
        self.submitted += 1
        return self._pool.submit(fn, *args)

    def shutdown(self):
        self._pool.shutdown()


@pytest.fixture
def spy(monkeypatch):
    pool = _SpyPool()
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 2)
    monkeypatch.setattr(ad, "_pool", pool)
    yield pool
    pool.shutdown()


def test_taped_steps_submit_nothing_to_the_pool(spy):
    # 2048 rows are two tiles at width 128: frozen, they go to two workers
    model = FieldModel.init(ModelConfig(num_res_layers=2, latent_dim=16), seed=0)
    rng = np.random.default_rng(6)
    coords = rng.uniform(size=(2048, 4))
    intensities = rng.uniform(size=2048)
    labels = rng.integers(0, 4, size=2048)
    latent = rng.normal(scale=0.1, size=16)
    h = Tensor(latent.copy())
    with ad.Tape(wrt=[*model.parameters(), h]) as tape:
        tape.backward(train_loss(model, h, coords, intensities, labels, LossWeights()).total)
    with ad.Tape(wrt=[h]) as tape:
        tape.backward(inference_loss(model.intensity(coords, h), intensities, h, 1e-4).total)
    assert spy.submitted == 0
    model.forward(coords, latent)
    assert spy.submitted == 1


class _TileError(Exception):
    pass


@pytest.mark.parametrize("failing", ["MainThread", "nisf-trunk"])
def test_worker_error_reaches_the_caller_after_every_tile(failing, monkeypatch):
    # One worker's first wavelet call raises; the other worker's calls are
    # slow, so an error passed on before they end would find them running.
    monkeypatch.setattr(ad, "TRUNK_WORKERS", 2)
    kernel = ad._gabor_kernel
    lock = threading.Lock()
    running, done = [0], {}

    def flaky(v, omega0, s0, deriv, scratch):
        name = threading.current_thread().name
        if name.startswith(failing):
            raise _TileError(name)
        with lock:
            running[0] += 1
        time.sleep(0.02)
        kernel(v, omega0, s0, deriv, scratch)
        with lock:
            running[0] -= 1
            done[name] = done.get(name, 0) + 1

    monkeypatch.setattr(ad, "_gabor_kernel", flaky)
    model = _model(128)
    coords = np.random.default_rng(1).uniform(size=(4 * 1024, 4))
    with pytest.raises(_TileError):
        model.forward(coords, np.zeros(16))
    assert running[0] == 0
    # the other worker ran both its tiles through both blocks
    assert list(done.values()) == [4]
