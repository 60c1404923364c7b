"""Numerics fingerprint: one digest over the float bits of a fixed run.

The run covers a training loss with its backward, an inference loss with
its backward, a frozen ``evaluate_points`` and a ``sample_plane`` at the
default width, on batches that span several trunk tiles. A change that
moves any bit of these numbers changes the digest; a change meant to
keep every value (a refactor or a speed-up) must leave it as it is.

The digest was taken with numpy 2.4 and OpenBLAS 0.3.31 on an AVX-512
Xeon. Another BLAS build or CPU may sum products in another order; there,
re-take the digest on the parent commit before judging a change by it.
"""

import hashlib

import numpy as np

import nisf.autodiff as ad
from nisf.autodiff import Tensor
from nisf.inference import evaluate_points
from nisf.losses import LossWeights, inference_loss, train_loss
from nisf.model import FieldModel, ModelConfig
from nisf.sampling import PlaneSpec, sample_plane

ROWS = 2 * ad.block_rows(ModelConfig().hidden_width) + 3  # two full tiles and a ragged one
DIGEST = "83d1c3080794b6fd278c06c29a03d989788f25dc65829e5d656df066fd189a8c"


def _feed(digest, *arrays) -> None:
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def numerics_digest() -> str:
    model = FieldModel.init(ModelConfig(), seed=5)
    rng = np.random.default_rng(2051)
    coords = rng.uniform(0.0, 1.0, size=(ROWS, 4))
    intensities = rng.uniform(0.05, 0.95, size=ROWS)
    labels = rng.integers(0, 4, size=ROWS)
    latent = rng.normal(0.0, 0.1, size=128)
    digest = hashlib.sha256()

    h = Tensor(latent.copy())
    with ad.Tape(wrt=[*model.parameters(), h]) as tape:
        terms = train_loss(model, h, coords, intensities, labels, LossWeights())
        tape.backward(terms.total)
    _feed(digest, terms.total.values, h.grad, *(p.grad for p in model.parameters()))

    h = Tensor(latent.copy())
    with ad.Tape(wrt=[h]) as tape:
        terms = inference_loss(model.intensity(coords, h), intensities, h, 1e-4)
        tape.backward(terms.total)
    _feed(digest, terms.total.values, h.grad)

    _feed(digest, *evaluate_points(model, latent, coords))
    plane = sample_plane(model, latent, PlaneSpec(
        origin_norm=(0.5, 0.5, 0.5), dir1_mm=(0.6, 0.8, 0.0), dir2_mm=(0.0, 0.0, 1.0),
        extent_mm=(60.0, 40.0), counts=(45, 46), t=0.3, span_mm=(60.0, 60.0, 40.0)))
    _feed(digest, plane.intensity, plane.labels, plane.probs)
    return digest.hexdigest()


def test_numerics_fingerprint_is_pinned():
    assert numerics_digest() == DIGEST
