"""Latent-only inference on unseen subjects.

Each step's tape differentiates only a fresh latent, drawn from
N(0, 1e-4) and optimized against the intensity reconstruction objective
alone; the model's weights are read, never moved. Segmentations are
then decoded from the fitted latent: the bet is that a latent explaining
the image also lands where the segmentation head is accurate.

A fit sees intensities only. Early stopping uses a step count selected
on validation subjects, not a per-subject criterion: at inference time
there is no ground truth to monitor, so the only honest knob is how long
to optimize. The trace keeps each recorded latent, and the validation
protocol (``experiments.curve_row``) decodes and scores those against
ground truth after the fit.

A fit's gradient steps run in float32 against a float64 master latent,
as in mixed-precision training (Micikevicius et al., ICLR 2018), and so
does the decode behind each reconstruction record, whose BCE is taken in
float64: neither feeds back into the fit. The latent, its Adam moments,
the recorded latents and their norms and every other decode stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericalError
from .losses import bce, inference_loss
from .model import FieldModel
from .optim import Adam, fit_step
from .volume import VolumeSample, make_batch

INFER_INIT_SIGMA = 0.01  # h starts from N(0, 1e-4)

_STREAM_INIT = 0x1F17
_STREAM_SAMPLE = 0x5A30


@dataclass(frozen=True)
class InferConfig:
    """Inference-time optimization settings.

    ``steps_to_run`` is the one step count of a fit: the count validation
    selects, or any budget a caller names. The objective is
    ``losses.inference_loss`` with weight ``lambda_h`` on ||h||^2.
    """

    steps_to_run: int = 1000
    lr_infer: float = 1e-4
    lambda_h: float = 1e-4
    seed: int = 0
    record_cadence: int = 50
    points_per_step: int | None = None  # None = all observed points every step

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is False
        if not (np.isfinite(self.lambda_h) and self.lambda_h >= 0):
            raise ContractError("lambda_h must be finite and nonnegative")
        if self.steps_to_run < 0:
            raise ContractError("steps_to_run must be >= 0")
        if not (np.isfinite(self.lr_infer) and self.lr_infer > 0):
            raise ContractError("lr_infer must be finite and positive")
        if self.record_cadence < 1:
            raise ContractError("record_cadence must be >= 1")
        if self.points_per_step is not None and self.points_per_step < 1:
            raise ContractError("points_per_step must be >= 1 when set")


@dataclass
class InferenceTrace:
    """Recorded optimization history: step 0 plus every cadence-th step.

    ``latents[k]`` is a float64 copy of the master latent at ``steps[k]``
    and ``latent_norm[k]`` its Euclidean norm; a caller that holds labels
    scores the curve by decoding these latents (``experiments.curve_row``).
    """

    steps: list[int] = field(default_factory=list)
    recon_loss: list[float] = field(default_factory=list)
    latent_norm: list[float] = field(default_factory=list)
    latents: list[np.ndarray] = field(default_factory=list)

    def append(self, step: int, recon: float, latent: np.ndarray) -> None:
        latent = np.array(latent, dtype=np.float64)
        norm = float(np.sqrt(np.sum(latent * latent)))
        if self.steps and step <= self.steps[-1]:
            raise ContractError("trace steps must be strictly increasing")
        if not (np.isfinite(recon) and np.isfinite(norm)):
            raise NumericalError(f"non-finite trace entry at step {step}")
        self.steps.append(step)
        self.recon_loss.append(recon)
        self.latent_norm.append(norm)
        self.latents.append(latent)

    def csv_header(self) -> str:
        return "step,recon_loss,latent_norm"

    def csv_rows(self) -> list[str]:
        return [f"{step},{recon!r},{norm!r}"
                for step, recon, norm in zip(self.steps, self.recon_loss, self.latent_norm)]


def _in_chunks(head, model: FieldModel, h, coords: np.ndarray) -> list:
    """``head(chunk, h)`` of a frozen ``h`` over consecutive chunks of ``coords``.

    ``coords`` and ``h`` are cast to the dtype of ``model``'s parameters,
    so a float64 model decodes in float64 and a float32 copy in float32.
    A chunk holds two trunk tiles per trunk worker, 2·W·``block_rows``
    rows (4096 rows at width 128 and W = 2; see ``autodiff.gabor_trunk``);
    the heads run on the calling thread. On a 2-vCPU AVX-512 Xeon
    (OpenBLAS 0.3.31 on 2 threads, W = 2), ``evaluate_points`` over 32,768
    points took 582-589 ms with one tile per worker per call, 516-538 ms
    with two and 504-537 ms with four (medians of 7).
    """
    chunk = 2 * ad.TRUNK_WORKERS * ad.block_rows(model.config.hidden_width)
    dtype = model.params["w_in"].dtype
    coords = np.asarray(coords, dtype=dtype)
    h_t = Tensor(np.asarray(h.values if isinstance(h, Tensor) else h, dtype=dtype))
    return [head(coords[lo:lo + chunk], h_t) for lo in range(0, coords.shape[0], chunk)]


def evaluate_points(model: FieldModel, h, coords: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frozen forward over arbitrarily many points, in chunks (see ``_in_chunks``).

    Returns (labels [B], seg_probs [B,M], intensity [B]). The forward
    pass is point-wise independent, so chunking changes no value wherever
    every product sums each row in an order that does not depend on the
    batch (see ``autodiff._gemm``). With OpenBLAS 0.3.31 on AVX-512 that
    held at every hidden width that is a multiple of 8 from 8 to 256
    (the default is 128) and at widths up to 12, but not at widths 20,
    36, 50 or 100: there the trunk's [B, w] @ [w, w] rows depend on the
    batch size.
    """
    outs = _in_chunks(model.forward, model, h, coords)
    probs = np.concatenate([out.seg_probs.values for out in outs], axis=0)
    intensity = np.concatenate([out.intensity.values[:, 0] for out in outs], axis=0)
    return np.argmax(probs, axis=1).astype(np.uint8), probs, intensity


def full_observations(volume: VolumeSample) -> tuple[np.ndarray, np.ndarray]:
    """(coords [B,4], intensities [B,1]) over every observed voxel, all frames."""
    batch = make_batch(volume)
    return batch.coords, batch.intensities


def infer_latent(model: FieldModel, coords: np.ndarray, intensities: np.ndarray,
                 config: InferConfig) -> tuple[Tensor, InferenceTrace]:
    """Fit a fresh latent to intensity observations; the model never moves.

    The fit takes intensities only: no label reaches it. Each record keeps
    the latent, so a Dice curve is scored afterwards from
    ``trace.latents`` (``experiments.curve_row``). The trace always records
    the full-observation reconstruction BCE, even when steps draw
    subsampled batches.

    ``h`` is a float64 master latent, and Adam updates it with float64
    moments. Each step's taped forward and backward run in float32: on a
    float32 copy of the model (``FieldModel.astype``) and of the
    observations, made once per fit, and on ``ad.astype(h, np.float32)``,
    which the step's tape records. The float32 latent gradient reaches
    ``h`` through that cast, widened to float64 with the same values, and
    Adam reads it into its float64 moments. On the default model
    (8192-row steps, a 2-vCPU AVX-512 Xeon, OpenBLAS 0.3.31 on 2
    threads) a step took 138-147 ms against 287-310 ms in float64, and
    its gradient differed from the float64 one by 1.3e-6 relative.

    Each reconstruction record decodes ``h`` cast to float32 through the
    same float32 copies, and takes the BCE of those intensities cast to
    float64. On the same machine, one 81,920-row record took 590-750 ms
    against 1,090-1,780 ms in float64, with intensities within 1.7e-7
    relative. Records never feed back into the steps, so the fitted latent
    is the same bits at any record cadence and precision. The recorded
    latents and their norms are float64 copies of ``h``; the returned latent
    is float64, and the caller's model is never cast or moved.
    """
    coords = np.asarray(coords, dtype=np.float64)
    intensities = np.asarray(intensities, dtype=np.float64).reshape(-1, 1)
    if coords.ndim != 2 or coords.shape[0] != intensities.shape[0]:
        raise ContractError(f"coords {coords.shape} and intensities "
                            f"{intensities.shape} do not align")
    if coords.shape[0] == 0:
        raise ContractError("inference needs at least one observation")
    if coords.size and (coords.min() < 0.0 or coords.max() > 1.0):
        raise ContractError("observation coordinates must lie in [0,1]^N")

    checksum_before = model.checksum()
    # the float32 operands of the steps and records, made once per fit
    model32 = model.astype(np.float32)
    coords32, intensities32 = coords.astype(np.float32), intensities.astype(np.float32)
    rng = np.random.default_rng(np.random.SeedSequence([_STREAM_INIT, config.seed]))
    h = Tensor(rng.normal(0.0, INFER_INIT_SIGMA, size=model.config.latent_dim))
    adam = Adam({"latent": h}, lr=config.lr_infer)
    sample_rng = np.random.default_rng(np.random.SeedSequence([_STREAM_SAMPLE, config.seed]))
    num_points = coords.shape[0]

    trace = InferenceTrace()

    def record(step: int) -> None:
        # the reconstruction decodes at the steps' precision, through the
        # intensity head alone in evaluate_points' chunks; its BCE is float64
        chunks = _in_chunks(model32.intensity, model32, h, coords32)
        inten = np.concatenate([t.values[:, 0] for t in chunks]).astype(np.float64)
        trace.append(step, bce(Tensor(inten), intensities[:, 0]).item(), h.values)

    steps_to_run = config.steps_to_run
    record(0)
    for step in range(1, steps_to_run + 1):
        if config.points_per_step is not None and config.points_per_step < num_points:
            idx = sample_rng.choice(num_points, size=config.points_per_step, replace=False)
            step_coords, step_targets = coords32[idx], intensities32[idx]
        else:
            step_coords, step_targets = coords32, intensities32

        def objective():
            h32 = ad.astype(h, np.float32)
            return inference_loss(model32.intensity(step_coords, h32), step_targets, h32,
                                  config.lambda_h)

        fit_step([adam], objective)
        if step % config.record_cadence == 0 or step == steps_to_run:
            record(step)

    if model.checksum() != checksum_before:
        raise ContractError("model parameters changed during inference")
    return h, trace


def analysis_points(volume: VolumeSample, frames: tuple[int, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(coords, true labels) on which a fit's recorded latents are scored.

    The fit never sees these labels: ``experiments.curve_row`` decodes each
    latent of the trace here afterwards. Defaults to two frames spanning the
    cycle (first and mid), keeping per-record evaluation cost bounded.
    """
    if frames is None:
        frames = (0, volume.num_frames // 2) if volume.num_frames > 1 else (0,)
    # ground truth exists even where unobserved
    batch = make_batch(replace(volume, mask=None), sorted(set(frames)))
    return batch.coords, batch.labels
