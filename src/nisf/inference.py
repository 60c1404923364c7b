"""Latent-only inference on unseen subjects.

Each step's tape differentiates only a fresh latent, drawn from
N(0, 1e-4) and optimized against the intensity reconstruction objective
alone; the model's weights are read, never moved. Segmentations are
then decoded from the fitted latent: the bet is that a latent explaining
the image also lands where the segmentation head is accurate.

Early stopping uses a step count selected on validation subjects, not a
per-subject criterion: at inference time there is no ground truth to
monitor, so the only honest knob is how long to optimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, NumericalError
from .losses import bce, inference_loss
from .metrics import dice
from .model import FieldModel
from .optim import Adam
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
    """Recorded optimization history: step 0 plus every cadence-th step."""

    steps: list[int] = field(default_factory=list)
    recon_loss: list[float] = field(default_factory=list)
    latent_norm: list[float] = field(default_factory=list)
    dice_mean: list[float] = field(default_factory=list)       # empty without analysis
    dice_per_class: list[tuple] = field(default_factory=list)

    def append(self, step: int, recon: float, norm: float,
               dice: tuple | None = None) -> None:
        if self.steps and step <= self.steps[-1]:
            raise ContractError("trace steps must be strictly increasing")
        if not (np.isfinite(recon) and np.isfinite(norm)):
            raise NumericalError(f"non-finite trace entry at step {step}")
        self.steps.append(step)
        self.recon_loss.append(recon)
        self.latent_norm.append(norm)
        if dice is not None:
            self.dice_per_class.append(tuple(dice))
            self.dice_mean.append(float(np.mean(dice)))

    @property
    def has_dice(self) -> bool:
        return len(self.dice_mean) == len(self.steps) and bool(self.steps)

    def csv_header(self) -> str:
        cols = ["step", "recon_loss", "latent_norm"]
        if self.has_dice:
            cols += [f"dice_class{i + 1}" for i in range(len(self.dice_per_class[0]))]
            cols += ["dice_mean"]
        return ",".join(cols)

    def csv_rows(self) -> list[str]:
        rows = []
        for i, step in enumerate(self.steps):
            cells = [str(step), repr(self.recon_loss[i]), repr(self.latent_norm[i])]
            if self.has_dice:
                cells += [repr(v) for v in self.dice_per_class[i]]
                cells += [repr(self.dice_mean[i])]
            rows.append(",".join(cells))
        return rows


def _in_chunks(head, model: FieldModel, h, coords: np.ndarray) -> list:
    """``head(chunk, h)`` of a frozen ``h`` over consecutive chunks of ``coords``.

    A chunk holds two trunk tiles per trunk worker, 2·W·``block_rows``
    rows (4096 rows at width 128 and W = 2; see ``autodiff.gabor_trunk``);
    the heads run on the calling thread. On a 2-vCPU AVX-512 Xeon
    (OpenBLAS 0.3.31 on 2 threads, W = 2), ``evaluate_points`` over 32,768
    points took 582-589 ms with one tile per worker per call, 516-538 ms
    with two and 504-537 ms with four (medians of 7).
    """
    chunk = 2 * ad.TRUNK_WORKERS * ad.block_rows(model.config.hidden_width)
    coords = np.asarray(coords, dtype=np.float64)
    h_t = Tensor(h.values if isinstance(h, Tensor) else np.asarray(h))
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
                 config: InferConfig, analysis: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Tensor, InferenceTrace]:
    """Fit a fresh latent to intensity observations; the model never moves.

    ``analysis`` optionally supplies (eval_coords, eval_labels) so the
    trace records Dice over the run; the optimization itself never sees
    labels. The trace always records the full-observation reconstruction
    BCE, even when steps draw subsampled batches.
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
    rng = np.random.default_rng(np.random.SeedSequence([_STREAM_INIT, config.seed]))
    h = Tensor(rng.normal(0.0, INFER_INIT_SIGMA, size=model.config.latent_dim), name="h")
    adam = Adam({"latent": h}, lr=config.lr_infer)
    sample_rng = np.random.default_rng(np.random.SeedSequence([_STREAM_SAMPLE, config.seed]))
    num_points = coords.shape[0]

    trace = InferenceTrace()

    def record(step: int) -> None:
        # the reconstruction reads the intensity head alone, in evaluate_points' chunks
        chunks = _in_chunks(model.intensity, model, h, coords)
        inten = np.concatenate([t.values[:, 0] for t in chunks])
        recon = bce(Tensor(inten), intensities[:, 0]).item()
        norm = float(np.sqrt(np.sum(h.values * h.values)))
        dice_vals = None
        if analysis is not None:
            eval_coords, eval_labels = analysis
            pred, _, _ = evaluate_points(model, h, eval_coords)
            num_classes = model.config.num_classes
            dice_vals = tuple(dice(pred, eval_labels, c) for c in range(1, num_classes))
        trace.append(step, recon, norm, dice_vals)

    steps_to_run = config.steps_to_run
    record(0)
    for step in range(1, steps_to_run + 1):
        if config.points_per_step is not None and config.points_per_step < num_points:
            idx = sample_rng.choice(num_points, size=config.points_per_step, replace=False)
            step_coords, step_targets = coords[idx], intensities[idx]
        else:
            step_coords, step_targets = coords, intensities
        with Tape(wrt=[h]) as tape:
            terms = inference_loss(model.intensity(step_coords, h), step_targets, h,
                                   config.lambda_h)
            tape.backward(terms.total)
        adam.step()
        adam.reset_grads()
        if step % config.record_cadence == 0 or step == steps_to_run:
            record(step)

    if model.checksum() != checksum_before:
        raise ContractError("model parameters changed during inference")
    return h, trace


def select_early_stop_steps(traces: list[InferenceTrace]) -> int:
    """Step count maximizing the mean validation Dice; ties break smaller.

    All traces must carry Dice on an identical step grid.
    """
    if not traces:
        raise ContractError("early-stop selection needs at least one trace")
    grid = traces[0].steps
    for tr in traces:
        if not tr.has_dice:
            raise ContractError("early-stop selection needs Dice in every trace")
        if tr.steps != grid:
            raise ContractError("early-stop selection needs identical step grids")
    mean_curve = np.mean([tr.dice_mean for tr in traces], axis=0)
    best = int(np.argmax(mean_curve))  # argmax returns the first (smallest) maximizer
    return grid[best]


def analysis_points(volume: VolumeSample, frames: tuple[int, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(coords, true labels) for trace Dice, from ground-truth frames.

    Defaults to two frames spanning the cycle (first and mid), keeping
    per-record evaluation cost bounded.
    """
    if frames is None:
        frames = (0, volume.num_frames // 2) if volume.num_frames > 1 else (0,)
    # ground truth exists even where unobserved
    batch = make_batch(replace(volume, mask=None), sorted(set(frames)))
    return batch.coords, batch.labels
