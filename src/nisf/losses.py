"""Training and inference objectives.

Training total (per batch):

    bce_seg + dice_seg + alpha * bce_recon
        + lambda_theta_phi * ||model params||^2 + lambda_h * ||h||^2

Inference total (frozen model, latent-only fitting):

    bce_recon + lambda_h * ||h||^2

The multi-class segmentation BCE is applied per class against one-hot
targets: sum over classes, mean over points. Dice is the soft
(probability-valued) formulation averaged over foreground classes only;
background dominates voxel counts and would mask structure errors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError

DICE_EPS = 1e-6


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 10.0
    lambda_theta_phi: float = 1e-6
    lambda_h: float = 1e-4

    def __post_init__(self):
        # written so that NaN fails: every comparison with NaN is False
        if not all(np.isfinite(w) and w >= 0
                   for w in (self.alpha, self.lambda_theta_phi, self.lambda_h)):
            raise ContractError("loss weights must be finite and nonnegative")


@dataclass(frozen=True)
class LossReport:
    """Scalar component values of one loss evaluation.

    ``total`` always equals bce_seg + dice_seg + alpha*bce_recon
    + lambda_theta_phi*l2_params + lambda_h*l2_latent with the weights it
    was built under; components excluded from an objective are stored as
    0.0 (they are never computed, not computed-then-masked).
    """

    total: float
    bce_seg: float
    dice_seg: float
    bce_recon: float
    l2_params: float
    l2_latent: float

    @classmethod
    def csv_fields(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    def csv_row(self) -> list[str]:
        return [repr(getattr(self, name)) for name in self.csv_fields()]


class LossTerms:
    """Differentiable loss with per-component tensors.

    ``total`` is the scalar to call backward on; ``report()`` snapshots
    component floats for logging.
    """

    def __init__(self, total: Tensor, bce_seg: Tensor | None, dice_seg: Tensor | None,
                 bce_recon: Tensor, l2_params: Tensor | None, l2_latent: Tensor):
        self.total = total
        self.bce_seg = bce_seg
        self.dice_seg = dice_seg
        self.bce_recon = bce_recon
        self.l2_params = l2_params
        self.l2_latent = l2_latent

    def report(self) -> LossReport:
        def val(t: Tensor | None) -> float:
            return 0.0 if t is None else t.item()

        return LossReport(total=self.total.item(), bce_seg=val(self.bce_seg),
                          dice_seg=val(self.dice_seg), bce_recon=self.bce_recon.item(),
                          l2_params=val(self.l2_params), l2_latent=val(self.l2_latent))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels [B] to one-hot float rows [B, num_classes]."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(f"labels outside [0,{num_classes})")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _as_target(t, like: Tensor) -> Tensor:
    tt = t if isinstance(t, Tensor) else Tensor(np.asarray(t, dtype=like.dtype))
    if ad._grad_slot(tt) is not None:
        raise ContractError("targets must not be differentiated by the active tape")
    return tt


def bce(pred: Tensor, target) -> Tensor:
    """Mean over elements of -[t*log p + (1-t)*log(1-p)].

    ``pred`` must lie strictly inside (0,1) (sigmoid/softmax outputs do;
    the log clamp guards the extremes). ``target`` in [0,1].
    """
    t = _as_target(target, pred)
    if t.shape != pred.shape:
        raise DimensionError(f"bce shapes differ: pred {pred.shape}, target {t.shape}")
    if t.size and (t.values.min() < 0.0 or t.values.max() > 1.0):
        raise ContractError("bce targets must lie in [0,1]")
    pos = ad.mul(t, ad.log(pred))
    neg = ad.mul(ad.sub(1.0, t), ad.log(ad.sub(1.0, pred)))
    return ad.mul(ad.reduce_mean(ad.add(pos, neg)), -1.0)


def dice_loss(seg_probs: Tensor, target_onehot) -> Tensor:
    """1 - mean over foreground classes of (2*sum(p*t)+eps)/(sum p + sum t + eps).

    Soft formulation: ``seg_probs`` are probabilities, not hard labels.
    Background (class 0) is excluded from the mean. Targets must be
    exactly one-hot rows.
    """
    t = _as_target(target_onehot, seg_probs)
    if seg_probs.ndim != 2 or t.shape != seg_probs.shape:
        raise DimensionError(f"dice_loss needs matching [B,M], got {seg_probs.shape} "
                             f"and {t.shape}")
    num_classes = seg_probs.shape[1]
    if num_classes < 2:
        raise DimensionError("dice_loss needs at least 2 classes")
    tv = t.values
    if not (np.all((tv == 0.0) | (tv == 1.0)) and np.all(tv.sum(axis=1) == 1.0)):
        raise ContractError("dice_loss targets must be one-hot rows")

    inter = ad.reduce_sum(ad.mul(seg_probs, t), axis=0)
    psum = ad.reduce_sum(seg_probs, axis=0)
    tsum = ad.reduce_sum(t, axis=0)
    score = ad.div(ad.add(ad.mul(inter, 2.0), DICE_EPS),
                   ad.add(ad.add(psum, tsum), DICE_EPS))
    fg = np.zeros(num_classes, dtype=seg_probs.dtype)
    fg[1:] = 1.0
    fg_mean = ad.div(ad.reduce_sum(ad.mul(score, Tensor(fg))), float(num_classes - 1))
    return ad.sub(1.0, fg_mean)


def training_loss(seg_probs: Tensor, intensity: Tensor, labels, intensity_targets,
                  params: list[Tensor], latent: Tensor,
                  weights: LossWeights) -> LossTerms:
    """Joint objective from precomputed forward outputs.

    ``labels``: integer class ids [B];
    ``intensity_targets``: values in [0,1], shape [B] or [B,1].
    """
    onehot = one_hot(labels, seg_probs.shape[1])
    targets = np.asarray(intensity_targets, dtype=intensity.dtype).reshape(intensity.shape)

    bce_seg = ad.mul(bce(seg_probs, onehot), float(seg_probs.shape[1]))
    dice_seg = dice_loss(seg_probs, onehot)
    bce_recon = bce(intensity, targets)
    l2_params = ad.sum_squares(params)
    l2_latent = ad.sum_squares([latent])
    total = ad.add(ad.add(bce_seg, dice_seg), ad.mul(bce_recon, weights.alpha))
    total = ad.add(total, ad.mul(l2_params, weights.lambda_theta_phi))
    total = ad.add(total, ad.mul(l2_latent, weights.lambda_h))
    return LossTerms(total, bce_seg, dice_seg, bce_recon, l2_params, l2_latent)


def inference_loss(intensity: Tensor, intensity_targets, latent: Tensor,
                   lambda_h: float) -> LossTerms:
    """Reconstruction-only objective: bce_recon + lambda_h * ||h||^2."""
    targets = np.asarray(intensity_targets, dtype=intensity.dtype).reshape(intensity.shape)
    bce_recon = bce(intensity, targets)
    l2_latent = ad.sum_squares([latent])
    total = ad.add(bce_recon, ad.mul(l2_latent, lambda_h))
    return LossTerms(total, None, None, bce_recon, None, l2_latent)


def train_loss(model, h: Tensor, coords, intensity_targets, seg_labels,
               weights: LossWeights) -> LossTerms:
    """Joint objective evaluated through a model forward pass."""
    seg, intensity = model.forward(coords, h)
    return training_loss(seg, intensity, seg_labels, intensity_targets,
                         model.parameters(), h, weights)
