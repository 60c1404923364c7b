"""Plain-numpy reference for the field network and the joint training loss.

Written straight from the model's documented architecture, with no tape,
no chunking and no per-op checks, so the benchmark can tell a fast but
wrong program from a correct one. Everything is float64.
"""

from __future__ import annotations

import numpy as np

# Max abs difference allowed between the program and this reference on
# probabilities and intensities. Both run the same float64 products, so the
# only differences come from BLAS blocking over different row counts
# (observed below 1e-13); 1e-9 leaves room for that and still catches
# any perturbation of the outputs.
FIELD_ATOL = 1e-9
# Relative difference allowed on the scalar training loss at step 0.
LOSS_RTOL = 1e-9

LOG_EPS = 1e-12
DICE_EPS = 1e-6


def _params(model) -> dict[str, np.ndarray]:
    return {name: np.asarray(t.values, dtype=np.float64) for name, t in model.params.items()}


def field_forward(model, latent, coords) -> tuple[np.ndarray, np.ndarray]:
    """(seg_probs [B,M], intensity [B]) of ``model`` at ``coords`` [B,4]."""
    cfg = model.config
    p = _params(model)
    coords = np.asarray(coords, dtype=np.float64)
    h = np.asarray(latent, dtype=np.float64).reshape(1, -1)
    x = np.concatenate([coords, np.repeat(h, coords.shape[0], axis=0)], axis=1)
    x = x @ p["w_in"] + p["b_in"]
    for i in range(cfg.num_res_layers):
        pre = x @ p[f"res{i}_w1"] + p[f"res{i}_b1"]
        psi = np.cos(cfg.gabor_omega0 * pre) * np.exp(-(cfg.gabor_s0 * pre) ** 2)
        x = x + (psi @ p[f"res{i}_w2"] + p[f"res{i}_b2"])
    logits = x @ p["w_seg"] + p["b_seg"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    intensity = 1.0 / (1.0 + np.exp(-(x @ p["w_int"] + p["b_int"])[:, 0]))
    return probs, intensity


def _bce(pred: np.ndarray, target: np.ndarray) -> float:
    return float(-np.mean(target * np.log(np.maximum(pred, LOG_EPS))
                          + (1.0 - target) * np.log(np.maximum(1.0 - pred, LOG_EPS))))


def training_loss(model, latent, coords, intensities, labels, alpha: float,
                  lambda_theta_phi: float, lambda_h: float) -> float:
    """bce_seg + dice_seg + alpha*bce_recon + L2 priors, as the losses module defines it."""
    probs, intensity = field_forward(model, latent, coords)
    num_classes = probs.shape[1]
    onehot = np.zeros_like(probs)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    bce_seg = num_classes * _bce(probs, onehot)
    score = ((2.0 * (probs * onehot).sum(axis=0) + DICE_EPS)
             / (probs.sum(axis=0) + onehot.sum(axis=0) + DICE_EPS))
    dice_seg = 1.0 - float(score[1:].mean())
    bce_recon = _bce(intensity, np.asarray(intensities, dtype=np.float64).reshape(-1))
    l2_params = sum(float(np.sum(v * v)) for v in _params(model).values())
    h = np.asarray(latent, dtype=np.float64)
    return (bce_seg + dice_seg + alpha * bce_recon
            + lambda_theta_phi * l2_params + lambda_h * float(np.sum(h * h)))


def field_mismatch(model, latent, coords, probs, intensity) -> float:
    """Max abs difference between program outputs and the reference at ``coords``."""
    ref_probs, ref_intensity = field_forward(model, latent, coords)
    return max(float(np.max(np.abs(ref_probs - probs))),
               float(np.max(np.abs(ref_intensity - intensity))))
