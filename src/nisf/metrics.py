"""Evaluation metrics: hard-label Dice, reconstruction error, aggregation.

Dice here is the evaluation-time overlap of argmax label masks; the
differentiable soft version lives with the objectives. Background is
excluded from reports: it dominates voxel counts and would drown the
structure scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .volume import CLASS_NAMES


def dice(pred_labels, true_labels, class_id: int) -> float:
    """2|A n B| / (|A| + |B|) for one class.

    Both masks empty counts as a correct prediction (1.0); exactly one
    empty scores 0.0.
    """
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise DimensionError(f"label shapes differ: {pred.shape} vs {true.shape}")
    a = pred == class_id
    b = true == class_id
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / (na + nb)


@dataclass(frozen=True)
class DiceReport:
    """Foreground Dice scores; optionally aggregated over subjects.

    ``mean`` is always the arithmetic mean of ``per_class``. For
    aggregated reports (n > 1), per_class holds per-class means over
    subjects and the *_std fields hold population standard deviations
    (n denominator).
    """

    classes: tuple[str, ...]
    per_class: tuple[float, ...]
    mean: float
    n: int = 1
    per_class_std: tuple[float, ...] | None = None
    mean_std: float | None = None

    def to_dict(self) -> dict:
        out = {"classes": list(self.classes), "per_class": list(self.per_class),
               "mean": self.mean, "n": self.n}
        if self.per_class_std is not None:
            out["per_class_std"] = list(self.per_class_std)
            out["mean_std"] = self.mean_std
        return out

    def table(self) -> str:
        """Human-readable per-class summary."""
        lines = []
        for i, name in enumerate(self.classes):
            row = f"{name:16s} {self.per_class[i]:.4f}"
            if self.per_class_std is not None:
                row += f" +/- {self.per_class_std[i]:.4f}"
            lines.append(row)
        row = f"{'mean':16s} {self.mean:.4f}"
        if self.mean_std is not None:
            row += f" +/- {self.mean_std:.4f}"
        lines.append(row + (f"   (n={self.n})" if self.n > 1 else ""))
        return "\n".join(lines)


def dice_report(pred_labels, true_labels,
                class_names: tuple[str, ...] = CLASS_NAMES) -> DiceReport:
    """Per-foreground-class Dice (classes 1..M-1) for one subject."""
    scores = tuple(dice(pred_labels, true_labels, c) for c in range(1, len(class_names)))
    return DiceReport(classes=tuple(class_names[1:]), per_class=scores,
                      mean=float(np.mean(scores)))


def aggregate(reports: list[DiceReport]) -> DiceReport:
    """Population mean +/- std per class over single-subject reports."""
    if not reports:
        raise ContractError("aggregate needs at least one report")
    classes = reports[0].classes
    if any(r.classes != classes for r in reports):
        raise ContractError("aggregate needs class-aligned reports")
    if any(r.n != 1 for r in reports):
        raise ContractError("aggregate takes single-subject reports")
    table = np.array([r.per_class for r in reports], dtype=np.float64)  # [n, C]
    per_class = tuple(float(v) for v in table.mean(axis=0))
    per_class_std = tuple(float(v) for v in table.std(axis=0))
    subject_means = table.mean(axis=1)
    return DiceReport(classes=classes, per_class=per_class,
                      mean=float(np.mean(per_class)), n=len(reports),
                      per_class_std=per_class_std,
                      mean_std=float(subject_means.std()))


def reconstruction_mae(pred_intensity, true_intensity) -> float:
    """Mean absolute error between two intensity arrays of one shape in [0,1]."""
    pred = np.asarray(pred_intensity, dtype=np.float64)
    true = np.asarray(true_intensity, dtype=np.float64)
    if pred.shape != true.shape:
        raise DimensionError(f"intensity shapes differ: {pred.shape} vs {true.shape}")
    for name, arr in (("pred", pred), ("true", true)):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ContractError(f"{name} intensities outside [0,1]")
    return float(np.mean(np.abs(pred - true)))
