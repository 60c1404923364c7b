"""Desk-scale experiment pipeline: dataset, prior, validation, evaluation.

The full pipeline (train a prior on 60 phantoms, select an early-stop
step count on 10 validation subjects, evaluate 20 unseen test subjects,
run the held-out-slice and oblique-plane comparisons) takes on the order
of an hour of single-core compute, so every stage is cached on disk
keyed by a hash of the experiment config. Tests and scripts share the
cache: the first caller pays, everyone else loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .inference import (InferConfig, ValidationResult, analysis_points, evaluate_points,
                        full_observations, infer_latent, select_early_stop_steps,
                        validate_prior)
from .losses import LossWeights, train_loss
from .metrics import DiceReport, aggregate, dice_report
from .model import FieldModel, ModelConfig
from .optim import Adam, select_trainables
from .phantom import (DEFAULT_GRID_SHAPE, DEFAULT_SPACING, PhantomSpec, generate_dataset,
                      generate_subject)
from .sampling import (GridSpec, PlaneSpec, nearest_neighbor_resample,
                       predict_heldout_slice, sample_grid, sample_plane)
from .serial import config_dict, config_hash, write_json_atomic
from .training import (LATENT_PRIOR_SIGMA, TrainConfig, latest_checkpoint,
                       load_checkpoint, make_batch, train_prior)
from .volume import SPLITS, VolumeSample

DEFAULT_CACHE_ROOT = ".acceptance_cache"
CACHE_KEY_CHARS = 16  # hex digits of a config hash in a cache directory name


# ---------------------------------------------------------------------------
# configs


@dataclass(frozen=True)
class DeskScaleConfig:
    """Everything the desk-scale generalization experiment depends on."""

    dataset_seed: int = 11
    train_subjects: int = 60
    val_subjects: int = 10
    test_subjects: int = 20
    grid_shape: tuple[int, int, int, int] = DEFAULT_GRID_SHAPE
    spacing: tuple[float, float, float] = DEFAULT_SPACING
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        model=ModelConfig(), epochs=150, lr_prior=1e-3, seed=23,
        weights=LossWeights(), checkpoint_every=50, log_every=10))
    infer_max_steps: int = 1200
    infer_lr: float = 1e-3
    infer_lambda_h: float = 1e-4
    infer_cadence: int = 50
    infer_points: int = 8192
    infer_seed: int = 97
    heldout_slice: int = 5
    plane_tilt_deg: float = 35.0
    plane_extent_mm: tuple[float, float] = (90.0, 60.0)
    plane_counts: tuple[int, int] = (72, 48)

    def infer_config(self, selected_steps: int | None = None) -> InferConfig:
        return InferConfig(max_steps=self.infer_max_steps, selected_steps=selected_steps,
                           lr_infer=self.infer_lr, lambda_h=self.infer_lambda_h,
                           seed=self.infer_seed, record_cadence=self.infer_cadence,
                           points_per_step=self.infer_points)

    def to_dict(self) -> dict:
        return config_dict(self)

    def content_hash(self) -> str:
        return config_hash(self.to_dict(), CACHE_KEY_CHARS)


# ---------------------------------------------------------------------------
# dataset construction (in memory; the gen-data CLI writes the on-disk form)


def build_splits(cfg: DeskScaleConfig) -> dict[str, list[VolumeSample]]:
    """Deterministic train/val/test phantom sets with disjoint ids."""
    splits: dict[str, list[VolumeSample]] = {split: [] for split in SPLITS}
    counts = (cfg.train_subjects, cfg.val_subjects, cfg.test_subjects)
    for split, _, vol in generate_dataset(cfg.dataset_seed, counts,
                                          grid_shape=cfg.grid_shape, spacing=cfg.spacing):
        splits[split].append(vol)
    return splits


def oblique_plane_spec(volume: VolumeSample, tilt_deg: float,
                       extent_mm: tuple[float, float], counts: tuple[int, int],
                       t: float = 0.0) -> PlaneSpec:
    """A long-axis-style plane through the LV center, tilted about y.

    The in-plane u direction mixes x and z, so sampling it crosses the
    sparse 10 mm slice direction: exactly where nearest-neighbor
    resampling staircases and a continuous field does not.
    """
    if volume.phantom is None:
        raise ContractError("oblique plane evaluation needs the generator geometry")
    spec = PhantomSpec.from_dict(volume.phantom)
    span = tuple((volume.shape[a] - 1) * volume.spacing[a] for a in range(3))
    origin_norm = tuple(spec.lv_center[a] / span[a] for a in range(3))
    rad = float(np.deg2rad(tilt_deg))
    dir1 = (float(np.cos(rad)), 0.0, float(np.sin(rad)))
    dir2 = (0.0, 1.0, 0.0)
    return PlaneSpec(origin_norm=origin_norm, dir1_mm=dir1, dir2_mm=dir2,
                     extent_mm=extent_mm, counts=counts, t=t, span_mm=span)


# ---------------------------------------------------------------------------
# cached pipeline


class DeskScaleRun:
    """Handle to one cached experiment instance."""

    def __init__(self, cfg: DeskScaleConfig, cache_root: str = DEFAULT_CACHE_ROOT,
                 log=None):
        self.cfg = cfg
        self.dir = os.path.join(cache_root, f"desk_{cfg.content_hash()}")
        os.makedirs(self.dir, exist_ok=True)
        self._log = log or (lambda msg: None)
        self._splits: dict[str, list[VolumeSample]] | None = None
        config_path = os.path.join(self.dir, "config.json")
        if not os.path.exists(config_path):
            write_json_atomic(config_path, cfg.to_dict())

    # -- shared pieces --------------------------------------------------

    def splits(self) -> dict[str, list[VolumeSample]]:
        if self._splits is None:
            self._log("generating phantom splits")
            self._splits = build_splits(self.cfg)
        return self._splits

    def _json_stage(self, name: str, builder) -> dict:
        path = os.path.join(self.dir, name)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                return json.load(f)
        t0 = time.monotonic()
        self._log(f"running stage {name}")
        result = builder()
        result["elapsed_seconds"] = round(time.monotonic() - t0, 3)
        write_json_atomic(path, result)
        return result

    # -- stage 1: prior -------------------------------------------------

    def model(self) -> FieldModel:
        ckpt = latest_checkpoint(self.dir)
        if ckpt is None or _ckpt_epochs(ckpt) < self.cfg.train.epochs:
            self._log("training prior" + (" (resuming)" if ckpt else ""))
            result = train_prior(self.splits()["train"], self.cfg.train,
                                 out_dir=self.dir, resume_from=ckpt)
            return result.model
        model, _, _, _, _ = load_checkpoint(ckpt)
        model.set_trainable(False)
        return model

    # -- stage 2: validation curve + early stop --------------------------

    def validation(self) -> dict:
        def build() -> dict:
            model = self.model()
            model.set_trainable(False)
            result: ValidationResult = validate_prior(model, self.splits()["val"],
                                                      self.cfg.infer_config())
            return {"steps": result.steps,
                    "mean_dice": [float(v) for v in result.mean_dice],
                    "per_subject": [list(map(float, tr.dice_mean)) for tr in result.traces],
                    "recon_per_subject": [list(map(float, tr.recon_loss))
                                          for tr in result.traces],
                    "selected_steps": result.selected_steps}

        return self._json_stage("validation.json", build)

    def selected_steps(self) -> int:
        return int(self.validation()["selected_steps"])

    def longrun(self) -> dict:
        """Validation curve again, but with a step budget of four times the
        selected count, to expose the rise-then-decline shape."""
        def build() -> dict:
            model = self.model()
            model.set_trainable(False)
            budget = 4 * self.selected_steps()
            cfg = replace(self.cfg.infer_config(), max_steps=budget,
                          selected_steps=None, seed=self.cfg.infer_seed + 5)
            result = validate_prior(model, self.splits()["val"], cfg)
            return {"budget": budget,
                    "steps": result.steps,
                    "mean_dice": [float(v) for v in result.mean_dice],
                    "argmax_steps": result.selected_steps}

        return self._json_stage("longrun.json", build)

    # -- stage 3: test-set inference -------------------------------------

    def test_eval(self) -> dict:
        def build() -> dict:
            model = self.model()
            model.set_trainable(False)
            selected = self.selected_steps()
            subjects = self.splits()["test"]
            rows = []
            latents = {}
            for i, subject in enumerate(subjects):
                cfg = replace(self.cfg.infer_config(selected),
                              seed=self.cfg.infer_seed + 777 * (i + 1))
                coords, intensities = full_observations(subject)
                h, trace = infer_latent(model, coords, intensities, cfg)
                latents[subject.subject_id] = h.values.copy()
                eval_coords, eval_labels = analysis_points(
                    subject, frames=tuple(range(subject.num_frames)))
                pred_labels, _, pred_intensity = evaluate_points(model, h, eval_coords)
                report = dice_report(pred_labels, eval_labels)
                truth = np.concatenate([subject.intensity[:, :, :, t].reshape(-1)
                                        for t in range(subject.num_frames)])
                mae = float(np.mean(np.abs(pred_intensity - truth)))
                rows.append({"id": subject.subject_id,
                             "dice_per_class": list(report.per_class),
                             "dice_mean": report.mean,
                             "recon_mae": mae,
                             "final_recon_bce": trace.recon_loss[-1],
                             "seed": cfg.seed})
                self._log(f"test {subject.subject_id}: dice={report.mean:.4f}")
            _save_latents(os.path.join(self.dir, "test_latents.npz"), latents)
            mean_report = aggregate([DiceReport(classes=("lv_pool", "lv_myocardium",
                                                         "rv_pool"),
                                                per_class=tuple(r["dice_per_class"]),
                                                mean=r["dice_mean"]) for r in rows])
            return {"subjects": rows, "selected_steps": selected,
                    "aggregate": mean_report.to_dict()}

        return self._json_stage("test_eval.json", build)

    def test_latents(self) -> dict[str, np.ndarray]:
        self.test_eval()
        return _load_latents(os.path.join(self.dir, "test_latents.npz"))

    # -- stage 4: held-out slice ------------------------------------------

    def heldout(self) -> dict:
        def build() -> dict:
            model = self.model()
            model.set_trainable(False)
            selected = self.selected_steps()
            rows = []
            for i, subject in enumerate(self.splits()["test"]):
                cfg = replace(self.cfg.infer_config(selected),
                              seed=self.cfg.infer_seed + 3331 * (i + 1))
                rep = predict_heldout_slice(model, subject, self.cfg.heldout_slice, cfg)
                rows.append({"id": subject.subject_id,
                             "model_mean": rep.dice_model.mean,
                             "baseline_mean": rep.dice_baseline.mean,
                             "model_per_class": list(rep.dice_model.per_class),
                             "baseline_per_class": list(rep.dice_baseline.per_class),
                             "recon_mae": rep.recon.mae})
                self._log(f"heldout {subject.subject_id}: model={rep.dice_model.mean:.4f} "
                          f"baseline={rep.dice_baseline.mean:.4f}")
            wins = sum(r["model_mean"] > r["baseline_mean"] for r in rows)
            return {"slice_index": self.cfg.heldout_slice, "subjects": rows,
                    "win_fraction": wins / len(rows)}

        return self._json_stage("heldout.json", build)

    # -- stage 5: oblique plane -------------------------------------------

    def oblique(self) -> dict:
        def build() -> dict:
            model = self.model()
            model.set_trainable(False)
            latents = self.test_latents()
            rows = []
            for subject in self.splits()["test"]:
                spec = oblique_plane_spec(subject, self.cfg.plane_tilt_deg,
                                          self.cfg.plane_extent_mm, self.cfg.plane_counts)
                phantom = PhantomSpec.from_dict(subject.phantom)
                oracle = phantom.label_at(spec.pixel_mm(), spec.t)
                pred = sample_plane(model, latents[subject.subject_id], spec)
                _, nn_labels, inside = nearest_neighbor_resample(subject, spec)
                keep = inside.reshape(-1)
                model_report = dice_report(pred.labels.reshape(-1)[keep],
                                           oracle.reshape(-1)[keep])
                nn_report = dice_report(nn_labels.reshape(-1)[keep],
                                        oracle.reshape(-1)[keep])
                rows.append({"id": subject.subject_id,
                             "model_mean": model_report.mean,
                             "baseline_mean": nn_report.mean,
                             "model_per_class": list(model_report.per_class),
                             "baseline_per_class": list(nn_report.per_class)})
                self._log(f"oblique {subject.subject_id}: model={model_report.mean:.4f} "
                          f"baseline={nn_report.mean:.4f}")
            wins = sum(r["model_mean"] > r["baseline_mean"] for r in rows)
            return {"tilt_deg": self.cfg.plane_tilt_deg, "subjects": rows,
                    "win_fraction": wins / len(rows)}

        return self._json_stage("oblique.json", build)

    def run_all(self) -> dict:
        """Execute every stage (or load it) and return the summary dict."""
        self.model()
        summary = {"config_hash": self.cfg.content_hash(),
                   "validation": self.validation(),
                   "longrun": self.longrun(),
                   "test_eval": self.test_eval(),
                   "heldout": self.heldout(),
                   "oblique": self.oblique()}
        return summary


def _ckpt_epochs(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("ckpt_epoch"):-len(".nckpt")])


def _save_latents(path: str, latents: dict[str, np.ndarray]) -> None:
    np.savez(path, **latents)


def code_fingerprint() -> str:
    """SHA-256 over the package's ``.py`` sources, file by file in sorted order.

    A cached record stamped with a different fingerprint was computed by
    other code and is recomputed rather than served.
    """
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(pkg, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _load_latents(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k].copy() for k in data.files}


# ---------------------------------------------------------------------------
# single-subject overfit experiment


@dataclass(frozen=True)
class OverfitConfig:
    steps: int = 1500
    grid_shape: tuple[int, int, int, int] = (16, 16, 4, 4)
    spacing: tuple[float, float, float] = (4.0, 4.0, 10.0)
    subject_seed: int = 5
    seed: int = 3
    lr: float = 1e-3
    model: ModelConfig = field(default_factory=ModelConfig)

    def to_dict(self) -> dict:
        return config_dict(self)

    def content_hash(self) -> str:
        return config_hash(self.to_dict(), CACHE_KEY_CHARS)


@dataclass
class OverfitResult:
    initial_loss: float
    final_loss: float
    recon_mae_frame0: float
    losses: list[float]


def run_overfit(cfg: OverfitConfig = OverfitConfig()) -> OverfitResult:
    """Drive the joint loss down on a single small phantom.

    Every step uses the full observation set (all frames), so each
    logged value is the exact total training loss, not a one-frame
    estimate. MAE is measured against the stored (noisy) intensities of
    frame 0.
    """
    _, vol = generate_subject(cfg.subject_seed, grid_shape=cfg.grid_shape,
                              spacing=cfg.spacing, subject_id="overfit")
    parts = [make_batch(vol, t) for t in range(vol.num_frames)]
    coords = np.concatenate([b.coords for b in parts])
    intensities = np.concatenate([b.intensities for b in parts])
    labels = np.concatenate([b.labels for b in parts])

    model = FieldModel.init(cfg.model, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([0x0F17, cfg.seed]))
    h = ad.Tensor(rng.normal(0.0, LATENT_PRIOR_SIGMA, size=cfg.model.latent_dim),
                  requires_grad=True, name="h")
    opt = Adam(select_trainables("prior_training", model, h), lr=cfg.lr)
    weights = LossWeights()

    losses = []
    for _ in range(cfg.steps):
        with ad.Tape() as tape:
            terms = train_loss(model, h, coords, intensities, labels, weights)
            tape.backward(terms.total)
        opt.step()
        opt.reset_grads()
        losses.append(terms.report().total)

    model.set_trainable(False)
    spec = GridSpec.matching_volume(vol, t_index=0)
    sampled = sample_grid(model, h, spec)
    mae = float(np.mean(np.abs(sampled.intensity[:, :, :, 0] - vol.intensity[:, :, :, 0])))
    return OverfitResult(initial_loss=losses[0], final_loss=losses[-1],
                         recon_mae_frame0=mae, losses=losses)


def cached_overfit(cfg: OverfitConfig = OverfitConfig(),
                   cache_root: str = DEFAULT_CACHE_ROOT) -> dict:
    """Load the overfit record for ``cfg``, running it if absent or stale.

    The recorded elapsed time is from the real run, so the cache never
    hides how long the experiment actually takes. Each record carries the
    ``code_fingerprint`` of the code that computed it; a record without
    one, or with another, is recomputed and replaced.
    """
    out_dir = os.path.join(cache_root, f"overfit_{cfg.content_hash()}")
    path = os.path.join(out_dir, "overfit.json")
    fingerprint = code_fingerprint()
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            record = json.load(f)
        if record.get("code_fingerprint") == fingerprint:
            return record
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    res = run_overfit(cfg)
    record = {"config": cfg.to_dict(),
              "code_fingerprint": fingerprint,
              "initial_loss": res.initial_loss,
              "final_loss": res.final_loss,
              "loss_ratio": res.final_loss / res.initial_loss,
              "recon_mae_frame0": res.recon_mae_frame0,
              "elapsed_seconds": round(time.monotonic() - t0, 3),
              "losses": res.losses}
    write_json_atomic(path, record)
    return record
