"""Desk-scale experiment pipeline: dataset, prior, validation, evaluation.

The full pipeline trains a prior on 60 phantoms, then runs the five
per-subject stages of ``STAGES``: the validation curve and its early-stop
selection on 10 subjects, the same curve over four times the selected
budget, and three comparisons on 20 unseen test subjects (test-set Dice,
the held-out slice and the oblique plane). Sequentially that is several
hours of compute (an estimate from per-step timings on a 2-vCPU machine,
not a measured run: about 3.1 h at 600 selected steps, 4.7 h at 1200), so
every stage is cached on disk. The cache directory's name is the key: a
hash of the experiment config and the ``numerics_digest`` of the code
that computes the stages. A stored file is served exactly when it exists,
and results computed by other numerics sit under another key, never read
and never overwritten; ``DeskScaleRun.other_numerics`` names them. Tests
and scripts share the cache: the first caller pays, everyone else loads.
The single-subject overfit record is keyed the same way by
``code_fingerprint``.

This module is the only one that knows the protocols, and the only one
that scores a fit against labels: ``inference`` fits on intensities alone.
Each stage applies a row function (``curve_row``, ``eval_row``,
``heldout_row`` or ``oblique_row``) to every subject of its split through
one loop, ``DeskScaleRun._rows``, and assembles its file from the rows.
"""

from __future__ import annotations

import ast
import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .inference import (InferConfig, analysis_points, evaluate_points, full_observations,
                        infer_latent)
from .losses import LossWeights, inference_loss, train_loss
from .metrics import DiceReport, aggregate, dice_report, reconstruction_mae
from .model import FieldModel, ModelConfig
from .optim import Adam, fit_step
from .phantom import (DEFAULT_GRID_SHAPE, DEFAULT_SPACING, PhantomSpec, generate_dataset,
                      generate_subject)
from .sampling import (GridSpec, PlaneSpec, nearest_neighbor_resample, sample_grid,
                       sample_plane)
from .serial import config_dict, config_hash, digest, write_json_atomic
from .training import (LATENT_PRIOR_SIGMA, TrainConfig, latest_checkpoint,
                       load_checkpoint, train_prior)
from .volume import CLASS_NAMES, SPLITS, VolumeSample, drop_slices, make_batch, normalize_index

DEFAULT_CACHE_ROOT = ".acceptance_cache"
CACHE_KEY_CHARS = 16  # hex digits of each hash in a cache directory name

# The per-subject stages in run order; each is a ``DeskScaleRun`` method
# that writes ``<stage>.json``.
STAGES = ("validation", "longrun", "test_eval", "heldout", "oblique")


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

    def infer_config(self, steps: int | None = None) -> InferConfig:
        """The fit settings for ``steps`` steps, ``infer_max_steps`` if None."""
        return InferConfig(steps_to_run=self.infer_max_steps if steps is None else steps,
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
    span = volume.span_mm
    origin_norm = tuple(spec.lv_center[a] / span[a] for a in range(3))
    rad = float(np.deg2rad(tilt_deg))
    dir1 = (float(np.cos(rad)), 0.0, float(np.sin(rad)))
    dir2 = (0.0, 1.0, 0.0)
    return PlaneSpec(origin_norm=origin_norm, dir1_mm=dir1, dir2_mm=dir2,
                     extent_mm=extent_mm, counts=counts, t=t, span_mm=span)


# ---------------------------------------------------------------------------
# per-subject protocols: each returns the row its stage file holds


def curve_row(model: FieldModel, subject: VolumeSample, cfg: InferConfig) -> dict:
    """Dice and reconstruction curves of one validation fit over ``cfg``'s steps.

    The fit sees intensities only. Afterwards each recorded latent is
    decoded on ``analysis_points`` and scored against their labels.
    """
    coords, intensities = full_observations(subject)
    _, trace = infer_latent(model, coords, intensities, cfg)
    eval_coords, eval_labels = analysis_points(subject)
    dice_mean = [dice_report(evaluate_points(model, h, eval_coords)[0], eval_labels).mean
                 for h in trace.latents]
    return {"steps": trace.steps, "dice_mean": dice_mean, "recon_loss": trace.recon_loss}


def curve_summary(rows: list[dict]) -> dict:
    """Mean Dice curve over ``curve_row`` rows and the step count it peaks at.

    This is the early-stop selection: the first maximum of the mean curve,
    so a tie goes to the smaller step. Every row must hold a Dice value at
    each step of one shared grid.
    """
    if not rows:
        raise ContractError("a curve summary needs at least one curve")
    grid = rows[0]["steps"]
    if any(row["steps"] != grid or len(row["dice_mean"]) != len(grid) for row in rows):
        raise ContractError("curves must share one step grid")
    mean_curve = np.mean([row["dice_mean"] for row in rows], axis=0)
    return {"steps": grid, "mean_dice": [float(v) for v in mean_curve],
            "selected_steps": grid[int(np.argmax(mean_curve))]}


def eval_row(model: FieldModel, subject: VolumeSample, cfg: InferConfig) -> dict:
    """Fit one test subject and score it on every voxel of every frame.

    Labels and intensities are scored against the truth of the same rows
    they are decoded at. The row holds the fitted latent too, as a list of
    floats: JSON's float repr reads back as the same float64.
    """
    coords, intensities = full_observations(subject)
    h, trace = infer_latent(model, coords, intensities, cfg)
    voxels = make_batch(replace(subject, mask=None))  # ground truth exists where unobserved
    pred_labels, _, pred_intensity = evaluate_points(model, h, voxels.coords)
    report = dice_report(pred_labels, voxels.labels)
    return {"id": subject.subject_id,
            "dice_per_class": list(report.per_class),
            "dice_mean": report.mean,
            "recon_mae": reconstruction_mae(pred_intensity, voxels.intensities[:, 0]),
            "final_recon_bce": trace.recon_loss[-1],
            "seed": cfg.seed,
            "latent": h.values.tolist()}


def copy_nearest_slice_labels(volume: VolumeSample, slice_index: int) -> np.ndarray:
    """Baseline: labels of the nearest observed z slice, copied in place.

    Nearest by index distance among slices not equal to the held-out one;
    ties toward the lower index.
    """
    gz = volume.shape[2]
    candidates = [z for z in range(gz) if z != slice_index]
    if not candidates:
        raise ContractError("cannot copy-fill a volume with a single slice")
    donor = min(candidates, key=lambda z: (abs(z - slice_index), z))
    return volume.labels[:, :, donor, :]


def heldout_row(model: FieldModel, subject: VolumeSample, cfg: InferConfig,
                slice_index: int) -> dict:
    """Fit the latent without one z slice, then predict that slice.

    Scores the prediction against ground truth on the held-out slice
    only (all frames), next to the copy-nearest-slice baseline.
    """
    reduced = drop_slices(subject, [slice_index])
    coords, intensities = full_observations(reduced)
    # by construction the held-out slice cannot appear in the observations
    z_norm = normalize_index(slice_index, subject.shape[2])
    if np.any(coords[:, 2] == z_norm):
        raise ContractError("held-out slice leaked into the observation set")
    h, _ = infer_latent(model, coords, intensities, cfg)

    gx, gy, _, gt = subject.shape
    full = GridSpec.matching_volume(subject).ranges
    pred = sample_grid(model, h, GridSpec(counts=(gx, gy, 1, gt),
                                          ranges=(full[0], full[1], (z_norm, z_norm), full[3])))
    return {**_versus(subject, subject.labels[:, :, slice_index, :], pred.labels[:, :, 0, :],
                      copy_nearest_slice_labels(subject, slice_index)),
            "recon_mae": reconstruction_mae(np.clip(pred.intensity[:, :, 0, :], 0.0, 1.0),
                                            subject.intensity[:, :, slice_index, :])}


def _plane_truth(volume: VolumeSample, spec: PlaneSpec, keep: np.ndarray) -> np.ndarray:
    """The analytic labels of ``volume``'s phantom at ``spec``'s pixels,
    flattened, on the pixels ``keep`` selects."""
    oracle = PhantomSpec.from_dict(volume.phantom).label_at(spec.pixel_mm(), spec.t)
    return oracle.reshape(-1)[keep]


def plane_dice(volume: VolumeSample, spec: PlaneSpec, model_labels: np.ndarray,
               nn_labels: np.ndarray, inside: np.ndarray) -> tuple[DiceReport, DiceReport]:
    """Dice of a decoded plane and of its nearest-neighbor resampling.

    Both label images are scored against the analytic labels of
    ``volume``'s phantom at ``spec``'s pixels, on the pixels ``inside`` the
    voxel hull only. Returns (model report, baseline report).
    """
    keep = inside.reshape(-1)
    truth = _plane_truth(volume, spec, keep)
    return (dice_report(model_labels.reshape(-1)[keep], truth),
            dice_report(nn_labels.reshape(-1)[keep], truth))


def oblique_row(model: FieldModel, subject: VolumeSample, latents: dict[str, np.ndarray],
                cfg: DeskScaleConfig) -> dict:
    """The oblique plane decoded from the subject's fitted latent, next to
    nearest-neighbor resampling, both scored as ``plane_dice`` scores them."""
    spec = oblique_plane_spec(subject, cfg.plane_tilt_deg, cfg.plane_extent_mm,
                              cfg.plane_counts)
    pred = sample_plane(model, latents[subject.subject_id], spec)
    _, nn_labels, inside = nearest_neighbor_resample(subject, spec)
    keep = inside.reshape(-1)
    return _versus(subject, _plane_truth(subject, spec, keep), pred.labels.reshape(-1)[keep],
                   nn_labels.reshape(-1)[keep])


def _versus(subject: VolumeSample, truth: np.ndarray, model_labels: np.ndarray,
            baseline_labels: np.ndarray) -> dict:
    """Model and baseline labels scored against ``truth``, with the count of
    ``truth``'s pixels per foreground class, in the order of the Dice."""
    model_report = dice_report(model_labels, truth)
    baseline_report = dice_report(baseline_labels, truth)
    return {"id": subject.subject_id,
            "model_mean": model_report.mean,
            "baseline_mean": baseline_report.mean,
            "model_per_class": list(model_report.per_class),
            "baseline_per_class": list(baseline_report.per_class),
            "truth_pixels_per_class": [int(np.count_nonzero(truth == c))
                                       for c in range(1, len(model_report.per_class) + 1)]}


def _win_fraction(rows: list[dict]) -> float:
    return sum(r["model_mean"] > r["baseline_mean"] for r in rows) / len(rows)


# ---------------------------------------------------------------------------
# cached pipeline


class DeskScaleRun:
    """Handle to one cached experiment instance."""

    def __init__(self, cfg: DeskScaleConfig, cache_root: str = DEFAULT_CACHE_ROOT,
                 log=None):
        self.cfg = cfg
        self.dir = os.path.join(cache_root, f"desk_{cfg.content_hash()}_"
                                            f"{numerics_digest()[:CACHE_KEY_CHARS]}")
        os.makedirs(self.dir, exist_ok=True)
        self._log = log or (lambda msg: None)
        self._splits: dict[str, list[VolumeSample]] | None = None
        config_path = os.path.join(self.dir, "config.json")
        if not os.path.exists(config_path):
            write_json_atomic(config_path, cfg.to_dict())

    def other_numerics(self) -> list[str]:
        """The directories of this config under the cache root that another
        numerics digest keys, or none (the key before it held one), and that
        hold a stage file or a checkpoint: results this run never reads."""
        root, own = os.path.split(self.dir)
        prefix = f"desk_{self.cfg.content_hash()}"
        found = []
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if (name != own and (name == prefix or name.startswith(prefix + "_"))
                    and (latest_checkpoint(path) is not None
                         or any(os.path.exists(os.path.join(path, f"{stage}.json"))
                                for stage in STAGES))):
                found.append(path)
        return found

    # -- shared pieces --------------------------------------------------

    def splits(self) -> dict[str, list[VolumeSample]]:
        if self._splits is None:
            self._log("generating phantom splits")
            self._splits = build_splits(self.cfg)
        return self._splits

    def _json_stage(self, name: str, build) -> dict:
        path = os.path.join(self.dir, name)
        if not os.path.exists(path):
            self._log(f"running stage {name}")
        return _cached_record(path, build)

    def _rows(self, split: str, row, fit: InferConfig | None = None,
              stride: int = 0) -> list:
        """``row(model, subject[, cfg])`` for each subject of ``split``, in order.

        ``row`` is a module-level row function or a ``partial`` of one, so it
        pickles.

        With ``fit``, subject i (counting from 0) is fitted under ``fit`` with
        seed ``fit.seed + stride * (i + 1)``, so every subject of every stage
        draws its own streams.
        """
        model = self.model()
        subjects = self.splits()[split]
        rows = []
        for i, subject in enumerate(subjects):
            cfg = () if fit is None else (replace(fit, seed=fit.seed + stride * (i + 1)),)
            rows.append(row(model, subject, *cfg))
            self._log(f"{split} {subject.subject_id} done ({i + 1}/{len(subjects)})")
        return rows

    # -- the prior ------------------------------------------------------

    def model(self) -> FieldModel:
        """The prior, trained (or resumed) first if needed."""
        ckpt = latest_checkpoint(self.dir)
        if ckpt is None or _ckpt_epochs(ckpt) < self.cfg.train.epochs:
            self._log("training prior" + (" (resuming)" if ckpt else ""))
            return train_prior(self.splits()["train"], self.cfg.train,
                               out_dir=self.dir, resume_from=ckpt).model
        return load_checkpoint(ckpt)[0]

    # -- validation curve + early stop ----------------------------------

    def validation(self) -> dict:
        """Dice curves on the validation split and the step count they select.

        Every fit runs all ``infer_max_steps``, so each curve's shape stays
        visible past the eventual selection.
        """
        def build() -> dict:
            rows = self._rows("val", curve_row, self.cfg.infer_config(), 1000)
            return {**curve_summary(rows),
                    "per_subject": [row["dice_mean"] for row in rows],
                    "recon_per_subject": [row["recon_loss"] for row in rows]}

        return self._json_stage("validation.json", build)

    def selected_steps(self) -> int:
        return int(self.validation()["selected_steps"])

    def longrun(self) -> dict:
        """Validation curve again, but with a step budget of four times the
        selected count, to expose the rise-then-decline shape."""
        def build() -> dict:
            budget = 4 * self.selected_steps()
            fit = replace(self.cfg.infer_config(budget), seed=self.cfg.infer_seed + 5)
            curve = curve_summary(self._rows("val", curve_row, fit, 1000))
            return {"budget": budget, "steps": curve["steps"],
                    "mean_dice": curve["mean_dice"], "argmax_steps": curve["selected_steps"]}

        return self._json_stage("longrun.json", build)

    # -- test-set inference ---------------------------------------------

    def test_eval(self) -> dict:
        def build() -> dict:
            selected = self.selected_steps()
            rows = self._rows("test", eval_row, self.cfg.infer_config(selected), 777)
            mean_report = aggregate([DiceReport(classes=CLASS_NAMES[1:],
                                                per_class=tuple(r["dice_per_class"]),
                                                mean=r["dice_mean"]) for r in rows])
            return {"subjects": rows, "selected_steps": selected,
                    "aggregate": mean_report.to_dict()}

        return self._json_stage("test_eval.json", build)

    def test_latents(self) -> dict[str, np.ndarray]:
        return {row["id"]: np.array(row["latent"], dtype=np.float64)
                for row in self.test_eval()["subjects"]}

    # -- held-out slice ---------------------------------------------------

    def heldout(self) -> dict:
        def build() -> dict:
            k = self.cfg.heldout_slice
            rows = self._rows("test", partial(heldout_row, slice_index=k),
                              self.cfg.infer_config(self.selected_steps()), 3331)
            return {"slice_index": k, "subjects": rows, "win_fraction": _win_fraction(rows)}

        return self._json_stage("heldout.json", build)

    # -- oblique plane ----------------------------------------------------

    def oblique(self) -> dict:
        def build() -> dict:
            rows = self._rows("test", partial(oblique_row, latents=self.test_latents(),
                                              cfg=self.cfg))
            return {"tilt_deg": self.cfg.plane_tilt_deg, "subjects": rows,
                    "win_fraction": _win_fraction(rows)}

        return self._json_stage("oblique.json", build)

    def run_all(self) -> dict:
        """Execute every stage (or load it) and return the summary dict."""
        self.model()
        return {"config_hash": self.cfg.content_hash(),
                **{stage: getattr(self, stage)() for stage in STAGES}}


def _ckpt_epochs(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("ckpt_epoch"):-len(".nckpt")])


def code_fingerprint() -> str:
    """``serial.digest`` over the package's ``.py`` modules' code, in sorted
    file order.

    Each module enters as its ``ast.dump`` without module, class and
    function docstrings; comments never reach the AST. So an edit to
    comments or docstrings keeps the fingerprint, and any change to code
    changes it: the overfit record's directory is keyed by it, so a record
    computed by other code is never found, and the overfit runs again.
    """
    pkg = os.path.dirname(os.path.abspath(__file__))
    parts = []
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                node.body = node.body[1:]
        parts.append(f"{name}\0{ast.dump(tree)}\0")
    return digest(*parts)


# two full trunk tiles and a ragged one at the default width
_DIGEST_ROWS = 2 * ad.block_rows(ModelConfig().hidden_width) + 3


@cache
def numerics_digest() -> str:
    """``serial.digest`` over the float bits of a fixed run of the desk
    stages' numerics, once per process; it keys the desk cache.

    At the default width, on batches that span several trunk tiles, the run
    takes a frozen ``evaluate_points`` and the Dice of its labels, a
    ``sample_plane``, a 2-step float32 ``infer_latent`` on sampled points
    with a record at every step, and one float64 ``fit_step`` each on the
    inference loss (the latent alone) and the training loss (every
    parameter and the latent), with their Adam moments and stepped values.
    A change that moves any bit of these numbers changes the digest, and
    its desk results go under another key; a change that keeps every value
    (a refactor or a speed-up) keeps the digest and the stored results.

    The bits depend on the BLAS build and the CPU as well: another one may
    sum products in another order, and then keys its results apart.
    """
    model = FieldModel.init(ModelConfig(), seed=5)
    rng = np.random.default_rng(2051)
    coords = rng.uniform(0.0, 1.0, size=(_DIGEST_ROWS, 4))
    intensities = rng.uniform(0.05, 0.95, size=_DIGEST_ROWS)
    labels = rng.integers(0, 4, size=_DIGEST_ROWS)
    latent = rng.normal(0.0, 0.1, size=model.config.latent_dim)

    decoded = evaluate_points(model, latent, coords)
    plane = sample_plane(model, latent, PlaneSpec(
        origin_norm=(0.5, 0.5, 0.5), dir1_mm=(0.6, 0.8, 0.0), dir2_mm=(0.0, 0.0, 1.0),
        extent_mm=(60.0, 40.0), counts=(45, 46), t=0.3, span_mm=(60.0, 60.0, 40.0)))
    fitted, trace = infer_latent(model, coords, intensities, InferConfig(
        steps_to_run=2, lr_infer=1e-2, seed=7, record_cadence=1, points_per_step=1024))
    parts = [*decoded, dice_report(decoded[0], labels).per_class,
             plane.intensity, plane.labels, plane.probs,
             fitted.values, trace.recon_loss, trace.latents]

    h = ad.Tensor(latent.copy())
    adam = Adam({"latent": h}, lr=1e-3)
    report = fit_step([adam], lambda: inference_loss(model.intensity(coords, h), intensities,
                                                     h, 1e-4))
    parts += [report.total, adam.m["latent"], h.values]

    # last, since it moves the model
    h = ad.Tensor(latent.copy())
    adam = Adam({**{name: model.params[name] for name in model.param_names()}, "latent": h},
                lr=1e-3)
    report = fit_step([adam], lambda: train_loss(model, h, coords, intensities, labels,
                                                 LossWeights()))
    parts += [report.total, *adam.m.values(), *(p.values for p in adam.params.values())]
    return digest(*parts)


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
    batch = make_batch(vol)
    coords, intensities, labels = batch.coords, batch.intensities, batch.labels

    model = FieldModel.init(cfg.model, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence([0x0F17, cfg.seed]))
    h = ad.Tensor(rng.normal(0.0, LATENT_PRIOR_SIGMA, size=cfg.model.latent_dim))
    opt = Adam({**{name: model.params[name] for name in model.param_names()}, "latent": h},
               lr=cfg.lr)
    weights = LossWeights()

    losses = []
    for _ in range(cfg.steps):
        report = fit_step([opt], lambda: train_loss(model, h, coords, intensities, labels,
                                                    weights))
        losses.append(report.total)

    spec = GridSpec.matching_volume(vol, t_index=0)
    sampled = sample_grid(model, h, spec)
    mae = reconstruction_mae(sampled.intensity[:, :, :, 0], vol.intensity[:, :, :, 0])
    return OverfitResult(initial_loss=losses[0], final_loss=losses[-1],
                         recon_mae_frame0=mae, losses=losses)


def cached_overfit(cfg: OverfitConfig = OverfitConfig(),
                   cache_root: str = DEFAULT_CACHE_ROOT) -> dict:
    """Load the overfit record for ``cfg``, running it if absent.

    The record's directory is keyed by ``cfg``'s hash and the
    ``code_fingerprint`` of the code that computes it, so a record computed
    by other code is never read and never overwritten.
    """
    def build() -> dict:
        res = run_overfit(cfg)
        return {"config": cfg.to_dict(),
                "initial_loss": res.initial_loss,
                "final_loss": res.final_loss,
                "loss_ratio": res.final_loss / res.initial_loss,
                "recon_mae_frame0": res.recon_mae_frame0,
                "losses": res.losses}

    key = f"overfit_{cfg.content_hash()}_{code_fingerprint()[:CACHE_KEY_CHARS]}"
    return _cached_record(os.path.join(cache_root, key, "overfit.json"), build)


def _cached_record(path: str, build) -> dict:
    """The JSON record at ``path`` if the file exists, or else ``build()``'s,
    timed and written.

    What computed a record is in ``path``'s key, never in the record. A
    built record gains ``elapsed_seconds``, the build's own wall time, so
    the cache never hides how long the computation takes, and it is written
    atomically.
    """
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = time.monotonic()
    record = build()
    record["elapsed_seconds"] = round(time.monotonic() - t0, 3)
    write_json_atomic(path, record)
    return record
