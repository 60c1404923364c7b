"""The three benchmark workloads: ``overfit``, ``infer`` and ``query``.

Each workload derives all of its inputs from the run seed and an
operation-unit index, so the same seed gives the same inputs. The
program only ever sees the generated phantoms, network and latents.

A workload has three parts, all driven by ``run.py``:

* ``setup()`` builds what every unit shares (the network file and its
  read-back) plus unit 0's inputs; the runner times it as ``setup_s``.
* ``prepare(i)`` builds unit ``i``'s inputs; the runner calls it for
  every later unit, outside the clock.
* ``unit(i)`` runs one timed unit of work and returns a ``Unit`` with
  its wall times, the operations it attempted and the outputs to check.
* ``check(unit)`` compares those outputs against ``reference.py`` and the
  program's own invariants, outside the clock; it returns the problems.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from nisf import experiments, inference, metrics, phantom, sampling
from nisf.losses import LossWeights
from nisf.model import FieldModel, ModelConfig

import reference

DESK = experiments.DeskScaleConfig()
# Infer: steps per subject fit, under one desk record interval (50), so a
# fit records at step 0 and at its last step. A desk-length fit (hundreds of
# steps) does not fit the run's time budget; records therefore take about
# twice the desk pipeline's share of fit time.
INFER_STEPS = 40
# Overfit: criterion 3's problem, cut from 1500 steps to this many per unit.
OVERFIT_STEPS = 10
# The overfit loss must fall below this share of its step-0 value within a
# unit of OVERFIT_STEPS.
OVERFIT_LOSS_FALL = 0.5
# Query: a grid at twice the voxel density in-plane and through-plane
# (65,536 points, 4 chunks of 16,384) and four oblique planes at the desk
# plane size (72x48 = 3,456 points, under one chunk each).
GRID_COUNTS = (64, 64, 16, 1)
PLANE_TILTS_DEG = (15.0, 35.0, 55.0, 75.0)
# Rows per call compared against the reference forward.
CHECK_ROWS = 256
# Softmax rows must sum to 1 within this (float64 rounding over 4 classes).
PROB_SUM_ATOL = 1e-12


@dataclass(frozen=True)
class Scale:
    """Sizes the workloads run at; the smoke test shrinks them."""

    model: ModelConfig = field(default_factory=ModelConfig)
    overfit_steps: int = OVERFIT_STEPS
    overfit_loss_fall: float = OVERFIT_LOSS_FALL
    infer_steps: int = INFER_STEPS
    grid_counts: tuple[int, int, int, int] = GRID_COUNTS
    plane_tilts_deg: tuple[float, ...] = PLANE_TILTS_DEG


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    wall: float        # seconds from the unit's inputs to its scored outputs
    steps: int         # optimizer steps, or query calls, in the unit
    attempted: int     # operations counted into fail_frac
    rows: int          # coordinates the network was asked for in ``step_wall``
    step_wall: float   # seconds of the steps (the infer_latent call for infer)
    outputs: dict = field(default_factory=dict)


def _seeds(tag: int, seed: int, index: int, count: int) -> list[int]:
    state = np.random.SeedSequence([tag, seed, index]).generate_state(count, dtype=np.uint64)
    return [int(s >> np.uint64(2)) for s in state]


def _subsample(rows: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([0xC4EC, seed, rows]))
    return np.sort(rng.choice(rows, size=min(CHECK_ROWS, rows), replace=False))


def _field_problems(model, latent, coords, probs, intensity, labels, seed, what) -> list[str]:
    """Reference agreement on a subsample, rows summing to 1, labels = argmax."""
    probs = probs.reshape(-1, probs.shape[-1])
    coords = coords.reshape(-1, coords.shape[-1])
    intensity = intensity.reshape(-1)
    problems = []
    idx = _subsample(coords.shape[0], seed)
    err = reference.field_mismatch(model, latent, coords[idx], probs[idx], intensity[idx])
    if not err <= reference.FIELD_ATOL:
        problems.append(f"{what}: differs from the reference forward by {err:.3g}")
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_ATOL):
        problems.append(f"{what}: probability rows do not sum to 1")
    if not np.array_equal(labels.reshape(-1), np.argmax(probs, axis=1)):
        problems.append(f"{what}: labels are not the argmax of the probabilities")
    return problems


def _write_and_read(model: FieldModel, workdir: str) -> FieldModel:
    path = os.path.join(workdir, "network.nmod")
    model.save(path)
    return FieldModel.load(path)


class Overfit:
    """Criterion 3: joint training on one 16x16x4x4 phantom, full batch."""

    def __init__(self, seed: int, scale: Scale, workdir: str, tracer):
        self.seed, self.scale = seed, scale
        self.inputs: dict[int, dict] = {}
        self.ops = scale.overfit_steps

    def config(self, i: int) -> experiments.OverfitConfig:
        subject_seed, seed = _seeds(0x0F, self.seed, i, 2)
        return replace(experiments.OverfitConfig(), steps=self.scale.overfit_steps,
                       subject_seed=subject_seed, seed=seed, model=self.scale.model)

    def prepare(self, i: int) -> None:
        """The unit's phantom, batch and initial network, for the reference check."""
        cfg = self.config(i)
        _, vol = phantom.generate_subject(cfg.subject_seed, grid_shape=cfg.grid_shape,
                                          spacing=cfg.spacing, subject_id="overfit")
        coords, intensities, labels = [], [], []
        for t in range(vol.num_frames):
            b = inference.make_batch(vol, t)
            coords.append(b.coords)
            intensities.append(b.intensities)
            labels.append(b.labels)
        # run_overfit draws its latent from this stream.
        rng = np.random.default_rng(np.random.SeedSequence([0x0F17, cfg.seed]))
        latent = rng.normal(0.0, 0.1, size=cfg.model.latent_dim)
        self.inputs[i] = {"cfg": cfg, "model": FieldModel.init(cfg.model, seed=cfg.seed),
                          "latent": latent, "coords": np.concatenate(coords),
                          "intensities": np.concatenate(intensities),
                          "labels": np.concatenate(labels)}

    def setup(self) -> None:
        self.inputs.clear()
        self.prepare(0)

    def unit(self, i: int) -> Unit:
        cfg = self.inputs[i]["cfg"]
        t0 = time.perf_counter()
        result = experiments.run_overfit(cfg)
        wall = time.perf_counter() - t0
        rows = cfg.steps * self.inputs[i]["coords"].shape[0]
        return Unit(wall=wall, steps=cfg.steps, attempted=cfg.steps, rows=rows,
                    step_wall=wall, outputs={"i": i, "result": result})

    def check(self, unit: Unit) -> list[str]:
        i, result = unit.outputs["i"], unit.outputs["result"]
        inp = self.inputs.pop(i)
        w = LossWeights()
        want = reference.training_loss(inp["model"], inp["latent"], inp["coords"],
                                       inp["intensities"], inp["labels"], w.alpha,
                                       w.lambda_theta_phi, w.lambda_h)
        problems = []
        if not abs(result.initial_loss - want) <= reference.LOSS_RTOL * abs(want):
            problems.append(f"step-0 loss {result.initial_loss!r} != reference {want!r}")
        if not result.final_loss < self.scale.overfit_loss_fall * result.initial_loss:
            problems.append(f"loss fell only from {result.initial_loss:.4g} "
                            f"to {result.final_loss:.4g}")
        idx = _subsample(inp["coords"].shape[0], i)
        coords = inp["coords"][idx]
        labels, probs, intensity = inference.evaluate_points(inp["model"], inp["latent"], coords)
        problems += _field_problems(inp["model"], inp["latent"], coords, probs, intensity,
                                    labels, i, "initial network")
        return problems


class Infer:
    """The desk test_eval per-subject loop on unseen 32x32x8x10 phantoms."""

    def __init__(self, seed: int, scale: Scale, workdir: str, tracer):
        self.seed, self.scale, self.workdir, self.tracer = seed, scale, workdir, tracer
        self.subjects: dict[int, object] = {}
        self.ops = scale.infer_steps + 1  # the steps and the subject fit

    def prepare(self, i: int) -> None:
        (subject_seed,) = _seeds(0x1F, self.seed, i, 1)
        _, self.subjects[i] = phantom.generate_subject(
            subject_seed, grid_shape=DESK.grid_shape, spacing=DESK.spacing,
            subject_id=f"s{i:04d}")

    def setup(self) -> None:
        (model_seed,) = _seeds(0x2F, self.seed, 0, 1)
        self.model = _write_and_read(FieldModel.init(self.scale.model, seed=model_seed),
                                     self.workdir)
        self.checksum = self.model.checksum()
        self.subjects.clear()
        self.prepare(0)

    def unit(self, i: int) -> Unit:
        subject = self.subjects.pop(i)
        (infer_seed,) = _seeds(0x3F, self.seed, i, 1)
        cfg = replace(DESK.infer_config(self.scale.infer_steps), seed=infer_seed)
        t0 = time.perf_counter()
        coords, intensities = inference.full_observations(subject)
        with self.tracer.span("bench.fit"):
            f0 = time.perf_counter()
            h, trace = inference.infer_latent(self.model, coords, intensities, cfg)
            fit_wall = time.perf_counter() - f0
        eval_coords, eval_labels = inference.analysis_points(
            subject, frames=tuple(range(subject.num_frames)))
        labels, probs, intensity = inference.evaluate_points(self.model, h, eval_coords)
        report = metrics.dice_report(labels, eval_labels)
        wall = time.perf_counter() - t0
        steps = cfg.steps_to_run
        return Unit(wall=wall, steps=steps, attempted=steps + 1,
                    rows=steps * min(cfg.points_per_step, coords.shape[0]),
                    step_wall=fit_wall,
                    outputs={"i": i, "h": h.values.copy(), "trace": trace,
                             "coords": eval_coords, "labels": labels, "probs": probs,
                             "intensity": intensity, "dice": report.mean})

    def check(self, unit: Unit) -> list[str]:
        out = unit.outputs
        trace = out["trace"]
        problems = []
        if self.model.checksum() != self.checksum:
            problems.append("network checksum changed during inference")
        if not trace.recon_loss[-1] < trace.recon_loss[0]:
            problems.append(f"reconstruction BCE did not fall: {trace.recon_loss[0]:.6g} "
                            f"-> {trace.recon_loss[-1]:.6g}")
        if not np.isfinite(out["dice"]):
            problems.append("non-finite Dice")
        problems += _field_problems(self.model, out["h"], out["coords"], out["probs"],
                                    out["intensity"], out["labels"], out["i"], "decode")
        return problems


class Query:
    """Frozen-field grid and oblique-plane queries beside the NN baseline."""

    def __init__(self, seed: int, scale: Scale, workdir: str, tracer):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.subjects: dict[int, tuple] = {}
        self.ops = 1 + len(scale.plane_tilts_deg)  # the grid and each plane

    def prepare(self, i: int) -> None:
        subject_seed, t_seed = _seeds(0x4F, self.seed, i, 2)
        spec, vol = phantom.generate_subject(subject_seed, grid_shape=DESK.grid_shape,
                                             spacing=DESK.spacing, subject_id=f"q{i:04d}")
        t = float(np.random.default_rng(t_seed).uniform(0.0, 1.0))
        self.subjects[i] = (spec, vol, t)

    def setup(self) -> None:
        model_seed, latent_seed = _seeds(0x5F, self.seed, 0, 2)
        self.model = _write_and_read(FieldModel.init(self.scale.model, seed=model_seed),
                                     self.workdir)
        # A latent at the prior's scale; query cost does not depend on its values.
        self.latent = np.random.default_rng(latent_seed).normal(
            0.0, 0.1, size=self.scale.model.latent_dim)
        self.subjects.clear()
        self.prepare(0)

    def _score(self, vol, pred_labels, oracle, query) -> None:
        _, nn_labels, inside = sampling.nearest_neighbor_resample(vol, query)
        keep = inside.reshape(-1)
        metrics.dice_report(pred_labels.reshape(-1)[keep], oracle.reshape(-1)[keep])
        metrics.dice_report(nn_labels.reshape(-1)[keep], oracle.reshape(-1)[keep])

    def unit(self, i: int) -> Unit:
        spec, vol, t = self.subjects.pop(i)
        grid_spec = sampling.GridSpec(counts=self.scale.grid_counts,
                                      ranges=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (t, t)))
        t0 = time.perf_counter()
        grid = sampling.sample_grid(self.model, self.latent, grid_spec)
        grid_coords = grid_spec.coords()
        oracle = spec.label_at(vol.norm_to_mm(grid_coords[..., :3]), t)
        self._score(vol, grid.labels, oracle, grid_spec)
        planes = []
        for tilt in self.scale.plane_tilts_deg:
            plane_spec = experiments.oblique_plane_spec(vol, tilt, DESK.plane_extent_mm,
                                                        DESK.plane_counts, t)
            plane = sampling.sample_plane(self.model, self.latent, plane_spec)
            self._score(vol, plane.labels, spec.label_at(plane_spec.pixel_mm(), t),
                        plane_spec)
            planes.append(plane)
        wall = time.perf_counter() - t0
        calls = 1 + len(planes)
        rows = grid.labels.size + sum(p.labels.size for p in planes)
        return Unit(wall=wall, steps=calls, attempted=calls, rows=rows, step_wall=wall,
                    outputs={"i": i, "t": t, "grid": grid, "grid_coords": grid_coords,
                             "planes": planes})

    def check(self, unit: Unit) -> list[str]:
        out = unit.outputs
        grid = out["grid"]
        problems = _field_problems(self.model, self.latent, out["grid_coords"], grid.probs,
                                   grid.intensity, grid.labels, out["i"], "grid")
        for k, plane in enumerate(out["planes"]):
            nu, nv = plane.labels.shape
            coords = np.concatenate([plane.coords_norm.reshape(-1, 3),
                                     np.full((nu * nv, 1), out["t"])], axis=1)
            problems += _field_problems(self.model, self.latent, coords, plane.probs,
                                        plane.intensity, plane.labels, out["i"] + k,
                                        f"plane {k}")
            labels, _, _ = inference.evaluate_points(self.model, self.latent, coords)
            if not np.array_equal(labels, plane.labels.reshape(-1)):
                problems.append(f"plane {k}: labels differ from evaluate_points")
        return problems


WORKLOADS = {"overfit": Overfit, "infer": Infer, "query": Query}
