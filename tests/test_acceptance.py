"""The ten headline guarantees, one test per numbered criterion.

Criteria 4-7 read the cached desk-scale experiment; build it first with

    python3 scripts/run_desk_scale.py

(those four tests skip with instructions when the cache is absent).
Criterion 3 runs (or loads) the single-phantom overfit, which is bounded
at ten minutes by its own acceptance clause. Everything else is
self-contained and fast.
"""

import math
import os
import time

import numpy as np
import pytest

from nisf import autodiff as ad
from nisf.experiments import (STAGES, DeskScaleConfig, DeskScaleRun, OverfitConfig,
                              cached_overfit)
from nisf.gradcheck import run_model_check, run_op_checks
from nisf.inference import InferConfig, evaluate_points, full_observations, infer_latent
from nisf.losses import (LossWeights, bce, dice_loss, inference_loss, one_hot,
                         train_loss)
from nisf.model import FieldModel, ModelConfig
from nisf.optim import Adam, fit_step
from nisf.phantom import generate_subject
from nisf.sampling import nn_lookup
from nisf.training import (LatentTable, TrainConfig, latest_checkpoint,
                           load_checkpoint, train_prior)
from nisf.volume import VolumeSample, load_volume, normalize_index, save_volume
from oracles import brute_force_nn, voxel_centers_mm

CACHE_ROOT = os.path.join(os.path.dirname(__file__), "..", ".acceptance_cache")
TINY = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8)


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def desk():
    run = DeskScaleRun(DeskScaleConfig(), cache_root=CACHE_ROOT)
    missing = [f"{stage}.json" for stage in STAGES
               if not os.path.exists(os.path.join(run.dir, f"{stage}.json"))]
    if missing or latest_checkpoint(run.dir) is None:
        unserved = "".join(f"; {path} was computed by other numerics, not served"
                           for path in run.other_numerics())
        pytest.skip(f"desk-scale cache incomplete ({missing or 'no checkpoint'}){unserved}; "
                    f"run: python3 scripts/run_desk_scale.py")
    return run


def _micro_subjects(n=3, seed0=21):
    subjects = []
    for i in range(n):
        _, vol = generate_subject(seed0 + i, grid_shape=(8, 8, 2, 2),
                                  spacing=(2.0, 2.0, 10.0), subject_id=f"m{i}")
        subjects.append(vol)
    return subjects


def _micro_config(epochs, ckpt_every=0, seed=13):
    return TrainConfig(model=TINY, epochs=epochs, lr_prior=1e-3, seed=seed,
                       weights=LossWeights(), checkpoint_every=ckpt_every,
                       log_every=1)


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    ops = run_op_checks(seed=0)
    full = run_model_check(seed=0)
    elapsed = time.monotonic() - t0
    ok = ops.passed and full.passed and elapsed < 30.0
    _line(1, ok, f"per-op max rel err {ops.max_rel_err:.2e} (tol 1e-6), "
                 f"joint-loss max rel err {full.max_rel_err:.2e} (tol 1e-4), "
                 f"{elapsed:.1f}s")
    assert ops.passed, f"per-op gradient failures:\n" + "\n".join(ops.lines())
    assert full.passed, f"joint-loss gradient failures:\n" + "\n".join(full.lines())
    assert ops.max_rel_err < 1e-6
    assert full.max_rel_err < 1e-4
    assert elapsed < 30.0


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_loss_identities():
    val = bce(ad.Tensor(np.array([0.5])), np.array([1.0])).item()
    d_bce = abs(val - math.log(2.0))

    onehot = one_hot(np.array([0, 1, 2, 3, 1]), 4)
    d_dice = abs(dice_loss(ad.Tensor(onehot.copy()), onehot).item())

    model = FieldModel.init(TINY, seed=2)
    rng = np.random.default_rng(3)
    coords = rng.uniform(size=(17, 4))
    intensities = rng.uniform(0.02, 0.98, size=17)
    labels = rng.integers(0, 4, size=17)
    h = ad.Tensor(rng.normal(scale=0.1, size=TINY.latent_dim))
    weights = LossWeights()
    report = train_loss(model, h, coords, intensities, labels, weights).report
    rebuilt = (report.bce_seg + report.dice_seg + weights.alpha * report.bce_recon
               + weights.lambda_theta_phi * report.l2_params
               + weights.lambda_h * report.l2_latent)
    d_total = abs(report.total - rebuilt)

    inf = inference_loss(model.intensity(coords, h), intensities, h, 1e-4).total.item()
    restricted_weights = LossWeights(alpha=1.0, lambda_theta_phi=0.0, lambda_h=1e-4)
    restricted = train_loss(model, h, coords, intensities, labels, restricted_weights).report
    restriction = restricted.bce_recon + restricted_weights.lambda_h * restricted.l2_latent
    d_restrict = abs(inf - restriction)

    ok = d_bce <= 1e-9 and d_dice <= 1e-6 and d_total <= 1e-9 and d_restrict <= 1e-12
    _line(2, ok, f"bce(0.5,1)-ln2={d_bce:.1e}, dice(perfect)={d_dice:.1e}, "
                 f"total-rebuild={d_total:.1e}, infer-vs-restriction={d_restrict:.1e}")
    assert d_bce <= 1e-9
    assert d_dice <= 1e-6
    assert d_total <= 1e-9
    assert d_restrict <= 1e-12


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_single_subject_overfit():
    record = cached_overfit(OverfitConfig(), cache_root=CACHE_ROOT)
    ratio = record["loss_ratio"]
    mae = record["recon_mae_frame0"]
    steps = len(record["losses"])
    elapsed = record["elapsed_seconds"]
    ok = ratio <= 0.10 and mae <= 0.05 and steps <= 2000 and elapsed < 600.0
    _line(3, ok, f"{steps} steps, loss {record['initial_loss']:.3f} -> "
                 f"{record['final_loss']:.3f} (ratio {ratio:.4f}), "
                 f"frame-0 MAE {mae:.4f}, {elapsed:.0f}s")
    assert steps <= 2000
    assert ratio <= 0.10, f"loss only fell to {ratio:.3f} of initial"
    assert mae <= 0.05
    assert elapsed < 600.0


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_prior_generalization(desk):
    test = desk.test_eval()
    mean = test["aggregate"]["mean"]
    n = len(test["subjects"])

    with open(os.path.join(desk.dir, "train_log.csv")) as f:
        train_seconds = float(f.read().splitlines()[-1].split(",")[-1])
    budget = (train_seconds + desk.validation()["elapsed_seconds"]
              + test["elapsed_seconds"])
    ok = mean >= 0.80 and n == 20 and budget <= 12 * 3600
    _line(4, ok, f"mean foreground dice {mean:.4f} over {n} unseen subjects "
                 f"(target 0.80); train+val+test compute {budget/3600:.2f}h "
                 f"(cap 12h)")
    assert n == 20
    assert budget <= 12 * 3600
    assert mean >= 0.80, f"mean test dice {mean:.4f} below the 0.80 desk target"


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_early_stopping_shape(desk):
    long = desk.longrun()
    selected = desk.selected_steps()
    steps = long["steps"]
    dice = long["mean_dice"]
    budget = long["budget"]
    peak = max(dice)
    peak_step = steps[dice.index(peak)]
    ok = (budget == 4 * selected and peak_step < budget and dice[-1] < peak)
    _line(5, ok, f"selected {selected}, budget {budget}; dice peaks {peak:.4f} "
                 f"at step {peak_step}, ends {dice[-1]:.4f}")
    assert budget == 4 * selected
    assert steps[-1] == budget
    assert peak_step < budget, "validation dice still at its max at budget end"
    assert dice[-1] < peak, "dice did not decline by the 4x budget"


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_heldout_slice(desk):
    held = desk.heldout()
    wins = held["win_fraction"]
    rows = held["subjects"]
    ok = wins >= 0.80
    _line(6, ok, f"slice {held['slice_index']}: model beats copy-nearest-slice "
                 f"on {wins:.0%} of {len(rows)} subjects (need 80%)")
    assert wins >= 0.80, [f"{r['id']}: {r['model_mean']:.3f} vs "
                          f"{r['baseline_mean']:.3f}" for r in rows]


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_oblique_plane(desk):
    obl = desk.oblique()
    wins = obl["win_fraction"]
    ok = wins >= 0.80
    _line(7, ok, f"{obl['tilt_deg']:.0f} degree plane: model beats NN resampling "
                 f"on {wins:.0%} of {len(obl['subjects'])} subjects (need 80%)")
    assert wins >= 0.80, [f"{r['id']}: {r['model_mean']:.3f} vs "
                          f"{r['baseline_mean']:.3f}" for r in obl["subjects"]]


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_frozen_weights_and_isolation():
    # (a) inference may not move the model
    _, vol = generate_subject(31, grid_shape=(6, 6, 2, 2), spacing=(4.0, 4.0, 10.0))
    model = FieldModel.init(TINY, seed=4)
    before = model.checksum()
    coords, intensities = full_observations(vol)
    infer_latent(model, coords, intensities, InferConfig(steps_to_run=3, seed=1))
    frozen_ok = model.checksum() == before

    # (b) one training step touches exactly one latent row
    model2 = FieldModel.init(TINY, seed=5)
    table = LatentTable(["a", "b", "c"], TINY.latent_dim, seed=6, lr=1e-3)
    snapshot = {k: v.values.copy() for k, v in table.rows.items()}
    h_b = table.rows["b"]
    opt = Adam({**{n: model2.params[n] for n in model2.param_names()}, "latent": h_b},
               lr=1e-3)
    rng = np.random.default_rng(7)
    fit_step([opt], lambda: train_loss(model2, h_b, rng.uniform(size=(12, 4)),
                                       rng.uniform(0.1, 0.9, size=12),
                                       rng.integers(0, 4, size=12), LossWeights()))
    row_ok = (np.array_equal(table.rows["a"].values, snapshot["a"])
              and np.array_equal(table.rows["c"].values, snapshot["c"])
              and not np.array_equal(table.rows["b"].values, snapshot["b"]))

    # (c) softmax rows sum to 1 over a million queries
    h = ad.Tensor(np.random.default_rng(8).normal(scale=0.1, size=TINY.latent_dim))
    pts = np.random.default_rng(9).uniform(size=(1_000_000, 4))
    _, probs, _ = evaluate_points(model, h, pts)
    max_dev = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    softmax_ok = max_dev <= 1e-9

    ok = frozen_ok and row_ok and softmax_ok
    _line(8, ok, f"checksum stable: {frozen_ok}; only sampled row moved: {row_ok}; "
                 f"softmax sum dev {max_dev:.1e} over 1e6 queries")
    assert frozen_ok, "inference changed the model checksum"
    assert row_ok, "a training step leaked into other subjects' latents"
    assert softmax_ok


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_determinism_and_persistence(tmp_path):
    subjects = _micro_subjects()

    # (a) bit-identical fixed-seed training
    ck_dir = str(tmp_path / "ck")
    os.makedirs(ck_dir)
    r1 = train_prior(subjects, _micro_config(epochs=2), out_dir=ck_dir)
    r2 = train_prior(subjects, _micro_config(epochs=2))
    det_ok = all(np.array_equal(r1.model.params[n].values, r2.model.params[n].values)
                 for n in r1.model.param_names())
    det_ok = det_ok and np.array_equal(r1.table.matrix(), r2.table.matrix())

    # (b) checkpoint and volume round-trips are bit-exact
    m2, t2, _, _, _ = load_checkpoint(r1.final_checkpoint, _micro_config(epochs=2),
                                      [s.subject_id for s in subjects])
    ckpt_ok = all(np.array_equal(r1.model.params[n].values, m2.params[n].values)
                  for n in r1.model.param_names())
    ckpt_ok = ckpt_ok and np.array_equal(r1.table.matrix(), t2.matrix())

    vpath = str(tmp_path / "v.nvol")
    save_volume(subjects[0], vpath)
    back = load_volume(vpath)
    vol_ok = (back.intensity.tobytes() == subjects[0].intensity.tobytes()
              and back.labels.tobytes() == subjects[0].labels.tobytes())

    # (c) resumed training matches uninterrupted training
    full = train_prior(subjects, _micro_config(epochs=4))
    part_dir = str(tmp_path / "part")
    os.makedirs(part_dir)
    train_prior(subjects, _micro_config(epochs=2, ckpt_every=2), out_dir=part_dir)
    resumed = train_prior(subjects, _micro_config(epochs=4, ckpt_every=2),
                          out_dir=part_dir,
                          resume_from=latest_checkpoint(part_dir))
    resume_ok = all(np.array_equal(full.model.params[n].values,
                                   resumed.model.params[n].values)
                    for n in full.model.param_names())
    resume_ok = resume_ok and np.array_equal(full.table.matrix(),
                                             resumed.table.matrix())

    ok = det_ok and ckpt_ok and vol_ok and resume_ok
    _line(9, ok, f"fixed-seed bit-identical: {det_ok}; checkpoint round-trip: "
                 f"{ckpt_ok}; volume round-trip: {vol_ok}; "
                 f"resume==uninterrupted: {resume_ok}")
    assert det_ok and ckpt_ok and vol_ok and resume_ok


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_oracle_equivalences():
    # (a) fast nearest neighbor == brute force, anisotropic, with exact ties
    rng = np.random.default_rng(17)
    mismatch = 0
    checked = 0
    for shape, spacing in [((16, 16, 16, 1), (1.0, 1.0, 1.0)),
                           ((16, 12, 9, 2), (1.5, 2.0, 7.0)),
                           ((5, 4, 3, 2), (2.0, 3.0, 10.0))]:
        intensity = rng.uniform(size=shape)
        labels = rng.integers(0, 4, size=shape).astype(np.uint8)
        vol = VolumeSample(f"o{shape[0]}", intensity, labels, spacing)
        hull = [(shape[a] - 1) * spacing[a] for a in range(3)]
        pts = rng.uniform(-2.0, max(hull) + 2.0, size=(300, 3))
        # exact half-way ties between voxel centers on every axis
        for axis in range(3):
            pts[axis * 20:(axis + 1) * 20, axis] = spacing[axis] / 2.0
        for t in range(shape[3]):
            fast = nn_lookup(vol, pts, t)
            slow = brute_force_nn(vol, pts, t)
            checked += pts.shape[0]
            for f, s in zip(fast, slow):
                mismatch += int(not np.array_equal(f, s))
    nn_ok = mismatch == 0

    # (b) rendered labels equal the analytic oracle at every voxel center
    label_fail = 0
    for seed in (3, 44):
        spec, vol = generate_subject(seed, grid_shape=(12, 12, 4, 3),
                                     spacing=(4.0, 4.0, 10.0))
        xs, ys, zs = voxel_centers_mm(vol)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        flat = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        for t in range(vol.num_frames):
            oracle = spec.label_at(flat, normalize_index(t, vol.num_frames)).reshape(12, 12, 4)
            label_fail += int(not np.array_equal(oracle, vol.labels[:, :, :, t]))
    label_ok = label_fail == 0

    ok = nn_ok and label_ok
    _line(10, ok, f"NN == brute force on {checked} queries ({mismatch} mismatches); "
                  f"stored labels == analytic oracle: {label_ok}")
    assert nn_ok
    assert label_ok
