"""Cached experiment pipeline: stage mechanics on a micro configuration."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from nisf.errors import ContractError
from nisf.experiments import (DeskScaleConfig, DeskScaleRun, OverfitConfig,
                              build_splits, cached_overfit, copy_nearest_slice_labels,
                              curve_row, curve_summary, heldout_row, oblique_plane_spec)
from nisf.inference import (InferConfig, analysis_points, evaluate_points,
                            full_observations, infer_latent)
from nisf.losses import LossWeights
from nisf.metrics import dice_report
from nisf.model import FieldModel, ModelConfig
from nisf.phantom import generate_subject
from nisf.sampling import GridSpec, sample_grid
from nisf.training import TrainConfig, train_prior
from nisf.volume import VolumeSample, degrade, normalize_index

TINY = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8)

MICRO = DeskScaleConfig(
    dataset_seed=3, train_subjects=2, val_subjects=1, test_subjects=1,
    grid_shape=(8, 8, 2, 2), spacing=(2.0, 2.0, 10.0),
    train=TrainConfig(model=TINY, epochs=2, lr_prior=1e-3, seed=1,
                      weights=LossWeights(), checkpoint_every=0, log_every=1),
    infer_max_steps=4, infer_lr=1e-2, infer_lambda_h=1e-4, infer_cadence=2,
    infer_points=64, infer_seed=5, heldout_slice=1,
    plane_tilt_deg=30.0, plane_extent_mm=(10.0, 10.0), plane_counts=(4, 4))


def test_config_hash_tracks_content():
    assert MICRO.content_hash() == MICRO.content_hash()
    assert len(MICRO.content_hash()) == 16
    assert replace(MICRO, infer_lr=2e-2).content_hash() != MICRO.content_hash()
    assert replace(MICRO, dataset_seed=4).content_hash() != MICRO.content_hash()


def test_default_config_hashes_are_pinned():
    # cache directory names and checkpoint trajectory hashes; a change orphans caches
    assert DeskScaleConfig().content_hash() == "75fe8e94830dc9c9"
    assert OverfitConfig().content_hash() == "82fde1ee18a62260"
    assert TrainConfig().content_hash() == (
        "5b1dca1163b436d40f4dbc0ef6dff548919e65c757b14d04eb11fc9a6fe8af2d")
    assert DeskScaleConfig().train.content_hash() == (
        "bc1fa6ffe96ebba1ce8c3b4e202f66617e06a370de53392af2e66fcec07dcfbf")
    assert OverfitConfig().to_dict()["grid_shape"] == [16, 16, 4, 4]


def test_build_splits_sizes_and_ids():
    splits = build_splits(MICRO)
    assert [len(splits[k]) for k in ("train", "val", "test")] == [2, 1, 1]
    ids = [v.subject_id for part in splits.values() for v in part]
    assert ids == ["s0000", "s0001", "s0002", "s0003"]
    again = build_splits(MICRO)
    assert np.array_equal(splits["test"][0].intensity, again["test"][0].intensity)


def test_oblique_plane_geometry():
    vol = build_splits(MICRO)["test"][0]
    spec = oblique_plane_spec(vol, 30.0, (10.0, 10.0), (4, 4))
    d1 = np.array(spec.dir1_mm)
    assert abs(np.linalg.norm(d1) - 1.0) < 1e-12
    assert abs(d1 @ np.array(spec.dir2_mm)) < 1e-12
    assert abs(d1[0] - np.cos(np.deg2rad(30.0))) < 1e-12
    assert abs(d1[2] - np.sin(np.deg2rad(30.0))) < 1e-12
    assert d1[1] == 0.0


def test_oblique_plane_needs_generator_geometry():
    bare = VolumeSample("b", np.zeros((4, 4, 2, 1)),
                        np.zeros((4, 4, 2, 1), dtype=np.uint8), (2.0, 2.0, 10.0))
    with pytest.raises(ContractError):
        oblique_plane_spec(bare, 30.0, (10.0, 10.0), (4, 4))


# -- per-subject protocols -----------------------------------------------------


def test_copy_nearest_slice_donor_selection():
    _, vol = generate_subject(2, grid_shape=(4, 4, 6, 2))
    # slice 2 held out: z=1 and z=3 tie at distance 1 -> lower wins
    assert np.array_equal(copy_nearest_slice_labels(vol, 2), vol.labels[:, :, 1, :])
    assert np.array_equal(copy_nearest_slice_labels(vol, 0), vol.labels[:, :, 1, :])
    assert np.array_equal(copy_nearest_slice_labels(vol, 5), vol.labels[:, :, 4, :])
    flat = VolumeSample("flat", np.zeros((4, 4, 1, 2)),
                        np.zeros((4, 4, 1, 2), dtype=np.uint8), (2.0, 2.0, 10.0))
    with pytest.raises(ContractError):
        copy_nearest_slice_labels(flat, 0)


def test_heldout_row_structure():
    _, vol = generate_subject(13, grid_shape=(6, 6, 4, 2), spacing=(4.0, 4.0, 10.0))
    model = FieldModel.init(TINY, seed=0)
    row = heldout_row(model, vol, InferConfig(steps_to_run=5, lr_infer=1e-2, seed=3), 2)
    assert row["id"] == vol.subject_id
    # foreground classes only: lv_pool, lv_myocardium, rv_pool
    assert len(row["model_per_class"]) == len(row["baseline_per_class"]) == 3
    assert all(0.0 <= d <= 1.0 for d in row["model_per_class"])
    assert all(0.0 <= d <= 1.0 for d in row["baseline_per_class"])
    assert 0.0 <= row["recon_mae"] <= 1.0
    with pytest.raises(ContractError):
        heldout_row(model, vol, InferConfig(steps_to_run=1), 4)


def test_curve_rows_produce_aligned_curves():
    subjects = [generate_subject(seed, grid_shape=(6, 6, 3, 2), spacing=(4.0, 4.0, 10.0),
                                 subject_id=f"t{seed}")[1] for seed in (30, 31)]
    model = train_prior(subjects[:1], TrainConfig(model=TINY, epochs=15, lr_prior=1e-3,
                                                  seed=2, log_every=0)).model
    fit = InferConfig(steps_to_run=20, record_cadence=10, lr_infer=1e-2, seed=5)
    rows = [curve_row(model, subject, replace(fit, seed=fit.seed + 1000 * (i + 1)))
            for i, subject in enumerate(subjects)]
    summary = curve_summary(rows)
    assert summary["steps"] == [0, 10, 20]
    assert len(rows) == 2
    assert len(summary["mean_dice"]) == 3
    assert summary["selected_steps"] in summary["steps"]
    expect = np.mean([rows[0]["dice_mean"], rows[1]["dice_mean"]], axis=0)
    assert np.allclose(summary["mean_dice"], expect)
    with pytest.raises(ContractError):
        curve_summary([])


# -- the cached pipeline -------------------------------------------------------


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cache"))
    run = DeskScaleRun(MICRO, cache_root=root)
    summary = run.run_all()
    return root, run, summary


def test_pipeline_summary_structure(micro_run):
    _, run, summary = micro_run
    assert summary["config_hash"] == MICRO.content_hash()
    val = summary["validation"]
    assert val["steps"][0] == 0 and val["steps"][-1] == MICRO.infer_max_steps
    assert len(val["mean_dice"]) == len(val["steps"])
    assert val["selected_steps"] in val["steps"]
    long = summary["longrun"]
    assert long["budget"] == 4 * val["selected_steps"]
    assert long["steps"][-1] == long["budget"]
    test = summary["test_eval"]
    assert len(test["subjects"]) == 1
    assert test["subjects"][0]["id"] == "s0003"
    assert 0.0 <= test["subjects"][0]["dice_mean"] <= 1.0
    assert summary["heldout"]["slice_index"] == 1
    assert 0.0 <= summary["heldout"]["win_fraction"] <= 1.0
    assert 0.0 <= summary["oblique"]["win_fraction"] <= 1.0


def test_pipeline_stage_files_on_disk(micro_run):
    _, run, _ = micro_run
    names = set(os.listdir(run.dir))
    expected = {"config.json", "train_log.csv", "validation.json", "longrun.json",
                "test_eval.json", "heldout.json", "oblique.json"}
    assert expected <= names
    assert any(n.endswith(".nckpt") for n in names)
    for name in expected & {n for n in names if n.endswith(".json")}:
        data = json.load(open(os.path.join(run.dir, name)))
        assert isinstance(data, dict)


def test_pipeline_reload_is_pure_cache(micro_run, monkeypatch):
    """A second handle with the same config must answer entirely from disk."""
    root, _, summary = micro_run
    import nisf.experiments as exp

    def boom(*a, **k):
        raise AssertionError("recomputed a cached stage")

    # every fit and every decode of every stage goes through these names
    for name in ("train_prior", "infer_latent", "evaluate_points", "sample_grid",
                 "sample_plane"):
        monkeypatch.setattr(exp, name, boom)
    again = DeskScaleRun(MICRO, cache_root=root).run_all()
    assert again == summary


def _assert_stage_rows_equal_direct_fits(run):
    """Each stage row is its protocol run directly: subject i (from 0) of a
    split is fitted with seed ``base + stride * (i + 1)``, where (base,
    stride) is (infer_seed, 1000) for validation, (infer_seed + 5, 1000) for
    longrun, (infer_seed, 777) for test_eval and (infer_seed, 3331) for
    heldout."""
    model = run.model()
    splits = build_splits(MICRO)
    val, test = splits["val"][0], splits["test"][0]
    selected = run.selected_steps()

    # validation: the full-budget curve with Dice on the analysis frames
    coords, intensities = full_observations(val)
    _, trace = infer_latent(model, coords, intensities,
                            replace(MICRO.infer_config(), seed=MICRO.infer_seed + 1000),
                            analysis=analysis_points(val))
    validation = run.validation()
    assert validation["steps"] == trace.steps
    assert validation["per_subject"] == [trace.dice_mean]
    assert validation["recon_per_subject"] == [trace.recon_loss]

    # longrun: the same curve over four times the selected budget
    budget = 4 * selected
    _, trace = infer_latent(model, coords, intensities,
                            replace(MICRO.infer_config(budget),
                                    seed=MICRO.infer_seed + 5 + 1000),
                            analysis=analysis_points(val))
    longrun = run.longrun()
    assert longrun["budget"] == budget
    assert longrun["steps"] == trace.steps
    assert longrun["mean_dice"] == trace.dice_mean

    # test_eval: decoded and scored on every voxel of every frame
    cfg = replace(MICRO.infer_config(selected), seed=MICRO.infer_seed + 777)
    coords, intensities = full_observations(test)
    h, trace = infer_latent(model, coords, intensities, cfg)
    eval_coords, eval_labels = analysis_points(test, frames=tuple(range(test.num_frames)))
    labels, _, intensity = evaluate_points(model, h, eval_coords)
    report = dice_report(labels, eval_labels)
    truth = np.moveaxis(test.intensity, 3, 0).reshape(-1)  # frame-major raster order
    assert run.test_eval()["subjects"] == [{
        "id": test.subject_id, "dice_per_class": list(report.per_class),
        "dice_mean": report.mean, "recon_mae": float(np.mean(np.abs(intensity - truth))),
        "final_recon_bce": trace.recon_loss[-1], "seed": cfg.seed,
        "latent": h.values.tolist()}]
    assert np.array_equal(run.test_latents()[test.subject_id], h.values)

    # heldout: fitted without the slice, which is then decoded on its own grid
    k = MICRO.heldout_slice
    cfg = replace(MICRO.infer_config(selected), seed=MICRO.infer_seed + 3331)
    coords, intensities = full_observations(degrade(test, "drop_slices", slices=[k]))
    h, _ = infer_latent(model, coords, intensities, cfg)
    gx, gy, gz, gt = test.shape
    z = normalize_index(k, gz)
    pred = sample_grid(model, h, GridSpec(counts=(gx, gy, 1, gt),
                                          ranges=((0.0, 1.0), (0.0, 1.0), (z, z), (0.0, 1.0))))
    truth = test.labels[:, :, k, :]
    model_report = dice_report(pred.labels[:, :, 0, :], truth)
    copy_report = dice_report(test.labels[:, :, k - 1, :], truth)  # the only other slice
    mae = float(np.mean(np.abs(np.clip(pred.intensity[:, :, 0, :], 0.0, 1.0)
                               - test.intensity[:, :, k, :])))
    assert run.heldout()["subjects"] == [{
        "id": test.subject_id, "model_mean": model_report.mean,
        "baseline_mean": copy_report.mean, "model_per_class": list(model_report.per_class),
        "baseline_per_class": list(copy_report.per_class), "recon_mae": mae}]


def test_stage_rows_equal_direct_fits(micro_run):
    _, run, _ = micro_run
    _assert_stage_rows_equal_direct_fits(run)


def test_stage_rows_equal_direct_fits_after_a_real_fit(tmp_path, monkeypatch):
    """MICRO's validation Dice is flat, so it selects 0 steps and test_eval and
    heldout never fit; here the selection is forced to the second-to-last
    grid step (2 of [0, 2, 4]), so every stage row comes from a real fit."""
    import nisf.experiments as exp
    monkeypatch.setattr(exp, "select_early_stop_steps", lambda traces: traces[0].steps[-2])
    run = DeskScaleRun(MICRO, cache_root=str(tmp_path))
    run.run_all()
    assert run.selected_steps() == 2
    assert run.longrun()["argmax_steps"] == 6  # second-to-last of [0, 2, 4, 6, 8]
    _assert_stage_rows_equal_direct_fits(run)


def test_test_latents_round_trip(micro_run):
    _, run, _ = micro_run
    latents = run.test_latents()
    assert set(latents) == {"s0003"}
    assert latents["s0003"].shape == (TINY.latent_dim,)
    assert latents["s0003"].dtype == np.float64
    again = run.test_latents()
    assert np.array_equal(latents["s0003"], again["s0003"])


def test_cached_overfit_runs_once_then_loads(tmp_path, monkeypatch):
    cfg = OverfitConfig(steps=3, grid_shape=(6, 6, 2, 2), spacing=(4.0, 4.0, 10.0),
                        model=TINY)
    first = cached_overfit(cfg, cache_root=str(tmp_path))
    assert first["config"] == cfg.to_dict()
    assert len(first["losses"]) == 3
    assert first["loss_ratio"] == first["final_loss"] / first["initial_loss"]
    assert first["elapsed_seconds"] >= 0.0

    import nisf.experiments as exp
    monkeypatch.setattr(exp, "run_overfit",
                        lambda *a, **k: pytest.fail("cache miss"))
    second = cached_overfit(cfg, cache_root=str(tmp_path))
    assert second == first


@pytest.mark.parametrize("stamp", ["0" * 64, None], ids=["other-code", "unstamped"])
def test_cached_overfit_recomputes_record_from_other_code(tmp_path, monkeypatch, stamp):
    import nisf.experiments as exp
    cfg = OverfitConfig(steps=3, grid_shape=(6, 6, 2, 2), spacing=(4.0, 4.0, 10.0),
                        model=TINY)
    path = tmp_path / f"overfit_{cfg.content_hash()}" / "overfit.json"
    path.parent.mkdir()
    stale = {"config": cfg.to_dict(), "initial_loss": 1.0, "final_loss": 0.5,
             "loss_ratio": 0.5, "recon_mae_frame0": 0.0, "elapsed_seconds": 797.766,
             "losses": [1.0, 0.75, 0.5]}
    if stamp is not None:
        stale["code_fingerprint"] = stamp
    path.write_text(json.dumps(stale))

    calls = []
    real = exp.run_overfit
    monkeypatch.setattr(exp, "run_overfit", lambda c: calls.append(c) or real(c))
    fresh = cached_overfit(cfg, cache_root=str(tmp_path))
    assert calls == [cfg]
    assert fresh["code_fingerprint"] == exp.code_fingerprint()
    assert fresh["elapsed_seconds"] != 797.766
    assert json.loads(path.read_text()) == fresh
    assert cached_overfit(cfg, cache_root=str(tmp_path)) == fresh
    assert calls == [cfg]


def test_desk_prior_log_starts_fresh_unless_resuming(tmp_path):
    cfg = replace(MICRO, train=replace(MICRO.train, checkpoint_every=1))
    run = DeskScaleRun(cfg, cache_root=str(tmp_path))
    log_path = os.path.join(run.dir, "train_log.csv")
    with open(log_path, "w") as f:  # left by a run stopped before its first checkpoint
        f.write("stale\n")
    run.model()
    with open(log_path) as f:
        first = f.read().splitlines()
    assert first[0].startswith("step,epoch,") and len(first) == 1 + 4
    os.remove(os.path.join(run.dir, "ckpt_epoch00002.nckpt"))
    run.model()  # resumes from epoch 1
    with open(log_path) as f:
        resumed = f.read().splitlines()
    # rows past the checkpoint are dropped and logged again, with the same
    # losses; only their wall_time differs, and it goes on from the kept rows
    assert [line.rsplit(",", 1)[0] for line in resumed] == [
        line.rsplit(",", 1)[0] for line in first]
    assert resumed[:3] == first[:3]
    walls = [float(line.rsplit(",", 1)[1]) for line in resumed[1:]]
    assert walls == sorted(walls)
    assert sum(line.startswith("step,") for line in resumed) == 1
