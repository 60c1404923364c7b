"""Cached experiment pipeline: stage mechanics on a micro configuration."""

import json
import os

import numpy as np
import pytest

from nisf.experiments import (DeskScaleConfig, DeskScaleRun, OverfitConfig,
                              build_splits, cached_overfit, oblique_plane_spec)
from nisf.losses import LossWeights
from nisf.model import ModelConfig
from nisf.training import TrainConfig

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
    from dataclasses import replace
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
    from nisf.errors import ContractError
    from nisf.volume import VolumeSample
    bare = VolumeSample("b", np.zeros((4, 4, 2, 1)),
                        np.zeros((4, 4, 2, 1), dtype=np.uint8), (2.0, 2.0, 10.0))
    with pytest.raises(ContractError):
        oblique_plane_spec(bare, 30.0, (10.0, 10.0), (4, 4))


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
                "test_eval.json", "heldout.json", "oblique.json", "test_latents.npz"}
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

    monkeypatch.setattr(exp, "train_prior", boom)
    monkeypatch.setattr(exp, "validate_prior", boom)
    monkeypatch.setattr(exp, "infer_latent", boom)
    again = DeskScaleRun(MICRO, cache_root=root).run_all()
    assert again == summary


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
    from dataclasses import replace

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
