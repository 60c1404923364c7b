"""Prior training loop: batches, latent table, determinism, checkpoints."""

import numpy as np
import pytest

from nisf import autodiff as ad
from nisf.autodiff import Tape
from nisf.errors import ContractError, NumericalError, PayloadError
from nisf.losses import LossWeights, one_hot, train_loss
from nisf.model import FieldModel, ModelConfig
from nisf.phantom import generate_subject
from nisf.serial import read_blob, write_blob
from nisf.training import (CKPT_MAGIC, CKPT_VERSION, LatentTable, TrainConfig,
                           latest_checkpoint, load_checkpoint, make_batch, train_prior)
from nisf.volume import normalize_index

TINY_MODEL = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8)


def _cfg(**kw):
    base = dict(model=TINY_MODEL, epochs=4, lr_prior=1e-3, seed=5, log_every=1)
    base.update(kw)
    return TrainConfig(**base)


def _subjects(n, grid=(6, 6, 3, 2), seed0=20):
    return [generate_subject(seed0 + i, grid_shape=grid, spacing=(4.0, 4.0, 10.0),
                             subject_id=f"s{i}")[1] for i in range(n)]


# -- coordinates and batches --------------------------------------------------


def test_normalize_coords_analytic_values():
    assert normalize_index(3, 11) == pytest.approx(0.3)
    assert normalize_index(0, 7) == 0.0
    assert normalize_index(6, 7) == 1.0


def test_make_batch_counts_and_bounds():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 3))
    batch = make_batch(vol, 1)
    assert batch.coords.shape == (32, 4)
    assert batch.intensities.shape == (32, 1)
    assert batch.labels.shape == (32,)
    assert batch.coords.min() >= 0.0 and batch.coords.max() <= 1.0


def test_make_batch_raster_order_oracle():
    """Rows follow x-major C order over (x, y, z), one frame at a time."""
    _, vol = generate_subject(2, grid_shape=(3, 2, 2, 2))
    batch = make_batch(vol, 1)
    row = 0
    for i in range(3):
        for j in range(2):
            for k in range(2):
                expect = [normalize_index(i, 3), normalize_index(j, 2),
                          normalize_index(k, 2), 1.0]
                assert batch.coords[row].tolist() == expect
                assert batch.intensities[row, 0] == vol.intensity[i, j, k, 1]
                assert batch.labels[row] == vol.labels[i, j, k, 1]
                row += 1


def test_make_batch_excludes_masked_voxels():
    from dataclasses import replace
    _, vol = generate_subject(3, grid_shape=(5, 4, 2, 2))  # 40 voxels per frame
    mask = np.ones(vol.shape, dtype=bool)
    mask[0:1, 0:2, 0:2, :] = False  # hides 4 voxels a frame
    masked = replace(vol, mask=mask)
    batch = make_batch(masked, 0)
    assert batch.coords.shape[0] == 36  # 0.9 * 40
    # the hidden voxels are exactly the ones missing from the batch
    assert not np.any((batch.coords[:, 0] == 0.0) & (batch.coords[:, 1] <= 0.35))


def test_make_batch_all_background_frame_one_hot_column():
    rng = np.random.default_rng(0)
    from nisf.volume import VolumeSample
    vol = VolumeSample("bg", rng.random((3, 3, 2, 1)),
                       np.zeros((3, 3, 2, 1), dtype=np.uint8), (1.0, 1.0, 1.0))
    batch = make_batch(vol, 0)
    hot = one_hot(batch.labels, 4)
    assert np.array_equal(hot[:, 0], np.ones(18))
    assert hot[:, 1:].sum() == 0.0


def test_make_batch_contract_violations():
    _, vol = generate_subject(1, grid_shape=(4, 4, 2, 2))
    with pytest.raises(ContractError):
        make_batch(vol, 2)
    from nisf.volume import VolumeSample
    hidden = VolumeSample(vol.subject_id, vol.intensity, vol.labels, vol.spacing,
                          mask=np.zeros(vol.shape, dtype=bool))
    hidden.mask[..., 1] = True  # frame 0 fully unobserved
    with pytest.raises(ContractError, match="no observed voxels"):
        make_batch(hidden, 0)


# -- config ---------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ContractError):
        _cfg(epochs=0)
    with pytest.raises(ContractError):
        _cfg(lr_prior=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="lr_prior"):
            _cfg(lr_prior=bad)


@pytest.mark.parametrize("field", ["checkpoint_every", "log_every"])
def test_train_config_rejects_negative_cadence(field):
    # (epoch + 1) % -1 == 0, so a negative cadence would act at every step
    with pytest.raises(ContractError, match=field):
        _cfg(**{field: -1})
    assert getattr(_cfg(**{field: 0}), field) == 0


def test_train_config_round_trip():
    cfg = _cfg(weights=LossWeights(alpha=5.0), checkpoint_every=7)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_config_hash_tracks_trajectory_only():
    cfg = _cfg()
    assert cfg.content_hash() == _cfg(epochs=9).content_hash()
    assert cfg.content_hash() == _cfg(checkpoint_every=3, log_every=10).content_hash()
    assert cfg.content_hash() != _cfg(seed=6).content_hash()
    assert cfg.content_hash() != _cfg(lr_prior=2e-3).content_hash()
    assert cfg.content_hash() != _cfg(weights=LossWeights(alpha=3.0)).content_hash()


# -- latent table ------------------------------------------------------------------


def test_latent_table_init_variance_near_prior():
    table = LatentTable([f"s{i}" for i in range(40)], latent_dim=128, seed=0, lr=1e-3)
    var = table.matrix().var(axis=1)
    assert np.all(var > 0.5e-2) and np.all(var < 1.5e-2)


def test_latent_table_contracts():
    with pytest.raises(ContractError, match="duplicate"):
        LatentTable(["a", "a"], 4, seed=0, lr=1e-3)
    with pytest.raises(ContractError):
        LatentTable([], 4, seed=0, lr=1e-3)
    table = LatentTable(["a", "b"], 4, seed=0, lr=1e-3)
    with pytest.raises(ContractError, match="unknown"):
        table.row("c")


def test_latent_table_state_round_trip():
    table = LatentTable(["a", "b", "c"], 6, seed=1, lr=1e-3)
    state = {k: v.copy() for k, v in table.state_arrays().items()}
    other = LatentTable(["a", "b", "c"], 6, seed=99, lr=1e-3)
    other.load_state(state)
    assert np.array_equal(other.matrix(), table.matrix())
    with pytest.raises(ContractError):
        other.load_state({**state, "latent.H": np.zeros((2, 6))})


def test_one_training_step_updates_only_the_sampled_row():
    subjects = _subjects(3)
    model = FieldModel.init(TINY_MODEL, seed=0)
    table = LatentTable([s.subject_id for s in subjects], TINY_MODEL.latent_dim,
                        seed=0, lr=1e-3)
    before = table.matrix().copy()
    params_before = model.params["w_in"].values.copy()

    batch = make_batch(subjects[1], 0)
    from nisf.optim import Adam
    adam_model = Adam({n: model.params[n] for n in model.param_names()}, lr=1e-3)
    with Tape(wrt=[*model.parameters(), table.row("s1")]) as tape:
        terms = train_loss(model, table.row("s1"), batch.coords,
                           batch.intensities, batch.labels, LossWeights())
        tape.backward(terms.total)
    adam_model.step()
    table.adams["s1"].step()

    after = table.matrix()
    assert not np.array_equal(model.params["w_in"].values, params_before)
    assert not np.array_equal(after[1], before[1])       # sampled row moved
    assert np.array_equal(after[0], before[0])           # others untouched
    assert np.array_equal(after[2], before[2])


def test_train_prior_step_moves_every_parameter_and_the_visited_rows():
    # train_prior's tape names every parameter and the visited subject's row:
    # after one epoch of three one-step visits, every parameter and every row
    # has moved from its seeded start
    subjects = _subjects(3)
    cfg = _cfg(epochs=1)
    result = train_prior(subjects, cfg)
    start = FieldModel.init(cfg.model, seed=cfg.seed)
    for name in start.param_names():
        assert not np.array_equal(result.model.params[name].values,
                                  start.params[name].values), name
    rows = LatentTable([s.subject_id for s in subjects], TINY_MODEL.latent_dim,
                       seed=cfg.seed, lr=cfg.lr_prior).matrix()
    assert np.all(np.any(result.table.matrix() != rows, axis=1))


def test_default_training_step_tape_entries():
    # one gabor_trunk (the input layer inside) + 2 heads + losses
    model = FieldModel.init(ModelConfig(), seed=0)
    rng = np.random.default_rng(2)
    h = ad.Tensor(rng.normal(scale=0.01, size=model.config.latent_dim))
    coords = rng.uniform(size=(4096, 4))
    intensities = rng.uniform(size=(4096, 1))
    labels = rng.integers(0, model.config.num_classes, size=4096)
    with Tape(wrt=[*model.parameters(), h]) as tape:
        terms = train_loss(model, h, coords, intensities, labels, LossWeights())
        assert len(tape) == 43
        tape.backward(terms.total)


# -- the loop -----------------------------------------------------------------------


def test_loss_decreases_on_tiny_single_subject_run():
    _, vol = generate_subject(8, grid_shape=(8, 8, 8, 2), spacing=(6.0, 6.0, 6.0),
                              subject_id="solo")
    result = train_prior([vol], _cfg(epochs=50))
    losses = [row.report.total for row in result.log]
    assert len(losses) == 50
    assert min(losses) < losses[0]          # best-so-far improves
    assert losses[-1] < losses[0]           # and the endpoint beats the start


def test_identical_seeds_reproduce_bitwise():
    a = train_prior(_subjects(2), _cfg())
    b = train_prior(_subjects(2), _cfg())
    assert [r.report.total for r in a.log] == [r.report.total for r in b.log]
    for name in a.model.param_names():
        assert np.array_equal(a.model.params[name].values, b.model.params[name].values)
    assert np.array_equal(a.table.matrix(), b.table.matrix())


def test_different_seed_changes_trajectory():
    a = train_prior(_subjects(2), _cfg())
    b = train_prior(_subjects(2), _cfg(seed=6))
    assert [r.report.total for r in a.log] != [r.report.total for r in b.log]


def test_every_subject_visited_once_per_epoch():
    subjects = _subjects(4)
    result = train_prior(subjects, _cfg(epochs=3))
    ids = {s.subject_id for s in subjects}
    for epoch in range(3):
        rows = [r for r in result.log if r.epoch == epoch]
        assert len(rows) == 4
        assert {r.subject_id for r in rows} == ids
    assert result.global_step == 12


def test_subject_order_varies_between_epochs():
    result = train_prior(_subjects(5), _cfg(epochs=6))
    orders = []
    for epoch in range(6):
        orders.append(tuple(r.subject_id for r in result.log if r.epoch == epoch))
    assert len(set(orders)) > 1


def test_training_rejects_labels_beyond_model_classes():
    vol = _subjects(1)[0]
    small = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8, num_classes=2)
    with pytest.raises(ContractError, match="num_classes"):
        train_prior([vol], _cfg(model=small))


def test_non_finite_loss_aborts_with_step_diagnostics(monkeypatch):
    import nisf.training as training_mod

    def explode(*args, **kwargs):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(training_mod, "train_loss", explode)
    with pytest.raises(NumericalError, match=r"step 0 \(epoch 0, subject s\d"):
        train_prior(_subjects(2), _cfg())


# -- checkpoints -----------------------------------------------------------------


def test_checkpoint_cadence_and_latest(tmp_path):
    train_prior(_subjects(2), _cfg(epochs=5, checkpoint_every=2), out_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.glob("*.nckpt"))
    assert names == ["ckpt_epoch00002.nckpt", "ckpt_epoch00004.nckpt",
                     "ckpt_epoch00005.nckpt"]
    assert latest_checkpoint(str(tmp_path)).endswith("ckpt_epoch00005.nckpt")
    assert latest_checkpoint(str(tmp_path / "..")) is None


def test_resumed_run_matches_uninterrupted(tmp_path):
    subjects = _subjects(2)
    straight = train_prior(subjects, _cfg(epochs=6))

    part = tmp_path / "part"
    part.mkdir()
    train_prior(subjects, _cfg(epochs=3), out_dir=str(part))
    ckpt = latest_checkpoint(str(part))
    resumed = train_prior(subjects, _cfg(epochs=6), out_dir=str(part),
                          resume_from=ckpt)

    assert resumed.global_step == straight.global_step
    for name in straight.model.param_names():
        assert np.array_equal(resumed.model.params[name].values,
                              straight.model.params[name].values)
    assert np.array_equal(resumed.table.matrix(), straight.table.matrix())


def test_resumed_log_wall_time_continues_from_the_first_session(tmp_path):
    # criterion 4 reads the training time off the last row's wall_time, so a
    # resumed run must count the sessions before it
    subjects = _subjects(2)
    train_prior(subjects, _cfg(epochs=3), out_dir=str(tmp_path))
    log_path = tmp_path / "train_log.csv"
    first = [float(line.rsplit(",", 1)[1]) for line in log_path.read_text().splitlines()[1:]]
    resumed = train_prior(subjects, _cfg(epochs=6), out_dir=str(tmp_path),
                          resume_from=latest_checkpoint(str(tmp_path)))
    walls = [float(line.rsplit(",", 1)[1]) for line in log_path.read_text().splitlines()[1:]]
    assert len(first) == 6 and len(walls) == 12
    assert walls[:6] == first
    assert walls == sorted(walls)
    assert walls[-1] >= first[-1]
    assert [round(row.wall_time, 3) for row in resumed.log] == walls[6:]


def test_checkpoint_with_a_model_config_header_key_still_resumes(tmp_path):
    # checkpoints state their model config once, in train_config; ones
    # written with the former duplicate "model_config" key still load and
    # resume the same run
    subjects = _subjects(2)
    straight = train_prior(subjects, _cfg(epochs=4))
    train_prior(subjects, _cfg(epochs=2), out_dir=str(tmp_path))
    with open(latest_checkpoint(str(tmp_path)), "rb") as f:
        _, header, arrays = read_blob(f, CKPT_MAGIC, CKPT_VERSION)
    assert sorted(header) == ["adam_model_t", "arrays", "config_hash", "epoch_done",
                              "global_step", "subject_ids", "train_config"]
    del header["arrays"]
    header["model_config"] = TINY_MODEL.to_dict()
    older = str(tmp_path / "older.nckpt")
    with open(older, "wb") as f:
        write_blob(f, CKPT_MAGIC, CKPT_VERSION, header, arrays)
    resumed = train_prior(subjects, _cfg(epochs=4), resume_from=older)
    for name in straight.model.param_names():
        assert np.array_equal(resumed.model.params[name].values,
                              straight.model.params[name].values)
    assert np.array_equal(resumed.table.matrix(), straight.table.matrix())


def test_checkpoint_restores_optimizer_and_counters(tmp_path):
    subjects = _subjects(2)
    train_prior(subjects, _cfg(epochs=4, checkpoint_every=2), out_dir=str(tmp_path))
    ckpt = str(tmp_path / "ckpt_epoch00002.nckpt")
    model, table, adam_model, next_epoch, global_step = load_checkpoint(ckpt)
    assert next_epoch == 2
    assert global_step == 4
    assert adam_model.t == 4
    assert table.subject_ids == [s.subject_id for s in subjects]
    assert model.config == TINY_MODEL


def test_resume_rejects_different_trajectory_config(tmp_path):
    subjects = _subjects(2)
    train_prior(subjects, _cfg(epochs=2), out_dir=str(tmp_path))
    ckpt = latest_checkpoint(str(tmp_path))
    with pytest.raises(ContractError, match="different config"):
        load_checkpoint(ckpt, _cfg(lr_prior=5e-4))
    # cadence/extension changes are legal
    load_checkpoint(ckpt, _cfg(epochs=9, checkpoint_every=1))


def test_resume_rejects_mismatched_subjects(tmp_path):
    subjects = _subjects(2)
    train_prior(subjects, _cfg(epochs=2), out_dir=str(tmp_path))
    ckpt = latest_checkpoint(str(tmp_path))
    with pytest.raises(ContractError, match="subject ids"):
        load_checkpoint(ckpt, _cfg(), expect_ids=["s0", "other"])


@pytest.mark.parametrize("key", ["train_config", "model.res1_w2", "latent.H"])
def test_load_checkpoint_rejects_a_missing_key(tmp_path, key):
    train_prior(_subjects(2), _cfg(epochs=1), out_dir=str(tmp_path))
    with open(latest_checkpoint(str(tmp_path)), "rb") as f:
        _, header, arrays = read_blob(f, CKPT_MAGIC, CKPT_VERSION)
    del header["arrays"]
    header.pop(key, None)
    arrays.pop(key, None)
    path = str(tmp_path / "broken.nckpt")
    with open(path, "wb") as f:
        write_blob(f, CKPT_MAGIC, CKPT_VERSION, header, arrays)
    with pytest.raises(PayloadError, match=f"checkpoint (header|payload) missing '{key}'"):
        load_checkpoint(path)


def test_log_csv_header_matches_rows():
    from nisf.training import LogRow
    result = train_prior(_subjects(1), _cfg(epochs=2))
    header_cols = LogRow.csv_header().split(",")
    row_cols = result.log[0].csv().split(",")
    assert len(header_cols) == len(row_cols)
    assert header_cols[0] == "step" and "total" in header_cols
