"""Latent-only inference: frozen model, traces, fits on intensities alone."""

import numpy as np
import pytest

from nisf.autodiff import Tape, Tensor
from nisf.errors import ContractError, NumericalError
from nisf.inference import (InferConfig, InferenceTrace, analysis_points,
                            evaluate_points, full_observations, infer_latent)
from nisf.losses import LossWeights, bce, inference_loss, train_loss
from nisf.model import FieldModel, ModelConfig
from nisf.optim import Adam
from nisf.phantom import generate_subject
from nisf.sampling import sample_volume
from nisf.training import TrainConfig, train_prior
from nisf.volume import VolumeSample, drop_slices, make_batch

TINY = ModelConfig(num_res_layers=2, hidden_width=16, latent_dim=8)


def _subject(seed=21, grid=(6, 6, 3, 2)):
    return generate_subject(seed, grid_shape=grid, spacing=(4.0, 4.0, 10.0),
                            subject_id=f"t{seed}")[1]


def _trained_model(subject, epochs=40):
    cfg = TrainConfig(model=TINY, epochs=epochs, lr_prior=1e-3, seed=2, log_every=0)
    return train_prior([subject], cfg).model


# -- config -------------------------------------------------------------------


def test_infer_config_defaults_and_steps_property():
    assert InferConfig().steps_to_run == 1000
    assert InferConfig(steps_to_run=40).steps_to_run == 40
    assert InferConfig(steps_to_run=0).steps_to_run == 0


def test_infer_config_contracts():
    with pytest.raises(ContractError):
        InferConfig(steps_to_run=-1)
    with pytest.raises(ContractError):
        InferConfig(lr_infer=0.0)
    with pytest.raises(ContractError):
        InferConfig(record_cadence=0)
    with pytest.raises(ContractError):
        InferConfig(points_per_step=0)
    with pytest.raises(ContractError, match="nonnegative"):
        InferConfig(lambda_h=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="lr_infer"):
            InferConfig(lr_infer=bad)
        with pytest.raises(ContractError, match="finite"):
            InferConfig(lambda_h=bad)


def test_infer_weights_drop_training_terms(monkeypatch):
    # the fit's objective is the reconstruction BCE, unweighted, plus
    # lambda_h * ||h||^2: no segmentation or parameter term
    import nisf.inference

    seen = []

    def spy(intensity, targets, latent, lambda_h):
        seen.append((lambda_h, inference_loss(intensity, targets, latent, lambda_h)))
        return seen[-1][1]

    monkeypatch.setattr(nisf.inference, "inference_loss", spy)
    coords, inten = full_observations(_subject())
    infer_latent(FieldModel.init(TINY, seed=0), coords, inten,
                 InferConfig(steps_to_run=1, lambda_h=3e-4, seed=2))
    ((lambda_h, terms),) = seen
    report = terms.report
    assert lambda_h == 3e-4
    assert (report.bce_seg, report.dice_seg, report.l2_params) == (0.0, 0.0, 0.0)
    # the step's arithmetic is float32, so the identity holds in float32
    f32 = np.float32
    assert f32(report.total) == f32(report.bce_recon) + f32(report.l2_latent) * f32(3e-4)


# -- trace --------------------------------------------------------------------


def test_trace_append_and_csv_without_dice():
    # the CSV holds the step, the reconstruction BCE and the latent norm only
    tr = InferenceTrace()
    tr.append(0, 0.7, np.array([0.0, 0.5]))
    tr.append(50, 0.5, np.array([3.0, 4.0]))
    assert tr.csv_header() == "step,recon_loss,latent_norm"
    assert tr.csv_rows() == ["0,0.7,0.5", "50,0.5,5.0"]


def test_trace_rejects_non_monotonic_and_non_finite():
    tr = InferenceTrace()
    tr.append(10, 0.5, np.zeros(2))
    with pytest.raises(ContractError):
        tr.append(10, 0.4, np.zeros(2))
    with pytest.raises(NumericalError):
        tr.append(20, float("nan"), np.zeros(2))
    with pytest.raises(NumericalError):
        tr.append(20, 0.4, np.array([0.0, np.inf]))
    assert tr.steps == [10] and len(tr.latents) == 1


def test_trace_keeps_each_recorded_latent():
    # the first record is the seeded initial latent, the last the latent
    # returned, both as float64 copies that later steps do not move; each
    # norm is read off its stored latent
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    cfg = InferConfig(steps_to_run=5, lr_infer=1e-2, seed=9, record_cadence=2)
    h, trace = infer_latent(model, coords, inten, cfg)
    h0, _ = infer_latent(model, coords, inten, InferConfig(steps_to_run=0, seed=9))
    assert trace.steps == [0, 2, 4, 5]
    assert len(trace.latents) == len(trace.steps)
    assert all(lat.dtype == np.float64 and lat.shape == (TINY.latent_dim,)
               for lat in trace.latents)
    assert np.array_equal(trace.latents[0], h0.values)
    assert np.array_equal(trace.latents[-1], h.values)
    assert not np.array_equal(trace.latents[0], trace.latents[-1])
    for lat, norm in zip(trace.latents, trace.latent_norm):
        assert norm == float(np.sqrt(np.sum(lat * lat)))


# -- frozen evaluation -----------------------------------------------------------


def _in_slices(model, h, coords, rows):
    # evaluate_points over consecutive slices of ``rows`` rows, joined
    parts = [evaluate_points(model, h, coords[lo:lo + rows])
             for lo in range(0, coords.shape[0], rows)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _forward_all_rows(model, h, coords):
    seg, intensity = model.forward(coords, h)
    return np.argmax(seg.values, axis=1).astype(np.uint8), seg.values, intensity.values[:, 0]


def test_evaluate_points_chunking_is_invisible():
    model = FieldModel.init(TINY, seed=0)
    rng = np.random.default_rng(3)
    coords = rng.uniform(size=(53, 4))
    h = rng.normal(scale=0.1, size=TINY.latent_dim)
    lab_a, probs_a, int_a = evaluate_points(model, h, coords)
    for lab_b, probs_b, int_b in (_in_slices(model, h, coords, 7),
                                  _forward_all_rows(model, h, coords)):
        assert np.array_equal(lab_a, lab_b)
        assert np.array_equal(probs_a, probs_b)
        assert np.array_equal(int_a, int_b)
    assert probs_a.shape == (53, TINY.num_classes)
    np.testing.assert_allclose(probs_a.sum(axis=1), 1.0, atol=1e-9)


def test_default_model_points_are_chunk_invariant():
    # at the default width one call (in its default chunks), calls on slices
    # of any size and one forward over all rows give the same bits
    model = FieldModel.init(ModelConfig(), seed=0)
    rng = np.random.default_rng(8)
    coords = rng.uniform(size=(3456, 4))
    h = rng.normal(scale=0.1, size=model.config.latent_dim)
    lab, probs, inten = evaluate_points(model, h, coords)
    for rows in (1, 7, 1000, 1024, 2048, None):
        lab_c, probs_c, inten_c = (_forward_all_rows(model, h, coords) if rows is None
                                   else _in_slices(model, h, coords, rows))
        assert np.array_equal(lab_c, lab), rows
        assert np.array_equal(probs_c, probs), rows
        assert np.array_equal(inten_c, inten), rows


def test_decode_segmentation_is_argmax_of_probs():
    model = FieldModel.init(TINY, seed=1)
    coords = np.random.default_rng(0).uniform(size=(20, 4))
    labels, probs, _ = evaluate_points(model, np.zeros(TINY.latent_dim), coords)
    assert np.array_equal(labels, np.argmax(probs, axis=1))


def test_full_observations_counts_and_masking():
    vol = _subject()
    coords, inten = full_observations(vol)
    total = np.prod(vol.shape)
    assert coords.shape == (total, 4)
    assert inten.shape == (total, 1)

    masked = drop_slices(vol, [1])
    coords_m, _ = full_observations(masked)
    assert coords_m.shape[0] == total - vol.shape[0] * vol.shape[1] * vol.shape[3]

    dark = VolumeSample(vol.subject_id, vol.intensity, vol.labels, vol.spacing,
                        mask=np.zeros(vol.shape, dtype=bool))
    with pytest.raises(ContractError):
        full_observations(dark)


def test_sample_volume_decodes_full_grid():
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    h = np.zeros(TINY.latent_dim)
    out = sample_volume(model, h, drop_slices(vol, [0]))
    assert out.shape == vol.shape
    assert out.spacing == vol.spacing
    assert out.subject_id == vol.subject_id
    assert out.mask is None and out.phantom is None
    assert out.intensity.min() >= 0.0 and out.intensity.max() <= 1.0
    # frame 0 agrees with a direct point evaluation
    from nisf.training import make_batch
    from dataclasses import replace as dc_replace
    batch = make_batch(dc_replace(vol, mask=None), 0)
    lab, _, inten = evaluate_points(model, h, batch.coords)
    assert np.array_equal(out.labels[:, :, :, 0].reshape(-1), lab)


# -- latent fitting ----------------------------------------------------------------


def test_infer_latent_leaves_model_frozen_and_reduces_loss():
    vol = _subject()
    model = _trained_model(vol)
    checksum = model.checksum()
    coords, inten = full_observations(vol)
    cfg = InferConfig(steps_to_run=150, lr_infer=1e-2, seed=4, record_cadence=50)
    h, trace = infer_latent(model, coords, inten, cfg)
    assert model.checksum() == checksum
    assert h.values.shape == (TINY.latent_dim,)
    assert trace.steps[0] == 0 and trace.steps[-1] == 150
    assert trace.recon_loss[-1] < trace.recon_loss[0]


def test_infer_latent_differentiates_only_its_latent():
    # infer_latent's tape names its fresh latent alone: the caller's model
    # keeps its values and gets no gradient, and a training step on it
    # afterwards still reaches every parameter
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    checksum = model.checksum()
    batch = make_batch(vol)
    h, _ = infer_latent(model, batch.coords, batch.intensities,
                        InferConfig(steps_to_run=3, seed=2))
    assert model.checksum() == checksum
    assert all(p.grad is None for p in model.parameters())
    # the steps' float32 copies never reach the caller: the latent and the
    # model stay float64
    assert h.values.dtype == np.float64 and h.grad is None
    assert all(p.values.dtype == np.float64 for p in model.parameters())
    with Tape(wrt=[*model.parameters(), h]) as tape:
        tape.backward(train_loss(model, h, batch.coords, batch.intensities, batch.labels,
                                 LossWeights()).total)
    assert all(p.grad is not None for p in model.parameters())


def _float32_copy(model):
    return FieldModel(model.config, {name: Tensor(p.values.astype(np.float32))
                                     for name, p in model.params.items()})


def test_float32_step_gradient_matches_float64(monkeypatch):
    # one step over 8192 rows of the default-width model: its latent gradient
    # is the float32 one, and agrees with the float64 gradient of the same
    # objective
    import nisf.inference

    seen = []

    class Spy(Adam):
        def step(self) -> None:
            p = self.params["latent"]
            seen.append((p.values.copy(), p.grad.copy()))
            super().step()

    monkeypatch.setattr(nisf.inference, "Adam", Spy)
    model = FieldModel.init(ModelConfig(), seed=4)
    rng = np.random.default_rng(8)
    coords = rng.uniform(size=(8192, 4))
    inten = rng.uniform(0.05, 0.95, size=(8192, 1))
    infer_latent(model, coords, inten, InferConfig(steps_to_run=1, seed=6))
    ((h0, grad),) = seen
    assert grad.dtype == np.float32
    model32 = _float32_copy(model)
    h32 = Tensor(h0.astype(np.float32))
    with Tape(wrt=[h32]) as tape:
        tape.backward(inference_loss(model32.intensity(coords.astype(np.float32), h32),
                                     inten.astype(np.float32), h32, 1e-4).total)
    assert np.array_equal(grad, h32.grad)
    h = Tensor(h0)
    with Tape(wrt=[h]) as tape:
        tape.backward(inference_loss(model.intensity(coords, h), inten, h, 1e-4).total)
    assert h.grad.dtype == np.float64
    assert np.linalg.norm(grad - h.grad) <= 1e-4 * np.linalg.norm(h.grad)


def test_infer_latent_records_decode_through_the_float32_copy():
    # the last record is the float64 BCE of the float32 copy's decode of the
    # returned latent, and stays within 1e-6 relative of the float64 decode's
    vol = _subject()
    model = _trained_model(vol)
    coords, inten = full_observations(vol)
    h, trace = infer_latent(model, coords, inten,
                            InferConfig(steps_to_run=20, lr_infer=1e-2, seed=5))
    _, _, decoded32 = evaluate_points(_float32_copy(model), h, coords)
    assert decoded32.dtype == np.float32
    recon32 = bce(Tensor(decoded32.astype(np.float64)), inten[:, 0]).item()
    assert trace.recon_loss[-1] == recon32
    _, _, decoded64 = evaluate_points(model, h, coords)
    recon64 = bce(Tensor(decoded64), inten[:, 0]).item()
    assert abs(recon32 - recon64) <= 1e-6 * recon64


def test_infer_latent_records_do_not_move_the_fit():
    # a record only reads the latent: a fit that records every step returns
    # the bits of one that records step 0 and the last only
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    fits = []
    for cadence in (1, 6):
        h, trace = infer_latent(model, coords, inten,
                                InferConfig(steps_to_run=6, lr_infer=1e-2, seed=7,
                                            record_cadence=cadence,
                                            points_per_step=coords.shape[0] // 2))
        fits.append((h.values, trace.steps))
    (every, every_steps), (ends, ends_steps) = fits
    assert every_steps == list(range(7)) and ends_steps == [0, 6]
    assert np.array_equal(every, ends)


def test_infer_latent_runs_exactly_selected_steps():
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    cfg = InferConfig(steps_to_run=7, record_cadence=1, seed=1)
    h, trace = infer_latent(model, coords, inten, cfg)
    assert trace.steps == list(range(8))  # 0 plus one entry per step
    # records are Python floats read off the float64 latent, the last one
    # off the latent returned; the reconstruction decodes at float32
    for values in (trace.recon_loss, trace.latent_norm):
        assert len(values) == 8 and all(type(v) is float for v in values)
    assert len(trace.latents) == 8
    assert trace.latent_norm[-1] == float(np.sqrt(np.sum(h.values * h.values)))


def test_infer_latent_zero_steps_returns_seeded_init():
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    cfg = InferConfig(steps_to_run=0, seed=9)
    h_a, trace = infer_latent(model, coords, inten, cfg)
    h_b, _ = infer_latent(model, coords, inten, cfg)
    assert np.array_equal(h_a.values, h_b.values)
    assert trace.steps == [0]
    # N(0, 1e-4) scale: away from zero but small
    assert 0.0 < np.abs(h_a.values).max() < 0.1


def test_infer_latent_seed_changes_init_and_result():
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    a, _ = infer_latent(model, coords, inten, InferConfig(steps_to_run=5, seed=0))
    b, _ = infer_latent(model, coords, inten, InferConfig(steps_to_run=5, seed=1))
    assert not np.array_equal(a.values, b.values)


def test_infer_latent_subsampling_matches_full_batch_when_budget_covers():
    vol = _subject()
    model = FieldModel.init(TINY, seed=0)
    coords, inten = full_observations(vol)
    n = coords.shape[0]
    full, _ = infer_latent(model, coords, inten, InferConfig(steps_to_run=6, seed=3))
    capped, _ = infer_latent(model, coords, inten,
                             InferConfig(steps_to_run=6, seed=3, points_per_step=n))
    assert np.array_equal(full.values, capped.values)
    sub, trace = infer_latent(model, coords, inten,
                              InferConfig(steps_to_run=6, seed=3, points_per_step=n // 3))
    assert not np.array_equal(full.values, sub.values)
    # trace still reports the full-observation reconstruction loss
    assert len(trace.recon_loss) == len(trace.steps)


def test_infer_latent_contract_violations():
    model = FieldModel.init(TINY, seed=0)
    good = np.random.default_rng(0).uniform(size=(10, 4))
    inten = np.full((10, 1), 0.5)
    with pytest.raises(ContractError, match="align"):
        infer_latent(model, good, inten[:5], InferConfig(steps_to_run=1))
    with pytest.raises(ContractError, match="observation"):
        infer_latent(model, good[:0], inten[:0], InferConfig(steps_to_run=1))
    with pytest.raises(ContractError, match=r"\[0,1\]"):
        infer_latent(model, good + 2.0, inten, InferConfig(steps_to_run=1))


# -- analysis points ----------------------------------------------------------


def test_analysis_points_defaults_to_two_frames():
    vol = _subject(grid=(5, 4, 2, 6))
    coords, labels = analysis_points(vol)
    per_frame = 5 * 4 * 2
    assert coords.shape == (2 * per_frame, 4)
    assert np.array_equal(labels[:per_frame], vol.labels[:, :, :, 0].reshape(-1))
    assert np.array_equal(labels[per_frame:], vol.labels[:, :, :, 3].reshape(-1))


def test_analysis_points_ignores_observation_mask():
    vol = drop_slices(_subject(), [1])
    coords, _ = analysis_points(vol, frames=(0,))
    assert coords.shape[0] == vol.shape[0] * vol.shape[1] * vol.shape[2]


def test_analysis_points_deduplicates_frames():
    vol = _subject(grid=(4, 4, 2, 3))
    coords, _ = analysis_points(vol, frames=(2, 0, 2))
    assert coords.shape[0] == 2 * 4 * 4 * 2

