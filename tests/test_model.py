"""Field model: shapes, initialization health, conditioning, persistence."""

import tracemalloc

import numpy as np
import pytest

import nisf.autodiff as ad
from nisf.autodiff import Tensor
from nisf.errors import ContractError, DimensionError, PayloadError
from nisf.losses import LossWeights, inference_loss, train_loss
from nisf.model import MODEL_MAGIC, MODEL_VERSION, FieldModel, ModelConfig
from nisf.serial import write_blob
from oracles import latent_linear, param_count


def tiny_config(**overrides):
    base = dict(coord_dim=4, latent_dim=8, hidden_width=8, num_res_layers=2,
                num_classes=4)
    base.update(overrides)
    return ModelConfig(**base)


def test_param_count_hand_check():
    # N=2 coords, d=3 latent, width 4, 1 residual layer, M=2 classes:
    #   input projection (2+3)*4 + 4          = 24
    #   residual layer   2 * (4*4 + 4)        = 40
    #   seg head         4*2 + 2              = 10
    #   intensity head   4*1 + 1              = 5
    cfg = ModelConfig(coord_dim=2, latent_dim=3, hidden_width=4,
                      num_res_layers=1, num_classes=2)
    assert param_count(cfg) == 79
    assert FieldModel.init(cfg, seed=0).num_params == 79


def test_param_count_formula_tracks_config():
    for cfg in (ModelConfig(), tiny_config(),
                tiny_config(hidden_width=16, num_res_layers=3)):
        w, L, M = cfg.hidden_width, cfg.num_res_layers, cfg.num_classes
        expect = ((cfg.coord_dim + cfg.latent_dim) * w + w
                  + L * 2 * (w * w + w)
                  + w * M + M + w + 1)
        assert param_count(cfg) == expect


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(num_classes=1)
    with pytest.raises(ContractError):
        ModelConfig(hidden_width=0)
    with pytest.raises(ContractError):
        ModelConfig(gabor_s0=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="finite"):
            ModelConfig(gabor_omega0=bad)
        with pytest.raises(ContractError, match="finite"):
            ModelConfig(gabor_s0=bad)


def test_forward_shapes_and_metadata():
    cfg = tiny_config()
    model = FieldModel.init(cfg, seed=1)
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1, size=(13, 4))
    coords[4] = [1.2, 0.5, 0.5, 0.5]   # outside the unit cube
    coords[9] = [0.5, -0.01, 0.5, 0.5]
    out = model.forward(coords, rng.normal(scale=0.1, size=cfg.latent_dim))
    assert out.seg_probs.shape == (13, 4)
    assert out.intensity.shape == (13, 1)
    # out-of-cube rows are evaluated like any other (extrapolation)
    assert np.all(np.isfinite(out.seg_probs.values[[4, 9]]))
    np.testing.assert_allclose(out.seg_probs.values[[4, 9]].sum(axis=1), 1.0, atol=1e-12)
    assert np.all((out.intensity.values[[4, 9]] > 0.0) & (out.intensity.values[[4, 9]] < 1.0))
    seg, intensity = out   # unpacks as the (seg, recon) pair
    assert seg is out.seg_probs and intensity is out.intensity


def test_intensity_alone_keeps_the_forward_bits():
    # latent-only objectives read the intensity head alone: it records the
    # segmentation head's two entries fewer and changes no bit of the value
    # or the latent gradient
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=2)
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 1, (1500, 4))
    coef = Tensor(rng.normal(size=(1500, 1)))
    latent = rng.normal(scale=0.1, size=cfg.latent_dim)

    def run(head):
        h = Tensor(latent.copy())
        with ad.Tape(wrt=[h]) as tape:
            out = head(coords, h)
            tape.backward(ad.reduce_sum(ad.mul(out, coef)))
        return out.values, h.grad, len(tape)

    both = run(lambda c, h: model.forward(c, h).intensity)
    alone = run(model.intensity)
    assert np.array_equal(alone[0], both[0]) and np.array_equal(alone[1], both[1])
    assert alone[2] == both[2] - 2


def test_forward_softmax_rows_sum_to_one():
    model = FieldModel.init(tiny_config(), seed=2)
    rng = np.random.default_rng(1)
    out = model.forward(rng.uniform(0, 1, (200, 4)), rng.normal(scale=0.1, size=8))
    np.testing.assert_allclose(out.seg_probs.values.sum(axis=1), 1.0, atol=1e-9)


def test_init_activation_scale_healthy():
    # trunk activations on 1024 uniform points must keep a usable scale:
    # neither collapsed (<0.1) nor exploding (>2.0) at any depth
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=0)
    rng = np.random.default_rng(42)
    coords = rng.uniform(0, 1, size=(1024, cfg.coord_dim))
    h = Tensor(rng.normal(scale=0.1, size=cfg.latent_dim))
    p = model.params
    x = latent_linear(Tensor(coords), h, p["w_in"], p["b_in"])
    blocks = [tuple(p[f"res{i}_{n}"] for n in ("w1", "b1", "w2", "b2"))
              for i in range(cfg.num_res_layers)]
    stds = [x.values.std()]
    for depth in range(1, cfg.num_res_layers + 1):
        trunk = ad.gabor_trunk(Tensor(coords), h, p["w_in"], p["b_in"], blocks[:depth],
                               cfg.gabor_omega0, cfg.gabor_s0)
        stds.append(trunk.values.std())
    for depth, std in enumerate(stds):
        assert 0.1 <= std <= 2.0, f"layer {depth} std {std:.3f}"


def _traced_step(cfg, model, h, rows=4096, intensity_alone=False, train=False):
    """(bytes held after the forward, forward+backward peak), each in
    [rows, hidden_width] float64 arrays, of one taped step under tracemalloc.
    A training step (``train``) differentiates every parameter and ``h``; a
    latent-only step differentiates ``h`` alone and reads the intensity of
    ``forward``, or of ``FieldModel.intensity`` if ``intensity_alone``."""
    rng = np.random.default_rng(4)
    coords = rng.uniform(0, 1, size=(rows, cfg.coord_dim))
    targets = rng.uniform(size=(rows, 1))
    labels = rng.integers(0, cfg.num_classes, size=rows)
    block = rows * cfg.hidden_width * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape(wrt=[*model.parameters(), h] if train else [h]) as tape:
            if train:
                total = train_loss(model, h, coords, targets, labels, LossWeights()).total
            else:
                intensity = (model.intensity(coords, h) if intensity_alone
                             else model.forward(coords, h).intensity)
                total = inference_loss(intensity, targets, h, 1e-4).total
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(total)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert h.grad is not None
    return held / block, peak / block


def test_latent_only_taped_forward_keeps_one_array_per_block():
    # A latent-only step's backward reads each block's wavelet derivative and
    # nothing else of the trunk. Through both heads the step holds no more:
    # the segmentation head keeps only its [B, 4] softmax output. Measured:
    # 8.07 blocks held and a 9.78-block peak (10.15 and 11.78 while the tape
    # kept every layer output alive).
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=0)
    h = Tensor(np.random.default_rng(5).normal(scale=0.1, size=cfg.latent_dim))
    held, peak = _traced_step(cfg, model, h)
    assert held <= cfg.num_res_layers + 0.5, held
    assert peak <= cfg.num_res_layers + 2.5, peak


def test_latent_only_step_holds_only_the_wavelet_derivatives():
    # Through the intensity head alone, a latent-only step keeps one array per
    # block, its wavelet derivative, and no other batch-sized array: the
    # input layer's rows live in tile scratch, and the tape lets the trunk
    # output go once the head has read it. Measured: 8.04 blocks held and a
    # 9.78-block peak (10.09 and 11.71 with the input layer as its own entry
    # and every layer output kept by the tape).
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=0)
    h = Tensor(np.random.default_rng(5).normal(scale=0.1, size=cfg.latent_dim))
    held, peak = _traced_step(cfg, model, h, intensity_alone=True)
    assert held <= cfg.num_res_layers + 0.5, held
    assert peak <= cfg.num_res_layers + 2.5, peak


def test_training_step_peak_is_three_arrays_per_block():
    # A training step keeps three arrays per block for its weight gradients
    # (the wavelet derivative, the block input and the wavelet values), and
    # its forward+backward peak stays within 3 per block and 4.5 more.
    # Measured peak: 28.34 blocks (28.6 while the tape kept layer outputs).
    # Whether a rule may free its incoming gradient is checked in
    # test_autodiff's test_rule_holds_the_only_reference_to_its_gradient.
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=0)
    h = Tensor(np.random.default_rng(5).normal(scale=0.01, size=cfg.latent_dim))
    _, peak = _traced_step(cfg, model, h, train=True)
    assert peak <= 3 * cfg.num_res_layers + 4.5, peak


def test_init_is_seed_deterministic_and_seed_sensitive():
    cfg = tiny_config()
    a = FieldModel.init(cfg, seed=5)
    b = FieldModel.init(cfg, seed=5)
    c = FieldModel.init(cfg, seed=6)
    assert a.checksum() == b.checksum()
    assert a.checksum() != c.checksum()


def test_default_model_checksum_is_pinned():
    # a fitted latent file stores the checksum of its model; a change here
    # would stop every stored latent from matching its model
    assert FieldModel.init(ModelConfig(), seed=0).checksum() == (
        "8e8e3ff784b773de880478c90f66826848d67b19a43aca1d88133fc8d35ac66f")


def test_zero_heads_give_uniform_probs_and_half_intensity():
    cfg = tiny_config()
    model = FieldModel.init(cfg, seed=3)
    params = {n: Tensor(model.params[n].values.copy()) for n in model.param_names()}
    for n in ("w_seg", "b_seg", "w_int", "b_int"):
        params[n] = Tensor(np.zeros_like(params[n].values))
    zeroed = FieldModel(cfg, params)
    rng = np.random.default_rng(2)
    out = zeroed.forward(rng.uniform(0, 1, (17, 4)), rng.normal(size=8))
    np.testing.assert_allclose(out.seg_probs.values, 0.25, atol=1e-15)
    np.testing.assert_allclose(out.intensity.values, 0.5, atol=1e-15)


def test_latent_conditioning_changes_output():
    model = FieldModel.init(tiny_config(), seed=4)
    rng = np.random.default_rng(3)
    coords = rng.uniform(0, 1, (5, 4))
    out1 = model.forward(coords, rng.normal(scale=0.1, size=8))
    out2 = model.forward(coords, rng.normal(scale=0.1, size=8))
    assert not np.allclose(out1.seg_probs.values, out2.seg_probs.values)


def test_latent_shape_contracts():
    model = FieldModel.init(tiny_config(), seed=4)
    coords = np.random.default_rng(0).uniform(0, 1, (5, 4))
    with pytest.raises(DimensionError):
        model.forward(coords, np.zeros(7))
    with pytest.raises(DimensionError):
        model.forward(coords, np.zeros((3, 8)))
    with pytest.raises(DimensionError):
        model.forward(coords, np.zeros((1, 8)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((5, 3)), np.zeros(8))


def test_row_results_independent_of_batch_composition():
    # evaluating a permuted batch permutes results bitwise
    model = FieldModel.init(tiny_config(), seed=7)
    rng = np.random.default_rng(4)
    coords = rng.uniform(0, 1, (11, 4))
    h = rng.normal(scale=0.1, size=8)
    perm = rng.permutation(11)
    out = model.forward(coords, h)
    out_p = model.forward(coords[perm], h)
    assert np.array_equal(out.seg_probs.values[perm], out_p.seg_probs.values)
    assert np.array_equal(out.intensity.values[perm], out_p.intensity.values)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    cfg = tiny_config()
    model = FieldModel.init(cfg, seed=9)
    path = tmp_path / "field.nmodel"
    model.save(path)
    loaded = FieldModel.load(path)
    assert loaded.config == cfg
    assert loaded.checksum() == model.checksum()
    for name in model.param_names():
        assert np.array_equal(loaded.params[name].values, model.params[name].values)


def test_load_rejects_a_header_without_config(tmp_path):
    model = FieldModel.init(tiny_config(), seed=9)
    path = tmp_path / "headless.nmodel"
    with open(path, "wb") as f:
        write_blob(f, MODEL_MAGIC, MODEL_VERSION, {"param_count": model.num_params},
                   {n: model.params[n].values for n in model.param_names()})
    with pytest.raises(PayloadError, match="model header missing 'config'"):
        FieldModel.load(path)


def test_checksum_changes_when_any_parameter_moves():
    model = FieldModel.init(tiny_config(), seed=10)
    before = model.checksum()
    model.params["res1_b2"].values[3] += 1e-12
    assert model.checksum() != before


def test_tape_differentiates_only_the_tensors_it_names():
    # A latent-only step names h alone: the tape records the trunk, the
    # intensity head's linear and sigmoid and the 11 entries of the
    # reconstruction loss and latent prior, and no parameter gets a
    # gradient. A tape that names nothing records nothing.
    cfg = ModelConfig()
    model = FieldModel.init(cfg, seed=11)
    rng = np.random.default_rng(12)
    coords = rng.uniform(0, 1, (300, cfg.coord_dim))
    targets = rng.uniform(size=(300, 1))
    h = Tensor(rng.normal(scale=0.1, size=cfg.latent_dim))
    with ad.Tape(wrt=[h]) as tape:
        total = inference_loss(model.intensity(coords, h), targets, h, 1e-4).total
        tape.backward(total)
    assert len(tape) == 14
    assert h.grad is not None and h.grad.shape == h.shape
    assert all(p.grad is None for p in model.parameters())
    h.grad = None
    with ad.Tape() as tape:
        frozen = inference_loss(model.intensity(coords, h), targets, h, 1e-4).total
    assert len(tape) == 0
    assert np.array_equal(frozen.values, total.values)
    assert h.grad is None and all(p.grad is None for p in model.parameters())


def test_config_dict_round_trip():
    cfg = tiny_config(gabor_omega0=12.0)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
