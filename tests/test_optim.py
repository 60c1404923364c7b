"""Adam behavior."""

import numpy as np
import pytest

from nisf.autodiff import Tensor
from nisf.errors import ContractError, NumericalError
from nisf.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_LR, Adam


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float64), name="p")


def test_defaults_match_documented_constants():
    assert (ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (1e-4, 0.9, 0.999, 1e-8)


def test_zero_gradient_leaves_parameter_unchanged():
    p = make_param([1.0, -2.0, 3.0])
    p.grad = np.zeros(3)
    before = p.values.copy()
    Adam({"p": p}, lr=0.1).step()
    np.testing.assert_array_equal(p.values, before)


def test_first_step_is_signed_learning_rate():
    # bias-corrected first step: lr * g / (|g| + eps') ~= lr * sign(g)
    p = make_param([1.0, 1.0, 1.0])
    p.grad = np.array([0.5, -3.0, 1e-12])
    Adam({"p": p}, lr=1e-2).step()
    delta = p.values - 1.0
    np.testing.assert_allclose(delta[:2], [-1e-2, 1e-2], rtol=1e-5)
    assert abs(delta[2]) < 1e-2  # tiny grad: eps dominates, step shrinks


def test_update_is_invariant_to_gradient_scale():
    # Adam's m/sqrt(v) ratio cancels any constant factor on the gradient
    # (up to the eps guard, which perturbs at the ~eps/|g| level)
    def run(scale):
        p = make_param([0.0])
        opt = Adam({"p": p}, lr=1e-3)
        for g in (0.3, -0.2, 0.7):
            p.grad = np.array([g * scale])
            opt.step()
        return p.values[0]

    np.testing.assert_allclose(run(1.0), run(100.0), rtol=1e-6)


def test_missing_gradient_raises_with_parameter_name():
    p = make_param([1.0])
    q = make_param([2.0])
    q.name = "q"
    p.grad = np.ones(1)
    with pytest.raises(ContractError, match="q"):
        Adam({"p": p, "q": q}, lr=0.1).step()


def test_non_finite_gradient_raises_numerical_error():
    p = make_param([1.0])
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError):
        Adam({"p": p}, lr=0.1).step()


def test_reset_grads_clears_all():
    p, q = make_param([1.0]), make_param([2.0])
    p.grad, q.grad = np.ones(1), np.ones(1)
    opt = Adam({"p": p, "q": q}, lr=0.1)
    opt.reset_grads()
    assert p.grad is None and q.grad is None


def test_state_round_trip_reproduces_next_step():
    rng = np.random.default_rng(0)
    p1 = make_param(rng.normal(size=5))
    opt1 = Adam({"p": p1}, lr=1e-3)
    for _ in range(4):
        p1.grad = rng.normal(size=5)
        opt1.step()
    saved_values = p1.values.copy()
    state = {k: v.copy() for k, v in opt1.state_arrays().items()}
    t_saved = opt1.t
    next_grad = rng.normal(size=5)

    p1.grad = next_grad.copy()
    opt1.step()
    expect = p1.values.copy()

    p2 = make_param(saved_values)
    opt2 = Adam({"p": p2}, lr=1e-3)
    opt2.load_state(t_saved, state)
    p2.grad = next_grad.copy()
    opt2.step()
    np.testing.assert_array_equal(p2.values, expect)


def test_load_state_validates_shapes():
    p = make_param(np.zeros(3))
    opt = Adam({"p": p}, lr=1e-3)
    with pytest.raises(ContractError):
        opt.load_state(1, {"p.m": np.zeros(2), "p.v": np.zeros(3)})


def test_moments_stay_float64_for_float32_params():
    p = Tensor(np.zeros(3, dtype=np.float32), name="p")
    p.grad = np.ones(3, dtype=np.float32)
    opt = Adam({"p": p}, lr=1e-3)
    opt.step()
    assert opt.m["p"].dtype == np.float64
    assert opt.v["p"].dtype == np.float64
    assert p.values.dtype == np.float32


def test_independent_optimizers_do_not_interact():
    # mirrors the per-subject latent rows: each has its own Adam state
    rows = {f"h{i}": make_param(np.full(3, float(i))) for i in range(3)}
    opts = {k: Adam({k: v}, lr=1e-2) for k, v in rows.items()}
    rows["h1"].grad = np.ones(3)
    opts["h1"].step()
    assert not np.array_equal(rows["h1"].values, np.full(3, 1.0))
    np.testing.assert_array_equal(rows["h0"].values, np.zeros(3))
    np.testing.assert_array_equal(rows["h2"].values, np.full(3, 2.0))
    assert opts["h0"].t == 0 and opts["h1"].t == 1
