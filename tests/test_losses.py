"""Objective terms: frozen hand-derived values, identities, and properties.

Oracle constants below were computed independently with scalar math
before the implementations existed; they are frozen, not regenerated.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nisf.autodiff as ad
from nisf.autodiff import Tensor
from nisf.errors import ContractError, DimensionError
from nisf.losses import (DICE_EPS, LossWeights, bce, dice_loss, inference_loss, one_hot,
                         training_loss)

LN2 = 0.6931471805599453
ENTROPY_03 = 0.6108643020548935          # -[0.3 ln 0.3 + 0.7 ln 0.7]
UNIFORM_ELEM_MEAN = 0.5623351446188083   # -(ln .25 + 3 ln .75) / 4
UNIFORM_SEG_BCE = 2.249340578475233      # elementwise mean times M=4
UNIFORM_DICE = 0.7499998125000469        # 1 - (0.5*2+eps)/(4+eps), eps=1e-6
DISJOINT_DICE = 0.9999997500000625       # every foreground class fully wrong


def test_bce_half_prediction_is_ln2():
    pred = Tensor(np.full((5, 1), 0.5))
    target = np.ones((5, 1))
    assert abs(bce(pred, target).item() - LN2) <= 1e-9
    # p = 0.5 scores ln 2 against any target, not just t = 1
    assert abs(bce(pred, np.zeros((5, 1))).item() - LN2) <= 1e-9
    assert abs(bce(pred, np.full((5, 1), 0.37)).item() - LN2) <= 1e-9


def test_bce_matched_prediction_equals_entropy():
    pred = Tensor(np.full((4, 1), 0.3))
    assert abs(bce(pred, np.full((4, 1), 0.3)).item() - ENTROPY_03) <= 1e-12


def test_bce_is_elementwise_mean():
    probs = np.full((8, 4), 0.25)
    onehot = one_hot(np.arange(8) % 4, 4)
    assert abs(bce(Tensor(probs), onehot).item() - UNIFORM_ELEM_MEAN) <= 1e-12


def test_bce_shape_and_range_contracts():
    pred = Tensor(np.full((3, 1), 0.5))
    with pytest.raises(DimensionError):
        bce(pred, np.ones((3, 2)))
    with pytest.raises(ContractError):
        bce(pred, np.full((3, 1), 1.5))
    target = Tensor(np.ones((3, 1)))
    with ad.Tape(wrt=[target]), pytest.raises(ContractError, match="target"):
        bce(pred, target)


def test_bce_finite_at_extreme_predictions():
    # sigmoid saturation can emit exact 0.0/1.0; the log clamp absorbs it
    pred = Tensor(np.array([[0.0], [1.0]]))
    val = bce(pred, np.array([[1.0], [0.0]])).item()
    assert np.isfinite(val)
    assert val <= -math.log(ad.LOG_EPS) + 1.0


def test_dice_perfect_prediction_is_zero():
    onehot = one_hot(np.array([0, 1, 1, 2, 3, 0]), 4)
    loss = dice_loss(Tensor(onehot.copy()), onehot).item()
    assert abs(loss) <= 1e-6


def test_dice_uniform_prediction_hand_value():
    probs = np.full((8, 4), 0.25)
    onehot = one_hot(np.arange(8) % 4, 4)
    assert abs(dice_loss(Tensor(probs), onehot).item() - UNIFORM_DICE) <= 1e-12


def test_dice_fully_disjoint_prediction_is_near_one():
    labels = np.array([1, 1, 2, 2, 3, 3])
    wrong = (labels % 3) + 1  # 1->2, 2->3, 3->1: no overlap on any class
    pred = one_hot(wrong, 4)
    loss = dice_loss(Tensor(pred), one_hot(labels, 4)).item()
    assert abs(loss - DISJOINT_DICE) <= 1e-12


def test_dice_ignores_background_class():
    # all-background target: every foreground class empty in pred and
    # target, so each scores eps/eps = 1 and the loss is exactly 0
    labels = np.zeros(5, dtype=int)
    loss = dice_loss(Tensor(one_hot(labels, 4)), one_hot(labels, 4)).item()
    assert loss == 0.0


def test_dice_rejects_soft_targets():
    probs = np.full((4, 4), 0.25)
    with pytest.raises(ContractError):
        dice_loss(Tensor(probs), probs)


def test_one_hot_layout():
    out = one_hot(np.array([2, 0]), 4)
    np.testing.assert_array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(ContractError):
        one_hot(np.array([4]), 4)


def test_training_loss_zero_head_closed_form():
    # with uniform probabilities and 0.5 intensity, every term has a
    # closed form; B=8 with two rows per class
    B = 8
    probs = Tensor(np.full((B, 4), 0.25))
    intensity = Tensor(np.full((B, 1), 0.5))
    labels = np.arange(B) % 4
    targets = np.linspace(0.1, 0.9, B)
    params = [Tensor(np.array([0.3, -0.4])), Tensor(np.array([[1.5]]))]
    latent = Tensor(np.array([0.2, -0.1, 0.05]))
    w = LossWeights()
    terms = training_loss(probs, intensity, labels, targets, params, latent, w)
    rep = terms.report()

    assert abs(rep.bce_seg - UNIFORM_SEG_BCE) <= 1e-9
    assert abs(rep.dice_seg - UNIFORM_DICE) <= 1e-9
    assert abs(rep.bce_recon - LN2) <= 1e-9
    assert abs(rep.l2_params - (0.09 + 0.16 + 2.25)) <= 1e-12
    assert abs(rep.l2_latent - (0.04 + 0.01 + 0.0025)) <= 1e-12
    expected_total = (rep.bce_seg + rep.dice_seg + w.alpha * rep.bce_recon
                      + w.lambda_theta_phi * rep.l2_params
                      + w.lambda_h * rep.l2_latent)
    assert abs(rep.total - expected_total) <= 1e-9


def test_total_reconstructs_from_components():
    rng = np.random.default_rng(2)
    B, M = 16, 4
    logits = rng.normal(size=(B, M))
    probs = ad.softmax(Tensor(logits))
    intensity = ad.sigmoid(Tensor(rng.normal(size=(B, 1))))
    labels = rng.integers(0, M, size=B)
    targets = rng.uniform(0.05, 0.95, size=B)
    params = [Tensor(rng.normal(size=(3, 3)))]
    latent = Tensor(rng.normal(scale=0.1, size=8))
    w = LossWeights()
    rep = training_loss(probs, intensity, labels, targets, params, latent, w).report()
    recombined = (rep.bce_seg + rep.dice_seg + w.alpha * rep.bce_recon
                  + w.lambda_theta_phi * rep.l2_params + w.lambda_h * rep.l2_latent)
    assert abs(rep.total - recombined) <= 1e-9


def test_inference_objective_is_restriction_of_training_objective():
    # with alpha=1 and no parameter penalty, the training total minus its
    # segmentation terms must equal the inference total to near-ulp
    rng = np.random.default_rng(7)
    B, M = 32, 4
    probs = ad.softmax(Tensor(rng.normal(size=(B, M))))
    intensity = ad.sigmoid(Tensor(rng.normal(size=(B, 1))))
    labels = rng.integers(0, M, size=B)
    targets = rng.uniform(0.02, 0.98, size=B)
    latent = Tensor(rng.normal(scale=0.1, size=16))
    w = LossWeights(alpha=1.0, lambda_theta_phi=0.0, lambda_h=1e-4)
    params = [Tensor(np.zeros(1))]

    train_rep = training_loss(probs, intensity, labels, targets, params, latent, w).report()
    infer_terms = inference_loss(intensity, targets, latent, w.lambda_h)
    restricted = train_rep.total - train_rep.bce_seg - train_rep.dice_seg
    assert abs(infer_terms.total.item() - restricted) <= 1e-12
    assert infer_terms.bce_seg is None and infer_terms.dice_seg is None
    assert infer_terms.report().bce_seg == 0.0  # absent terms log as zero


def test_loss_gradients_flow_to_latent_only_at_inference():
    rng = np.random.default_rng(9)
    intensity_leaf = Tensor(rng.normal(size=(6, 1)))
    latent = Tensor(rng.normal(size=4))
    with ad.Tape(wrt=[intensity_leaf, latent]) as tape:
        intensity = ad.sigmoid(intensity_leaf)
        terms = inference_loss(intensity, rng.uniform(0.1, 0.9, size=6), latent, 1e-4)
        tape.backward(terms.total)
    assert latent.grad is not None
    assert intensity_leaf.grad is not None  # recon term reaches the field


def test_l2_sum_sq_hand_value():
    t1 = Tensor(np.array([1.0, -2.0]))
    t2 = Tensor(np.array([[3.0]]))  # not named by the tape: no gradient
    with ad.Tape(wrt=[t1]) as tape:
        total = ad.sum_squares([t1, t2])
        tape.backward(total)
    assert total.item() == 14.0
    assert np.array_equal(t1.grad, [2.0, -4.0]) and t2.grad is None
    with pytest.raises(ContractError, match="at least one"):
        ad.sum_squares([])


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        LossWeights(alpha=-1.0)
    with pytest.raises(ContractError):
        LossWeights(lambda_h=-1e-9)
    for field in ("alpha", "lambda_theta_phi", "lambda_h"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ContractError, match="finite"):
                LossWeights(**{field: bad})


def test_report_csv_row_round_trips_float_repr():
    rng = np.random.default_rng(1)
    probs = ad.softmax(Tensor(rng.normal(size=(4, 4))))
    intensity = ad.sigmoid(Tensor(rng.normal(size=(4, 1))))
    rep = training_loss(probs, intensity, np.array([0, 1, 2, 3]),
                        rng.uniform(0.1, 0.9, 4), [Tensor(np.ones(2))],
                        Tensor(np.ones(3)), LossWeights()).report()
    cells = rep.csv_row()
    assert len(cells) == len(rep.csv_fields())
    assert float(cells[0]) == rep.total  # repr round-trip is exact


@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_bce_lower_bounded_by_entropy(p, t):
    # Gibbs: cross-entropy(t, p) >= entropy(t), equality iff p == t
    val = bce(Tensor(np.array([[p]])), np.array([[t]])).item()
    ent = bce(Tensor(np.array([[t]])) if 0 < t < 1 else Tensor(np.array([[max(t, 1e-9)]])),
              np.array([[t]])).item() if 0 < t < 1 else 0.0
    assert val >= ent - 1e-9


@given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_dice_loss_stays_in_unit_interval(rows, seed):
    rng = np.random.default_rng(seed)
    probs = ad.softmax(Tensor(rng.normal(size=(rows, 4)))).values
    labels = rng.integers(0, 4, size=rows)
    loss = dice_loss(Tensor(probs), one_hot(labels, 4)).item()
    assert -1e-9 <= loss <= 1.0 + 1e-9
