"""Hard-label Dice, reconstruction error, and report aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisf.errors import ContractError, DimensionError
from nisf.metrics import DiceReport, aggregate, dice, dice_report, reconstruction_mae


# -- dice ---------------------------------------------------------------------


def test_dice_identical_masks():
    labels = np.array([0, 1, 1, 2, 0, 3])
    for c in range(4):
        assert dice(labels, labels, c) == 1.0


def test_dice_disjoint_nonempty_masks():
    assert dice(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]), 1) == 0.0


def test_dice_half_overlap_analytic():
    # |A| = |B| = 100 with 50 shared: 2*50 / 200 = 0.5.
    pred = np.zeros(300, dtype=np.uint8)
    true = np.zeros(300, dtype=np.uint8)
    pred[0:100] = 1
    true[50:150] = 1
    assert dice(pred, true, 1) == 0.5


def test_dice_empty_conventions():
    a = np.zeros(10, dtype=np.uint8)
    b = np.zeros(10, dtype=np.uint8)
    assert dice(a, b, 2) == 1.0  # absent from both: correct
    b = b.copy()
    b[3] = 2
    assert dice(a, b, 2) == 0.0  # exactly one empty


def test_dice_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        dice(np.zeros(4), np.zeros(5), 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_dice_symmetry_and_permutation_invariance(seed, class_id):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=60).astype(np.uint8)
    b = rng.integers(0, 4, size=60).astype(np.uint8)
    assert dice(a, b, class_id) == dice(b, a, class_id)
    perm = rng.permutation(60)
    assert dice(a[perm], b[perm], class_id) == dice(a, b, class_id)


def test_dice_report_hand_case():
    pred = np.array([0, 1, 1, 2, 3, 0])
    true = np.array([0, 1, 2, 2, 3, 3])
    report = dice_report(pred, true)
    assert report.classes == ("lv_pool", "lv_myocardium", "rv_pool")
    # each class: one of two masks has an extra voxel -> 2*1/3 each
    assert report.per_class == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    assert report.mean == pytest.approx(2 / 3)
    assert report.n == 1 and report.per_class_std is None


def test_dice_report_excludes_background():
    # all-background prediction against all-background truth: the three
    # foreground classes are empty on both sides, so each scores 1.0 and
    # the (absent) background never enters the report.
    report = dice_report(np.zeros(20, dtype=np.uint8), np.zeros(20, dtype=np.uint8))
    assert report.per_class == (1.0, 1.0, 1.0)
    assert "background" not in report.classes


# -- reconstruction error --------------------------------------------------------


def test_reconstruction_identical_is_perfect():
    arr = np.random.default_rng(0).random((4, 4))
    assert reconstruction_mae(arr, arr) == 0.0


def test_reconstruction_constant_offset_analytic():
    true = np.zeros((5, 5))
    pred = np.full((5, 5), 0.1)
    assert reconstruction_mae(pred, true) == pytest.approx(0.1, rel=1e-12)


def test_reconstruction_matches_scalar_loop():
    rng = np.random.default_rng(42)
    pred = rng.random(40)
    true = rng.random(40)
    abs_sum = 0.0
    for p, t in zip(pred.tolist(), true.tolist()):
        abs_sum += abs(p - t)
    assert reconstruction_mae(pred, true) == pytest.approx(abs_sum / 40, rel=1e-14)


def test_reconstruction_contract_violations():
    with pytest.raises(DimensionError):
        reconstruction_mae(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractError, match="outside"):
        reconstruction_mae(np.array([1.2]), np.array([0.5]))
    with pytest.raises(ContractError, match="outside"):
        reconstruction_mae(np.array([0.5]), np.array([-0.1]))


# -- aggregation ------------------------------------------------------------------


def _report(*per_class):
    return DiceReport(classes=("lv_pool", "lv_myocardium", "rv_pool")[:len(per_class)],
                      per_class=per_class, mean=float(np.mean(per_class)))


def test_aggregate_single_report_is_itself_with_zero_std():
    agg = aggregate([_report(0.8, 0.6, 0.7)])
    assert agg.per_class == (0.8, 0.6, 0.7)
    assert agg.mean == pytest.approx(0.7)
    assert agg.per_class_std == (0.0, 0.0, 0.0)
    assert agg.mean_std == 0.0
    assert agg.n == 1


def test_aggregate_two_reports_population_std():
    # population std of {0.8, 0.9} is 0.05 (n denominator)
    agg = aggregate([_report(0.8), _report(0.9)])
    assert agg.per_class[0] == pytest.approx(0.85)
    assert agg.per_class_std[0] == pytest.approx(0.05)
    assert agg.mean == pytest.approx(0.85)
    assert agg.mean_std == pytest.approx(0.05)
    assert agg.n == 2


def test_aggregate_three_class_hand_case():
    agg = aggregate([_report(0.8, 0.6, 0.7), _report(0.9, 0.7, 0.8)])
    assert agg.per_class == pytest.approx((0.85, 0.65, 0.75))
    assert agg.per_class_std == pytest.approx((0.05, 0.05, 0.05))
    # subject means are 0.7 and 0.8
    assert agg.mean == pytest.approx(0.75)
    assert agg.mean_std == pytest.approx(0.05)


def test_aggregate_identical_reports_zero_std():
    agg = aggregate([_report(0.5, 0.5, 0.5)] * 5)
    assert agg.per_class_std == (0.0, 0.0, 0.0)
    assert agg.mean_std == 0.0


def test_aggregate_contract_violations():
    with pytest.raises(ContractError):
        aggregate([])
    with pytest.raises(ContractError, match="class-aligned"):
        aggregate([_report(0.5), _report(0.5, 0.5, 0.5)])
    nested = aggregate([_report(0.8), _report(0.9)])
    with pytest.raises(ContractError, match="single-subject"):
        aggregate([nested, _report(0.7)])


def test_report_table_includes_std_when_aggregated():
    agg = aggregate([_report(0.8, 0.6, 0.7), _report(0.9, 0.7, 0.8)])
    text = agg.table()
    assert "lv_pool" in text and "+/-" in text and "(n=2)" in text
    single = _report(0.8, 0.6, 0.7).table()
    assert "+/-" not in single
