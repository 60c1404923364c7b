"""The finite-difference checker itself, then the checks it guards."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from nisf import autodiff as ad
from nisf.errors import ContractError
from nisf.gradcheck import (COMPOSED_TOL, OP_TOL, CheckResult, GradCheckReport,
                            check_scalar_fn, numerical_gradient, relative_error,
                            run_model_check, run_op_checks)


# -- machinery ----------------------------------------------------------------


def test_relative_error_basics():
    assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    # |2-1| / max(2,1) = 0.5
    assert relative_error(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    # near-zero pairs compare absolutely through the floor
    assert relative_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-3)
    assert relative_error(np.array([]), np.array([])) == 0.0


def test_numerical_gradient_on_quadratic():
    # f(x) = sum(3 x^2): gradient 6x, quadratic so central FD is exact up
    # to roundoff.
    x = np.array([0.5, -1.5, 2.0])
    grad = numerical_gradient(lambda v: float(np.sum(3.0 * v * v)), x.copy())
    assert np.allclose(grad, 6.0 * x, atol=1e-9)


def test_numerical_gradient_restores_input():
    x = np.array([1.0, 2.0])
    numerical_gradient(lambda v: float(np.sum(v)), x)
    assert np.array_equal(x, [1.0, 2.0])


def test_check_scalar_fn_accepts_correct_gradient():
    res = check_scalar_fn("ok", lambda p: ad.reduce_sum(ad.mul(p[0], p[0])),
                          [np.array([1.0, -2.0, 0.5])])
    assert res.passed
    assert res.max_rel_err < 1e-8


def test_check_scalar_fn_catches_a_wrong_gradient():
    # mul's backward is correct, so to simulate a bug we check a function
    # whose value and recorded graph disagree: detach one factor so the
    # tape sees constant*x while FD sees x*x.
    def build(p):
        frozen = ad.Tensor(p[0].values)  # same values, no grad path
        return ad.reduce_sum(ad.mul(frozen, p[0]))

    res = check_scalar_fn("planted_bug", build, [np.array([0.7, -1.2])])
    assert not res.passed
    # d/dx(x^2) = 2x but the tape reports x: factor-of-two error
    assert res.max_rel_err == pytest.approx(0.5, abs=1e-3)


def test_check_scalar_fn_rejects_nonscalar():
    with pytest.raises(ContractError, match="scalar"):
        check_scalar_fn("vec", lambda p: ad.mul(p[0], p[0]), [np.array([1.0, 2.0])])


def test_report_aggregation_and_lines():
    report = GradCheckReport(results=[CheckResult("a", 1e-9, 1e-6),
                                      CheckResult("b", 3e-5, 1e-6)])
    assert not report.passed
    assert report.max_rel_err == 3e-5
    lines = report.lines()
    assert lines[0].startswith("ok") and "a" in lines[0]
    assert lines[1].startswith("FAIL") and "b" in lines[1]


# -- the actual gradient checks --------------------------------------------------


def test_every_op_matches_finite_differences():
    report = run_op_checks(seed=0)
    assert len(report.results) >= 19
    failures = [r.name for r in report.results if not r.passed]
    assert not failures, f"ops failing FD check: {failures}"
    assert report.max_rel_err <= OP_TOL


def test_every_tape_op_has_an_fd_case():
    # each op name recorded by autodiff needs a case named after it ("sum_all" for "sum")
    # and autodiff records exactly the ops the model and the losses run
    ops = set(re.findall(r'_make_output\(\w+, "(\w+)"', Path(ad.__file__).read_text()))
    assert ops == {"linear", "gabor_trunk", "add", "sub", "mul", "div", "sigmoid", "log",
                   "softmax", "sum", "mean", "sum_squares"}
    cases = [r.name for r in run_op_checks(seed=0).results]
    missing = [op for op in sorted(ops)
               if not any(c == op or c.startswith(op + "_") for c in cases)]
    assert not missing, f"ops without a finite-difference case: {missing}"


def test_composed_training_loss_matches_finite_differences():
    report = run_model_check(seed=0)
    assert report.passed
    assert report.max_rel_err <= COMPOSED_TOL


def test_gradcheck_is_seed_robust_and_fast():
    t0 = time.monotonic()
    for seed in range(12):
        report = run_op_checks(seed=seed)
        assert report.passed, f"seed {seed}:\n" + "\n".join(report.lines())
    assert run_model_check(seed=3).passed
    assert time.monotonic() - t0 < 30.0


def test_op_checks_catch_a_broken_linear_rule_at_every_seed(monkeypatch):
    # The rescaled inputs must not blunt the check: a linear op whose
    # gradients are 1e-5 too large (ten times OP_TOL) fails at every seed.
    # Its values are exact, as a detached copy subtracts to zero.
    real = ad.linear

    def broken(x, w, b):
        y = real(x, w, b)
        return ad.add(y, ad.mul(ad.sub(y, ad.Tensor(y.values)), 1e-5))

    monkeypatch.setattr(ad, "linear", broken)
    for seed in range(12):
        result = {r.name: r for r in run_op_checks(seed=seed).results}["linear"]
        assert not result.passed, seed
