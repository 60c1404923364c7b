"""Finite-difference verification of tape gradients.

Central differences with step 1e-5 on float64 values give roughly ten
significant digits, so per-operation checks are held to 1e-6 relative
error and a full composed training loss to 1e-4 (longer chains compound
roundoff). Relative error uses max(|a|, |b|, 1e-6) in the denominator so
near-zero gradients compare absolutely.

``run_op_checks`` passes at seeds 0-11. An FD estimate can still go
wrong where the tape is right, in two ways, and the cases' inputs are
scaled against both:

* cancellation: the central difference misses every element by about
  eps*|f|/FD_STEP, which is above 1e-6 relative on an element that
  cancels to near zero. ``linear`` (unscaled, seed 7 missed an element
  of -1.2e-5 by 7e-11) therefore takes inputs and contraction
  weights of one sign, 0.5 + |N(0, 1)|, so that no element of its
  gradients can cancel; being linear, it has no truncation error. The
  one-block trunk case is contracted with such weights as well: with
  mixed-sign ones it missed by 1.16e-5 at seed 11.
* truncation: a wavelet's curvature grows as (omega0*|x|)^2 with the
  input scale |x|. Both trunk cases, two blocks [3,4] -> [3,5] -> [3,4]
  and one block [3,3] -> [3,6] -> [3,3], take 0.1*N(0, 1) weights in
  their input layer and blocks, so that their block inputs stay near
  0.25 in scale, inside the envelope.
  Where an element still cancels, the miss is the estimate's: at the
  failing seeds 52, 79 and 114 of the two-block trunk, the tape agrees
  with a complex-step derivative of the same function in plain numpy to
  1e-12 relative or better.

Over seeds 0-199 (``nisf gradcheck --seed N``), 25 seeds fail a case:
* ``composed_training_loss`` fails at 21 seeds, by 1.04e-4 to 3.34e-3
  against its 1e-4 tolerance: 18, 22, 25, 36, 38, 51, 57, 73, 75, 76,
  84, 86, 99, 100, 112, 124, 128, 131, 185, 189 and 199. The miss is
  truncation error of the central difference at ``COMPOSED_FD_STEP``,
  not the tape: at seed 199 it reads 2.5e-1, 2.9e-2, 3.3e-3 and 3.0e-4
  at steps 1e-3, 3e-4, 1e-4 and 3e-5, falling as the step squared, and a
  5-point stencil at step 1e-4 misses by at most 3.4e-7, 7.8e-7 and
  4.3e-6 at seeds 18, 51 and 199.
* the op cases fail at 5 seeds, by 1.06e-6 to 9.52e-6, from
  cancellation: ``gabor_trunk`` at 52, 79 and 114 and
  ``chain_softmax_log`` at 57 and 144.
Tolerances and steps stay as set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError

FD_STEP = 1e-5
# The composed check differences a loss whose wavelet layers carry
# curvature of order omega0^2 = 100. A coarser step cuts float64
# cancellation noise well under the tolerance (at 1e-5 the noise alone can
# reach ~1e-4 relative), but its truncation error, which grows as the step
# squared, is what fails the composed case at 21 of seeds 0-199.
COMPOSED_FD_STEP = 1e-4
REL_ERR_FLOOR = 1e-6
OP_TOL = 1e-6
COMPOSED_TOL = 1e-4


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, REL_ERR_FLOOR)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numerical_gradient(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one element at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(f(x))
        flat[i] = keep - step
        lo = float(f(x))
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


@dataclass
class GradCheckReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_rel_err(self) -> float:
        return max((r.max_rel_err for r in self.results), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            out.append(f"{status:4s} {r.name:32s} max_rel_err={r.max_rel_err:.3e} tol={r.tol:.0e}")
        return out


def check_scalar_fn(name: str, build, params: list[np.ndarray],
                    tol: float = OP_TOL, step: float = FD_STEP) -> CheckResult:
    """Compare tape gradients of build(params)->Tensor scalar against FD.

    ``build`` receives the list of parameter Tensors and must return a
    scalar Tensor computed from them (recorded on the active tape).
    """
    tensors = [ad.Tensor(np.array(p, dtype=np.float64)) for p in params]
    with ad.Tape(wrt=tensors) as tape:
        loss = build(tensors)
        if loss.values.size != 1:
            raise ContractError(f"gradcheck '{name}': build must return a scalar")
        tape.backward(loss)
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for k in range(len(params)):
        def f(x, k=k):
            trial = [ad.Tensor(x if i == k else np.array(params[i], dtype=np.float64))
                     for i in range(len(params))]
            with ad.Tape():
                return build(trial).item()

        fd = numerical_gradient(f, params[k], step=step)
        worst = max(worst, relative_error(analytic[k], fd))
    return CheckResult(name=name, max_rel_err=worst, tol=tol)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0x67D, seed]))


def run_op_checks(seed: int = 0) -> GradCheckReport:
    """Finite-difference check every differentiable op at random inputs.

    Each op's output is contracted to a scalar with a fixed random weight
    so the incoming gradient exercises all elements.
    """
    report = GradCheckReport()
    rng = _rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # offset keeps div and log well away from 0
    w = rng.normal(size=(3, 4))
    pos = rng.uniform(0.2, 2.0, size=(3, 4))
    m1 = rng.normal(size=(3, 5))
    m2 = rng.normal(size=(5, 2))
    wm = rng.normal(size=(3, 2))
    bias = rng.normal(size=2)
    wide = rng.normal(size=(3, 7))
    wide_coef = rng.normal(size=(3, 7))
    coords = rng.normal(size=(3, 2))
    latent = rng.normal(size=3)
    # a trunk of two residual blocks [3,4] -> [3,5] -> [3,4]. Its
    # pre-activations stay inside the wavelet's envelope: with a wider
    # input, FD truncation on w1 (curvature ~ omega0^2 times |x|^2) passes
    # 1e-6 relative on gradients that cancel over rows.
    blk = [tuple(0.1 * rng.normal(size=shape) for shape in ((4, 5), 5, (5, 4), 4))
           for _ in range(2)]
    # the trunk's input layer maps coords and latent to width 4; its 0.1
    # weights keep the first block's pre-activations as small as the rest
    w_in, b_in = 0.1 * rng.normal(size=(5, 4)), 0.1 * rng.normal(size=4)
    # a one-block trunk of other widths, [3,3] -> [3,6] -> [3,3], drawn last
    # so that every other case keeps its inputs
    one_in = [0.1 * rng.normal(size=shape) for shape in ((5, 3), 3)]
    one_blk = [0.1 * rng.normal(size=shape) for shape in ((3, 6), 6, (6, 3), 3)]

    def contract(t, weights):
        return ad.reduce_sum(ad.mul(t, ad.Tensor(weights)))

    cases = [
        ("add", lambda p: contract(ad.add(p[0], p[1]), w), [a, b]),
        ("add_scalar", lambda p: contract(ad.add(p[0], 1.7), w), [a]),
        ("sub", lambda p: contract(ad.sub(p[0], p[1]), w), [a, b]),
        ("sub_from_scalar", lambda p: contract(ad.sub(1.0, p[0]), w), [a]),
        ("mul", lambda p: contract(ad.mul(p[0], p[1]), w), [a, b]),
        ("mul_scalar", lambda p: contract(ad.mul(p[0], -2.5), w), [a]),
        ("div", lambda p: contract(ad.div(p[0], p[1]), w), [a, b]),
        ("div_scalar", lambda p: contract(ad.div(p[0], 3.0), w), [a]),
        ("sum_squares", ad.sum_squares, [a, bias, latent]),
        ("sigmoid", lambda p: contract(ad.sigmoid(p[0]), w), [a]),
        ("log", lambda p: contract(ad.log(p[0]), w), [pos]),
        ("softmax", lambda p: contract(ad.softmax(p[0]), w), [a]),
        ("linear", lambda p: contract(ad.linear(p[0], p[1], p[2]), 0.5 + np.abs(wm)),
         [0.5 + np.abs(m1), 0.5 + np.abs(m2), bias]),
        ("gabor_trunk",
         lambda p: contract(ad.gabor_trunk(*p[:4], [p[4:8], p[8:12]], 10.0, 5.0), w),
         [coords, latent, w_in, b_in, *blk[0], *blk[1]]),
        ("gabor_trunk_one_block",
         lambda p: contract(ad.gabor_trunk(*p[:4], [p[4:8]], 10.0, 5.0), 0.5 + np.abs(w[:, :3])),
         [coords, latent, *one_in, *one_blk]),
        ("sum_all", lambda p: ad.reduce_sum(p[0]), [a]),
        ("sum_axis0", lambda p: ad.reduce_sum(ad.mul(ad.reduce_sum(p[0], axis=0),
                                                     ad.Tensor(w[0]))), [a]),
        ("mean_all", lambda p: ad.reduce_mean(p[0]), [a]),
        ("chain_softmax_log",
         lambda p: ad.reduce_mean(ad.mul(ad.log(ad.softmax(p[0])),
                                         ad.Tensor(wide_coef))),
         [wide]),
    ]
    for name, build, params in cases:
        report.results.append(check_scalar_fn(name, build, params))
    # astype rounds to float32 and back. Its input lies on a 2**-6 grid and
    # the difference step is 2**-10, so every perturbed input is a float32
    # value and the contraction, of one sign, is linear: the estimate is
    # exact to float64 roundoff, and the tape's gradient is the float32
    # rounding of the weights.
    report.results.append(check_scalar_fn(
        "astype", lambda p: contract(ad.astype(ad.astype(p[0], np.float32), np.float64),
                                     0.5 + np.abs(w)),
        [np.round(64.0 * a) / 64.0], step=2.0 ** -10))
    return report


def run_model_check(seed: int = 0) -> GradCheckReport:
    """Finite-difference check the full training objective of a small model.

    Gradients with respect to every network weight, bias, and the latent
    vector are verified in one composed pass through the joint loss.
    """
    from .losses import LossWeights, train_loss
    from .model import FieldModel, ModelConfig

    cfg = ModelConfig(num_res_layers=2, hidden_width=8, latent_dim=4,
                      coord_dim=4, num_classes=4)
    model = FieldModel.init(cfg, seed=seed)
    rng = _rng(seed + 1)
    batch = 6
    coords = rng.uniform(0.0, 1.0, size=(batch, cfg.coord_dim))
    labels = rng.integers(0, cfg.num_classes, size=batch)
    intensities = rng.uniform(0.05, 0.95, size=batch)
    latent_values = rng.normal(scale=0.1, size=cfg.latent_dim)

    names = [*model.param_names(), "latent"]
    arrays = [*(model.params[n].values for n in model.param_names()), latent_values]
    weights = LossWeights()

    def build(tensors):
        trial = FieldModel(cfg, dict(zip(names[:-1], tensors[:-1])))
        return train_loss(trial, tensors[-1], coords, intensities, labels, weights).total

    report = GradCheckReport()
    report.results.append(
        check_scalar_fn("composed_training_loss", build,
                        [np.array(x) for x in arrays], tol=COMPOSED_TOL,
                        step=COMPOSED_FD_STEP))
    return report
