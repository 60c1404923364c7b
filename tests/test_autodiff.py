"""Tape autodiff: gradient correctness, determinism, and edge behavior."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nisf.autodiff as ad
from nisf.errors import ContractError, DimensionError, NumericalError
from nisf.gradcheck import numerical_gradient, relative_error, run_op_checks
from oracles import composed_trunk, gabor, latent_linear


def test_every_op_matches_finite_differences():
    report = run_op_checks(seed=0)
    assert report.passed, "\n".join(report.lines())


def test_op_checks_are_seed_robust():
    for seed in (1, 2, 3):
        report = run_op_checks(seed=seed)
        assert report.passed, f"seed {seed}:\n" + "\n".join(report.lines())


def test_backward_without_tape_raises():
    x = ad.Tensor(np.ones(3))
    y = ad.mul(x, x)  # no active tape: not recorded
    with ad.Tape(wrt=[x]) as tape, pytest.raises(ContractError, match="empty tape"):
        tape.backward(ad.reduce_sum(y))


def test_grad_accumulates_over_reuse():
    # f(x) = sum(x*x + x) -> df/dx = 2x + 1, with x used by two ops
    x = ad.Tensor(np.array([1.0, -2.0, 0.5]))
    with ad.Tape(wrt=[x]) as tape:
        y = ad.add(ad.mul(x, x), x)
        tape.backward(ad.reduce_sum(y))
    np.testing.assert_allclose(x.grad, 2.0 * x.values + 1.0)


def test_non_grad_leaf_gets_no_gradient():
    x = ad.Tensor(np.ones(4))
    c = ad.Tensor(np.full(4, 2.0))
    with ad.Tape(wrt=[x]) as tape:
        tape.backward(ad.reduce_sum(ad.mul(x, c)))
    assert x.grad is not None
    assert c.grad is None


def test_another_tapes_output_is_a_constant():
    # a tape records for its named leaves and its own outputs only
    x = ad.Tensor(np.array([1.0, 2.0, 3.0]))
    with ad.Tape(wrt=[x]) as first:
        y = ad.mul(x, x)
    with ad.Tape() as second:
        ad.mul(y, 2.0)
    with ad.Tape(wrt=[x]) as third:
        third.backward(ad.reduce_sum(ad.mul(y, x)))
    assert (len(first), len(second), len(third)) == (1, 0, 2)
    np.testing.assert_array_equal(x.grad, y.values)


def test_intermediate_gradients_are_freed():
    x = ad.Tensor(np.ones((5, 3)))
    with ad.Tape(wrt=[x]) as tape:
        mid = ad.mul(x, x)
        out = ad.reduce_sum(ad.mul(mid, 3.0))
        tape.backward(out)
    assert mid.grad is None  # only leaves keep gradients after backward
    assert out.grad is None
    np.testing.assert_allclose(x.grad, 6.0 * np.ones((5, 3)))


def test_rule_holds_the_only_reference_to_its_gradient():
    # Tape.backward hands each rule its gradient without keeping a reference
    # of its own, so a rule that drops the array frees it (gabor_trunk's
    # rule rewrites it in place and hands it on instead of copying).
    x = ad.Tensor(np.ones(3))
    freed = []
    with ad.Tape(wrt=[x]) as tape:
        sx = ad._grad_slot(x)

        def rule(g):
            ref = weakref.ref(g)
            del g
            freed.append(ref() is None)
            ad._accumulate(sx, np.full(3, 2.0))

        probe = ad._make_output(2.0 * x.values, "probe", (sx,), rule)
        tape.backward(ad.reduce_sum(probe))
    assert freed == [True]
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_log_clamps_and_zeroes_gradient_below_eps():
    vals = np.array([0.5, 0.0, -1.0, ad.LOG_EPS])
    x = ad.Tensor(vals.copy())
    with ad.Tape(wrt=[x]) as tape:
        y = ad.log(x)
        tape.backward(ad.reduce_sum(y))
    assert np.all(np.isfinite(y.values))
    assert y.values[1] == np.log(ad.LOG_EPS)
    assert y.values[2] == np.log(ad.LOG_EPS)
    # clamped entries contribute zero slope; the boundary itself is live
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 0.0, 1.0 / ad.LOG_EPS])


def test_sigmoid_is_stable_for_large_inputs():
    x = ad.Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    with ad.Tape(wrt=[x]) as tape:
        y = ad.sigmoid(x)
        tape.backward(ad.reduce_sum(y))
    assert np.all(np.isfinite(y.values))
    assert np.all(np.isfinite(x.grad))
    assert y.values[0] == 0.0 or y.values[0] < 1e-300
    assert y.values[-1] == 1.0 or y.values[-1] > 1.0 - 1e-300


def test_softmax_rows_sum_to_one_with_extreme_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=300.0, size=(64, 4))
    out = ad.softmax(ad.Tensor(logits))
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-9)
    assert out.values.min() >= 0.0


def test_softmax_rejects_degenerate_last_axis():
    with pytest.raises(DimensionError):
        ad.softmax(ad.Tensor(np.ones((3, 1))))


def test_shape_mismatch_raises_dimension_error():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        ad.add(a, b)
    with pytest.raises(DimensionError):
        ad.mul(a, b)


def test_no_silent_numpy_broadcasting():
    # row-vector-to-matrix broadcasting happens only inside the fused layers
    a = ad.Tensor(np.ones((4, 3)))
    v = ad.Tensor(np.ones(3))
    with pytest.raises(DimensionError):
        ad.add(a, v)
    out = ad.linear(a, ad.Tensor(np.eye(3)), v)
    assert out.shape == (4, 3)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_finite_check_catches_nan_result():
    x = ad.Tensor(np.array([1e308]))
    with pytest.raises(NumericalError):
        with ad.Tape(wrt=[x]):
            ad.mul(x, 10.0)  # overflows to inf


def test_astype_at_the_same_dtype_is_the_tensor_itself():
    x = ad.Tensor(np.array([1.0, -2.0]))
    with ad.Tape(wrt=[x]) as tape:
        assert ad.astype(x, np.float64) is x
    assert len(tape) == 0


def test_astype_gathers_at_its_dtype_and_widens_into_the_original():
    rng = np.random.default_rng(4)
    x64 = ad.Tensor(rng.normal(size=5))
    w1, w2 = rng.normal(size=5).astype(np.float32), rng.normal(size=5).astype(np.float32)
    with ad.Tape(wrt=[x64]) as tape:
        x32 = ad.astype(x64, np.float32)
        assert x32.dtype == np.float32 and np.array_equal(x32.values,
                                                          x64.values.astype(np.float32))
        # two readers of one cast: their gradients gather in its float32 slot
        tape.backward(ad.add(ad.reduce_sum(ad.mul(x32, ad.Tensor(w1))),
                             ad.reduce_sum(ad.mul(x32, ad.Tensor(w2)))))
    gathered = w1 + w2  # added in float32
    assert gathered.dtype == np.float32
    assert x64.grad.dtype == np.float64
    assert np.array_equal(x64.grad, gathered.astype(np.float64))
    assert x32.grad is None


def test_astype_outside_a_tape_is_a_plain_copy():
    x = ad.Tensor(np.array([0.1, 2.5]))
    y = ad.astype(x, np.float32)
    assert y.dtype == np.float32 and y._slot is None
    assert np.array_equal(y.values, np.array([0.1, 2.5], dtype=np.float32))
    y.values[0] = 7.0
    assert x.values[0] == 0.1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_astype_out_of_float32_range_raises():
    x = ad.Tensor(np.array([1.0, 1e300]))
    with pytest.raises(NumericalError, match="astype"):
        with ad.Tape(wrt=[x]):
            ad.astype(x, np.float32)


def test_batched_forward_is_bitwise_equal_to_singletons():
    # BLAS kernels must not make row results depend on batch size
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    full = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).values
    for i in range(7):
        single = ad.linear(ad.Tensor(x[i:i + 1]), ad.Tensor(w), ad.Tensor(b)).values
        assert np.array_equal(full[i:i + 1], single)


def test_gemm_single_column_rows_are_batch_invariant():
    # BLAS edge kernels for narrow products sum a row by its batch position
    rng = np.random.default_rng(4)
    x = rng.normal(size=(53, 16))
    w = ad.Tensor(rng.normal(size=(16, 1)))
    b = ad.Tensor(rng.normal(size=1))
    full = ad.linear(ad.Tensor(x), w, b).values
    np.testing.assert_allclose(full, x @ w.values + b.values, rtol=1e-14, atol=1e-14)
    for lo in range(0, 53, 7):
        part = ad.linear(ad.Tensor(x[lo:lo + 7]), w, b).values
        assert np.array_equal(part, full[lo:lo + 7])
    assert np.array_equal(ad.linear(ad.Tensor(x[8:9]), w, b).values, full[8:9])


# input-gradient rows are compared at these batch sizes against a larger batch
SMALL_AND_TILE_EDGE_ROWS = [*range(1, 130), 1023, 1024, 1025]


def test_contiguous_transposed_products_are_batch_invariant():
    # Input gradients multiply by contiguous copies of w.T. Their rows are the
    # same at every batch size, ragged tiles included, and equal the
    # transposed view's product over the whole batch; the view's own rows
    # change in small batches (OpenBLAS 0.3.31: below ten rows at width 128).
    rng = np.random.default_rng(11)
    g = rng.normal(size=(8195, 128))
    w = rng.normal(scale=0.1, size=(128, 128))
    w_t = np.ascontiguousarray(w.T)
    full = ad._gemm(g, w_t)
    assert np.array_equal(full, g @ w.T)
    for rows in (1, 1023, 1024, 1025, 8195):
        assert np.array_equal(ad._gemm(g[:rows], w_t), full[:rows]), rows
        assert np.array_equal(ad._gemm(g[-rows:], w_t), full[-rows:]), rows
    tiles = [ad._gemm(g[lo:lo + 1024], w_t) for lo in range(0, 8195, 1024)]
    assert np.array_equal(np.concatenate(tiles), full)
    # so the input gradients of linear and of the trunk, which multiply by
    # such copies, have the same rows at every batch size
    for n in (128, 4, 1):
        _check_linear_input_gradient_rows(n)
    _check_trunk_input_gradient_rows()


def _input_grad_rows(op, arrays, coef, rows):
    # the gradient of sum(op(...) * coef) with respect to arrays[0], whose
    # first ``rows`` rows are the batch; the others are shared by every row
    x = ad.Tensor(arrays[0][:rows])
    with ad.Tape(wrt=[x]) as tape:
        out = op(x, *(ad.Tensor(v) for v in arrays[1:]))
        tape.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(coef[:rows]))))
    return x.grad


def _check_linear_input_gradient_rows(n):
    # [B,n] @ [n,128]: a layer of the trunk's width and the two heads. With
    # the transposed view, rows of batches below 10 (n = 128) or of one row
    # (n = 4) differ from the same rows in a large batch.
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(2100, 128)), rng.normal(scale=0.1, size=(128, n)),
              rng.normal(size=n)]
    coef = rng.normal(size=(2100, n))
    full = _input_grad_rows(ad.linear, arrays, coef, 2100)
    for rows in SMALL_AND_TILE_EDGE_ROWS:
        assert np.array_equal(_input_grad_rows(ad.linear, arrays, coef, rows),
                              full[:rows]), (n, rows)


def _check_trunk_input_gradient_rows():
    # the coordinate gradient through two blocks of width 128 and the input
    # layer; the full batch runs in three tiles, the last one ragged
    rng = np.random.default_rng(14)
    width = 128
    arrays = [rng.uniform(size=(2100, 4)), rng.normal(scale=0.1, size=width),
              rng.normal(scale=0.3 / np.sqrt(width), size=(4 + width, width)),
              rng.normal(scale=0.1, size=width)]
    for _ in range(2):
        arrays += [rng.normal(scale=0.3 / np.sqrt(width), size=(width, width)),
                   rng.normal(scale=0.1, size=width),
                   rng.normal(scale=0.3 / np.sqrt(width), size=(width, width)),
                   rng.normal(scale=0.1, size=width)]
    coef = rng.normal(size=(2100, width))

    def trunk(*tensors):
        return _trunk(ad.gabor_trunk, tensors)

    full = _input_grad_rows(trunk, arrays, coef, 2100)
    for rows in SMALL_AND_TILE_EDGE_ROWS:
        assert np.array_equal(_input_grad_rows(trunk, arrays, coef, rows), full[:rows]), rows


def test_gabor_matches_composed_definition():
    rng = np.random.default_rng(5)
    x = rng.normal(scale=0.2, size=(10, 3))
    out = gabor(ad.Tensor(x), 10.0, 5.0).values
    expect = np.cos(10.0 * x) * np.exp(-np.square(5.0 * x))
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-15)
    scalar = gabor(ad.Tensor(x[0, 0]), 10.0, 5.0)
    assert scalar.shape == ()
    np.testing.assert_allclose(scalar.values, expect[0, 0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("s0", [5.0, 0.25])
def test_gabor_accurate_at_trained_scale(s0):
    # Trained pre-activations reach |x| ~ 4, so |omega0*x| ~ 40 at omega0=10;
    # next to omega0*x = (2k+1)*pi the half-angle tangent is ~1e16. s0=0.25
    # keeps the envelope wide enough that errors in cos/sin stay visible.
    omega0 = 10.0
    rng = np.random.default_rng(11)
    poles = np.arange(-11, 12, 2) * np.pi / omega0
    near = np.concatenate([poles, np.nextafter(poles, np.inf),
                           np.nextafter(poles, -np.inf), poles * (1 + 1e-12)])
    x = np.concatenate([rng.uniform(-4.0, 4.0, size=4000), near, [0.0, -4.0, 4.0]])
    x = x.reshape(-1, 1)
    assert np.abs(np.tan(0.5 * omega0 * x)).max() > 1e15
    envelope = np.exp(-np.square(s0 * x))
    value = np.cos(omega0 * x) * envelope
    deriv = -omega0 * np.sin(omega0 * x) * envelope - 2.0 * s0 * s0 * x * value
    # both kernel branches, in row blocks of 1000: the 4051 rows end in a
    # ragged block of 51
    assert x.shape[0] % 1000 == 51
    _check_gabor_kernel(x, omega0, s0, value, deriv, 1e-14, 1e-14)
    # Latent fits run the kernel in float32. Against float64 on the same
    # (rounded) inputs, the float32 phase omega0*x/2 is off by up to ~20
    # float32 ulp, so values are good to ~1e-6 and derivatives to omega0
    # times that (1.0e-6 and 9.1e-6 measured at s0=0.25).
    x32 = x.astype(np.float32)
    xr = x32.astype(np.float64)
    envelope = np.exp(-np.square(s0 * xr))
    value = np.cos(omega0 * xr) * envelope
    deriv = -omega0 * np.sin(omega0 * xr) * envelope - 2.0 * s0 * s0 * xr * value
    _check_gabor_kernel(x32, omega0, s0, value, deriv, 3e-6, 3e-5)


def _check_gabor_kernel(x, omega0, s0, value, deriv, value_atol, deriv_atol):
    outputs = []
    for with_deriv in (False, True):
        v = x.copy()
        got = np.empty_like(x) if with_deriv else None
        ad._gabor_kernel(v, omega0, s0, got, ad._kernel_scratch(1000, 1, with_deriv, x.dtype))
        assert v.dtype == x.dtype
        np.testing.assert_allclose(v, value, rtol=0, atol=value_atol)
        if with_deriv:
            assert got.dtype == x.dtype and np.all(np.isfinite(got))
            np.testing.assert_allclose(got, deriv, rtol=0, atol=deriv_atol)
        outputs.append(v)
    assert np.array_equal(outputs[0], outputs[1])


def test_latent_linear_matches_concat_formulation():
    # reference: tile h over rows, concatenate with coords, one product
    rng = np.random.default_rng(6)
    coords = rng.uniform(0.0, 1.0, size=(53, 4))
    h = rng.normal(size=8)
    w = rng.normal(size=(12, 5))
    b = rng.normal(size=5)
    coef = rng.normal(size=(53, 5))
    x = np.concatenate([coords, np.tile(h, (53, 1))], axis=1)
    tensors = [ad.Tensor(v) for v in (coords, h, w, b)]
    with ad.Tape(wrt=tensors) as tape:
        out = latent_linear(*tensors)
        tape.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(coef))))
    expect_grads = [coef @ w[:4].T, w[4:] @ coef.sum(axis=0), x.T @ coef, coef.sum(axis=0)]
    np.testing.assert_allclose(out.values, x @ w + b, rtol=1e-14, atol=1e-14)
    for t, expect in zip(tensors, expect_grads):
        assert t.grad.shape == t.shape
        np.testing.assert_allclose(t.grad, expect, rtol=1e-14, atol=1e-14)
    single = latent_linear(ad.Tensor(coords[:1]), ad.Tensor(h), ad.Tensor(w), ad.Tensor(b))
    assert np.array_equal(single.values, out.values[:1])
    with pytest.raises(DimensionError):
        latent_linear(ad.Tensor(coords), ad.Tensor(h[:7]), ad.Tensor(w), ad.Tensor(b))


# the trunk runs in tiles of block_rows(24) rows: two full ones and a ragged
# one of 3 rows, whose backward products take BLAS's small-matrix path
MULTI_TILE_ROWS = 2 * ad.block_rows(24) + 3


def _trunk_arrays(rows, num_blocks, rng):
    # coords [rows, 4] and h [8] -> x [rows, 24] -> pre [rows, 128] -> out
    # [rows, 24] per block: at width 128 a wavelet row block is 204 rows with
    # a derivative and 512 without, so 2500 rows end in a ragged block either way
    c, d, n, k = 4, 8, 24, 128
    arrays = [rng.uniform(size=(rows, c)), rng.normal(size=d),
              rng.normal(scale=0.3, size=(c + d, n)), rng.normal(scale=0.1, size=n)]
    for _ in range(num_blocks):
        arrays += [rng.normal(scale=0.3 / np.sqrt(n), size=(n, k)), rng.normal(scale=0.1, size=k),
                   rng.normal(scale=0.3 / np.sqrt(k), size=(k, n)), rng.normal(scale=0.1, size=n)]
    return arrays


def _trunk(fn, tensors):
    blocks = [tuple(tensors[i:i + 4]) for i in range(4, len(tensors), 4)]
    return fn(*tensors[:4], blocks, 10.0, 5.0)


def _check_matches_composed(rows, wrt, num_blocks):
    # the one-entry trunk keeps the bits of latent_linear followed by the
    # chained five-op blocks: value and every gradient
    rng = np.random.default_rng(7)
    arrays = _trunk_arrays(rows, num_blocks, rng)
    coef = ad.Tensor(rng.normal(size=(rows, 24)))
    # "x" is the coordinates alone, "h" the latent alone (a latent-only step)
    grads = {"all": range(len(arrays)), "x": [0], "h": [1], "none": [],
             "w2": range(6, len(arrays), 4)}[wrt]

    def run(fn):
        tensors = [ad.Tensor(v.copy()) for v in arrays]
        with ad.Tape(wrt=[tensors[i] for i in grads]) as tape:
            out = _trunk(fn, tensors)
            if grads:
                tape.backward(ad.reduce_sum(ad.mul(out, coef)))
        frozen = _trunk(fn, tensors).values
        assert np.array_equal(frozen, out.values)
        return out.values, [t.grad for t in tensors]

    fused, fused_grads = run(ad.gabor_trunk)
    plain, plain_grads = run(composed_trunk)
    assert np.array_equal(fused, plain), num_blocks
    for i, (got, expect) in enumerate(zip(fused_grads, plain_grads)):
        assert (got is None) == (i not in grads), (num_blocks, i)
        assert got is None or np.array_equal(got, expect), (num_blocks, i)


def _check_second_backward_doubles(num_blocks):
    rng = np.random.default_rng(8)
    tensors = [ad.Tensor(v) for v in _trunk_arrays(40, num_blocks, rng)]
    coef = ad.Tensor(rng.normal(size=(40, 24)))
    with ad.Tape(wrt=tensors) as tape:
        loss = ad.reduce_sum(ad.mul(_trunk(ad.gabor_trunk, tensors), coef))
        tape.backward(loss)
        once = [t.grad.copy() for t in tensors]
        tape.backward(loss)
    for t, g in zip(tensors, once):
        assert np.array_equal(t.grad, 2.0 * g)


def _check_rejects_nan(arrays):
    arrays[0][3, 2] = np.nan
    with pytest.raises(NumericalError, match="gabor_trunk"):
        _trunk(ad.gabor_trunk, [ad.Tensor(v) for v in arrays])
    arrays[0][3, 2] = 0.0


@pytest.mark.parametrize("rows", [1, 53, 2500, MULTI_TILE_ROWS])
@pytest.mark.parametrize("wrt", ["all", "x", "h", "w2", "none"])
def test_gabor_block_matches_composed_ops(rows, wrt):
    # a single residual block: the trunk op with one block
    _check_matches_composed(rows, wrt, 1)


@pytest.mark.parametrize("rows", [1, 53, 2500, MULTI_TILE_ROWS])
@pytest.mark.parametrize("wrt", ["all", "x", "h", "w2", "none"])
def test_gabor_trunk_matches_composed_ops(rows, wrt):
    for num_blocks in (3, 8):
        _check_matches_composed(rows, wrt, num_blocks)


def test_gabor_block_second_backward_doubles_gradients():
    _check_second_backward_doubles(1)


def test_gabor_trunk_second_backward_doubles_gradients():
    _check_second_backward_doubles(3)


def test_gabor_block_rejects_non_finite_and_bad_shapes():
    arrays = _trunk_arrays(5, 1, np.random.default_rng(9))
    _check_rejects_nan(arrays)
    narrow_coords = [arrays[0][:, :3]] + arrays[1:]
    bad_w1 = arrays[:4] + [arrays[4][:5]] + arrays[5:]
    flat_coords = [arrays[0].reshape(-1)] + arrays[1:]
    for bad in (narrow_coords, bad_w1, flat_coords):
        with pytest.raises(DimensionError):
            _trunk(ad.gabor_trunk, [ad.Tensor(v) for v in bad])


def test_gabor_trunk_rejects_non_finite_and_bad_shapes():
    arrays = _trunk_arrays(5, 2, np.random.default_rng(9))
    _check_rejects_nan(arrays)
    narrow_coords = [arrays[0][:, :3]] + arrays[1:]
    bad_w2 = arrays[:10] + [arrays[10][:, :5]] + arrays[11:]
    for bad in (narrow_coords, bad_w2):
        with pytest.raises(DimensionError):
            _trunk(ad.gabor_trunk, [ad.Tensor(v) for v in bad])
    with pytest.raises(ContractError, match="at least one block"):
        ad.gabor_trunk(*[ad.Tensor(v) for v in arrays[:4]], [], 10.0, 5.0)


def _sum_squares_chain(tensors):
    acc = ad.reduce_sum(ad.mul(tensors[0], tensors[0]))
    for t in tensors[1:]:
        acc = ad.add(acc, ad.reduce_sum(ad.mul(t, t)))
    return acc


def test_sum_squares_matches_composed_chain():
    # The priors of a default training step: 38 parameters and the latent,
    # each also read by a second consumer recorded first, as the forward is.
    from nisf.model import FieldModel, ModelConfig

    model = FieldModel.init(ModelConfig(), seed=0)
    rng = np.random.default_rng(12)
    arrays = [p.values for p in model.parameters()] + [rng.normal(scale=0.1, size=128)]
    coefs = [rng.normal(size=v.shape) for v in arrays]

    def run(prior):
        tensors = [ad.Tensor(v.copy()) for v in arrays]
        with ad.Tape(wrt=tensors) as tape:
            other = ad.reduce_sum(ad.mul(tensors[0], ad.Tensor(coefs[0])))
            for t, c in zip(tensors[1:], coefs[1:]):
                other = ad.add(other, ad.reduce_sum(ad.mul(t, ad.Tensor(c))))
            l2 = prior(tensors)
            tape.backward(ad.add(other, ad.mul(l2, 1e-3)))
        return l2.values, [t.grad for t in tensors]

    fused, fused_grads = run(ad.sum_squares)
    plain, plain_grads = run(_sum_squares_chain)
    assert len(fused_grads) == 39
    assert np.array_equal(fused, plain)
    for i, (got, expect) in enumerate(zip(fused_grads, plain_grads)):
        assert np.array_equal(got, expect), i


def test_same_seed_same_graph_same_gradients():
    def build(seed):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(6, 4)))
        w = ad.Tensor(rng.normal(size=(4, 3)))
        b = ad.Tensor(rng.normal(size=3))
        with ad.Tape(wrt=[x, w, b]) as tape:
            y = gabor(ad.linear(x, w, b), 10.0, 5.0)
            tape.backward(ad.reduce_mean(ad.mul(y, y)))
        return x.grad.copy(), w.grad.copy(), b.grad.copy()

    for first, second in zip(build(11), build(11)):
        assert np.array_equal(first, second)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_always_normalized(rows, cols, seed):
    logits = np.random.default_rng(seed).normal(scale=50.0, size=(rows, cols))
    out = ad.softmax(ad.Tensor(logits)).values
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_reduce_mean_gradient_is_uniform(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(3, 5)))
    with ad.Tape(wrt=[x]) as tape:
        tape.backward(ad.reduce_mean(x))
    np.testing.assert_allclose(x.grad, np.full((3, 5), 1.0 / 15.0))


def _complex_step_gradient(a0, step=1e-30):
    # d/dx of mean(sigmoid(cos(3x) * exp(-(0.5x)^2) * 2x)) in plain numpy, one
    # element at a time as Im f(x + i*step*e_k) / step: no difference is
    # taken, so the result is exact to rounding at any step this small
    grad = np.empty_like(a0)
    for k in np.ndindex(a0.shape):
        z = a0.astype(np.complex128)
        z[k] += 1j * step
        y = np.cos(3.0 * z) * np.exp(-np.square(0.5 * z)) * (2.0 * z)
        grad[k] = np.mean(1.0 / (1.0 + np.exp(-y))).imag / step
    return grad


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@example(seed=727)
@example(seed=2709)
@example(seed=114270)
@settings(max_examples=15, deadline=None)
def test_chain_rule_against_fd_random_graphs(seed):
    # The reference is the complex-step derivative, not a central difference:
    # at the pinned seeds the difference, not the tape, misses by 1.1e-6 to
    # 1.3e-6, while the complex step agrees with the tape to 1e-12.
    a0 = np.random.default_rng(seed).normal(size=(4, 3))
    x = ad.Tensor(a0.copy())
    with ad.Tape(wrt=[x]) as tape:
        tape.backward(ad.reduce_mean(ad.sigmoid(ad.mul(gabor(x, 3.0, 0.5), ad.mul(x, 2.0)))))
    assert relative_error(x.grad, _complex_step_gradient(a0)) <= 1e-6


def test_numerical_gradient_of_quadratic():
    f = lambda x: float((x ** 2).sum())
    x = np.array([1.0, -3.0, 0.25])
    np.testing.assert_allclose(numerical_gradient(f, x), 2 * x, atol=1e-7)
