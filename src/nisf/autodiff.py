"""Dense real tensors with a reverse-mode automatic differentiation tape.

Design notes:

* numpy arrays are the storage; the tape and all backward rules are
  implemented here. New tensors are float64 (finite differences are
  unreliable in float32); a float32 array passed in is kept as is.
* The op set is what the model and the losses run: layers ``linear``,
  ``latent_linear`` and ``gabor_trunk``; elementwise ``add``, ``sub``,
  ``mul``, ``div``, ``sigmoid``, ``log``, ``gabor`` and ``softmax``;
  reductions ``reduce_sum``, ``reduce_mean`` and ``sum_squares``.
  ``gabor`` is the composed reference that ``gabor_trunk`` is tested
  against.
* Broadcasting is deliberately restricted to scalar-with-tensor and
  equal-shape operands so every backward rule stays auditable. The only
  row-broadcasts are fused into layers: ``linear`` adds a row-vector
  bias, ``latent_linear`` conditions every row of a coordinate batch
  on one shared latent vector without ever tiling it, and ``gabor_trunk``
  computes every residual block x + gabor(x @ w1 + b1) @ w2 + b2 of the
  trunk as one entry that keeps only the arrays its backward reads.
  ``sum_squares`` records a whole L2 prior over a list of tensors as one
  entry.
* ``Tape.backward`` detaches each entry's output gradient before calling
  its rule, so the rule owns the only reference and may drop it early.
* Every operation validates that its output is finite; a NaN/Inf raises
  ``NumericalError`` instead of propagating silently.
* Gradient tracking happens only while a ``Tape`` is active. Evaluating
  a frozen model outside a tape records nothing and is safe to run from
  many threads (pure reads).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

LOG_EPS = 1e-12  # single numerical guard: log(x) reads max(x, LOG_EPS)
# Row blocks and frozen query chunks are sized so that one [rows, width]
# float64 array fills this many bytes and fits a core's L2 cache (2 MiB on
# a Xeon with AVX-512) instead of streaming from memory.
L2_BLOCK_BYTES = 1 << 20

_active_tape: "Tape | None" = None


def active_tape() -> "Tape | None":
    return _active_tape


class Tensor:
    """A dense n-dimensional real array with optional gradient tracking."""

    __slots__ = ("values", "grad", "requires_grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def reset_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class Tape:
    """Ordered record of executed operations with their backward rules.

    Entries are appended in execution order, so inputs of any op were
    recorded before the op itself; ``backward`` walks the record in
    reverse. Repeated ``backward`` calls accumulate into leaf gradients
    (clear with ``Tensor.reset_grad``). A tape is confined to one logical
    training context; it is not safe to share a recording tape between
    threads.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._prev: Tape | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __enter__(self) -> "Tape":
        global _active_tape
        self._prev = _active_tape
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_tape
        _active_tape = self._prev
        self._prev = None

    def record(self, output: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._entries.append((output, backward))

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of every requires_grad leaf reachable from ``loss``."""
        if loss.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._entries:
            raise ContractError("backward on an empty tape")
        # Intermediate grads are per-walk scratch; leaves accumulate across walks.
        for out, _ in self._entries:
            out.grad = None
        loss.grad = np.ones_like(loss.values)
        for out, rule in reversed(self._entries):
            if out.grad is not None:
                rule(_take_grad(out))


def _take_grad(t: Tensor) -> np.ndarray:
    # Complete once the walk reaches t (its consumers were recorded later,
    # hence walked). Passed straight into the rule, it is the rule's only
    # reference, so ``gabor_trunk`` frees it when it moves on to a block's input.
    g, t.grad = t.grad, None
    return g


# ---------------------------------------------------------------------------
# op plumbing


def _check_finite(vals: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"op '{op}' produced non-finite values")


def _make_output(vals: np.ndarray, op: str, inputs: Sequence[Tensor],
                 backward: Callable[[np.ndarray], None] | None) -> Tensor:
    _check_finite(vals, op)
    needs = _active_tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(vals, requires_grad=needs)
    if needs:
        _active_tape.record(out, backward)
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``owned`` marks an array the rule has just allocated and shares with
    nothing else; a first gradient then takes it over instead of copying.
    """
    if t.grad is None:
        if owned and g.dtype == t.values.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.values.dtype, copy=True)
    else:
        t.grad += g


def _as_operands(a, b, op: str):
    """Resolve a binary op's operands under the restricted broadcasting rule."""
    at, bt = isinstance(a, Tensor), isinstance(b, Tensor)
    if at and bt:
        if a.shape != b.shape:
            raise DimensionError(f"op '{op}' needs equal shapes, got {a.shape} and {b.shape}")
        return a, b, a.values, b.values
    if at and isinstance(b, (int, float)):
        return a, None, a.values, float(b)
    if bt and isinstance(a, (int, float)):
        return None, b, float(a), b.values
    raise DimensionError(f"op '{op}' takes tensors or python scalars, got {type(a)} and {type(b)}")


# ---------------------------------------------------------------------------
# matrix products


def _gemm(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Per-row results must be bit-identical across batch sizes. BLAS routes
    # m==1 through gemv-style kernels whose summation order differs from
    # gemm, so a single row is padded to two. OpenBLAS 0.3.31 runs products
    # with M*N*K <= 1e6 through small-matrix kernels; at K=128 and M >= 2
    # their rows depend on the batch size for N = 1-4, 9-12 and 100, and
    # are invariant for N = 5-8, 13-64 and 128. The heads (N = 1 and the
    # default 4 classes) therefore take numpy's own einsum loop, which sums
    # every row in the same order; the trunk's N = 128 stays on BLAS.
    # ``out`` receives the product in place, with the same bits.
    if y.shape[1] <= 4:
        return np.einsum("bk,kn->bn", x, y, out=out)
    if x.shape[0] < 2:
        pair = np.concatenate([x, x], axis=0) @ y
        if out is None:
            return np.ascontiguousarray(pair[:1])
        out[...] = pair[:1]
        return out
    return np.matmul(x, y, out=out)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b with a row-vector bias: one tape entry per layer."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"linear needs [B,k] @ [k,n] + [n], got {x.shape}, "
                             f"{w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"linear extents disagree: {x.shape}, {w.shape}, {b.shape}")
    vals = _gemm(x.values, w.values)
    vals += b.values  # _gemm's result is a fresh array

    def rule(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g @ w.values.T, owned=True)
        if w.requires_grad:
            _accumulate(w, x.values.T @ g, owned=True)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0), owned=True)

    return _make_output(vals, "linear", (x, w, b), rule)


def latent_linear(coords: Tensor, h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear`` of [coords | h] where one latent ``h`` [d] conditions every row.

    With ``w`` split row-wise into [w_c; w_h] at k = coords.shape[1], the
    output is coords @ w_c + (h @ w_h + b). The latent row is computed once
    per batch. The coordinate term is the sum of k rank-1 updates, taken
    by ``np.einsum`` (numpy's own loop, not BLAS), which accumulates each
    element's k products in order: each output row is a fixed sequence
    over its own coordinates, bit-identical at any batch size or
    composition. Backward sums the output gradient over rows once; ``h``
    and ``b`` read their gradients off that sum, and ``w`` gets
    [coords.T @ g ; outer(h, sum)].
    """
    if coords.ndim != 2 or h.ndim != 1 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"latent_linear needs [B,k], [d], [k+d,n], [n], got "
                             f"{coords.shape}, {h.shape}, {w.shape}, {b.shape}")
    k = coords.shape[1]
    if w.shape[0] != k + h.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"latent_linear extents disagree: {coords.shape}, "
                             f"{h.shape}, {w.shape}, {b.shape}")
    cv, hv, w_c, w_h = coords.values, h.values, w.values[:k], w.values[k:]
    vals = np.einsum("bk,kn->bn", cv, w_c)
    vals += hv @ w_h + b.values

    def rule(g: np.ndarray) -> None:
        g_sum = g.sum(axis=0)
        if coords.requires_grad:
            _accumulate(coords, g @ w_c.T, owned=True)
        if h.requires_grad:
            _accumulate(h, w_h @ g_sum, owned=True)
        if w.requires_grad:
            _accumulate(w, np.concatenate([cv.T @ g, np.outer(hv, g_sum)]), owned=True)
        if b.requires_grad:
            _accumulate(b, g_sum, owned=True)  # last reader of g_sum

    return _make_output(vals, "latent_linear", (coords, h, w, b), rule)


def block_rows(width: int) -> int:
    """Rows of a [rows, width] float64 array that fill ``L2_BLOCK_BYTES``.

    This is the trunk's row tile and a frozen query's chunk (1024 rows at
    width 128). ``block_rows(live * width)`` gives the rows at which
    ``live`` such arrays fill it together (see ``_kernel_scratch``).
    """
    return max(1, L2_BLOCK_BYTES // (8 * width))


def gabor_trunk(x: Tensor, blocks: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                omega0: float, s0: float) -> Tensor:
    """The residual Gabor trunk as one tape entry, run tile-major.

    Each ``(w1, b1, w2, b2)`` in ``blocks`` maps x to
    x + gabor(x @ w1 + b1) @ w2 + b2, and the blocks run in order. The
    batch runs in tiles of ``block_rows(width)`` rows, and each tile goes
    through every block before the next starts, so its arrays stay in L2
    instead of streaming from memory. Both products go through ``_gemm``
    and the wavelet runs in place over the pre-activation (see
    ``_gabor_kernel``). The finite check runs once, on the trunk output
    (a non-finite value cannot vanish through the skip path).

    Backward keeps, per block, only what it reads: the derivative while a
    gradient flows into the block's input or its ``w1``/``b1`` needs one,
    the block input only if ``w1`` does, and the wavelet values only if
    ``w2`` does. A latent-only step therefore holds one array per block.
    These saved arrays span the whole batch and each tile writes its rows
    into them in place; everything else is per-tile scratch.

    The backward is one reverse loop over the blocks. Each block runs its
    row-local chain (g @ w2.T, times the derivative, @ w1.T, plus g) tile
    by tile, and its weight and bias gradients as sums over the whole
    batch. Every elementwise step and every sum runs in the order of
    ``add(x, linear(gabor(linear(x, w1, b1)), w2, b2))`` chained over the
    blocks, so values and gradients are bit-identical to that composition
    wherever the products' rows do not depend on the batch (see
    ``_gemm``). A batch of one tile multiplies by the transposed weight
    views, as ``linear``'s rule does; a tiled batch multiplies by
    contiguous copies, whose rows are the same at any tile size, while the
    views' rows change in small ragged tiles (OpenBLAS 0.3.31, AVX-512).
    """
    if not blocks:
        raise ContractError("gabor_trunk needs at least one block")
    if x.ndim != 2:
        raise DimensionError(f"gabor_trunk needs a [B,n] input, got {x.shape}")
    n = x.shape[1]
    for w1, b1, w2, b2 in blocks:
        if w1.ndim != 2 or b1.ndim != 1 or w2.ndim != 2 or b2.ndim != 1:
            raise DimensionError(f"gabor_trunk blocks need [n,k], [k], [k,n], [n], got "
                                 f"{w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
        k = w1.shape[1]
        if w1.shape[0] != n or b1.shape[0] != k or w2.shape != (k, n) or b2.shape[0] != n:
            raise DimensionError(f"gabor_trunk extents disagree: {x.shape}, {w1.shape}, "
                                 f"{b1.shape}, {w2.shape}, {b2.shape}")
    batch, rows = x.shape[0], block_rows(n)
    tiles = [slice(lo, lo + rows) for lo in range(0, batch, rows)]
    tile_rows = min(rows, batch)
    k_max = max(w1.shape[1] for w1, _, _, _ in blocks)
    dtype = np.result_type(x.values, *(t.values for blk in blocks for t in blk))
    taped = _active_tape is not None
    flows = taped and x.requires_grad  # a gradient reaches the current block's input
    saved = []  # per block: (derivative, block input, wavelet values, flows into input)
    for i, (w1, b1, w2, b2) in enumerate(blocks):
        need_w1, need_w2 = taped and w1.requires_grad, taped and w2.requires_grad
        need_gp = flows or need_w1 or (taped and b1.requires_grad)
        k = w1.shape[1]
        x_in = (x.values if i == 0 else np.empty((batch, n), dtype)) if need_w1 else None
        saved.append((np.empty((batch, k), dtype) if need_gp else None, x_in,
                      np.empty((batch, k), dtype) if need_w2 else None, flows))
        flows = need_gp or need_w2 or (taped and b2.requires_grad)
    # Block i writes its output where block i+1 reads its input: into the
    # saved input when backward needs one, else alternately into ``out`` and
    # ``scratch``, so that the last block lands in ``out`` and no block
    # overwrites its own input. Untouched scratch costs no memory.
    out = np.empty((batch, n), dtype)
    scratch = np.empty((tile_rows, n), dtype)
    pre_scratch = np.empty(tile_rows * k_max, dtype)
    kernel_scratch = {d: _kernel_scratch(tile_rows, k_max, d, dtype)
                      for d in {deriv is not None for deriv, _, _, _ in saved}}
    last = len(blocks) - 1
    dests = [saved[i + 1][1] if i < last and saved[i + 1][1] is not None
             else (out if (last - i) % 2 == 0 else scratch) for i in range(len(blocks))]
    for s in tiles:
        cur = x.values[s]
        m = cur.shape[0]
        for (w1, b1, w2, b2), (deriv, _, psi, _), dest in zip(blocks, saved, dests):
            k = w1.shape[1]
            pre = _gemm(cur, w1.values, out=pre_scratch[:m * k].reshape(m, k)
                        if psi is None else psi[s])
            pre += b1.values
            _gabor_kernel(pre, omega0, s0, None if deriv is None else deriv[s],
                          kernel_scratch[deriv is not None])
            vals = _gemm(pre, w2.values, out=scratch[:m] if dest is scratch else dest[s])
            vals += b2.values
            vals += cur
            cur = vals

    def rule(g: np.ndarray) -> None:
        # g is this rule's own array (see Tape.backward): each block turns it
        # into its input's gradient in place, tile by tile.
        tiled = len(tiles) > 1
        gp_scratch = np.empty(tile_rows * k_max, dtype)
        gx_scratch = np.empty((tile_rows, n), dtype)
        for (w1, b1, w2, b2), (deriv, x_in, psi, flows_in) in zip(reversed(blocks),
                                                                  reversed(saved)):
            if psi is not None:
                _accumulate(w2, psi.T @ g, owned=True)
            if b2.requires_grad:
                _accumulate(b2, g.sum(axis=0), owned=True)
            if deriv is None:
                return
            k = w1.shape[1]
            if tiled:
                w2_t, w1_t = np.ascontiguousarray(w2.values.T), np.ascontiguousarray(w1.values.T)
                product = _gemm
            else:
                w2_t, w1_t, product = w2.values.T, w1.values.T, np.matmul
            gp = np.empty((batch, k), dtype) if x_in is not None or b1.requires_grad else None
            for s in tiles:
                g_tile = g[s]
                m = g_tile.shape[0]
                gp_tile = product(g_tile, w2_t, out=gp_scratch[:m * k].reshape(m, k)
                                  if gp is None else gp[s])
                gp_tile *= deriv[s]
                if flows_in:
                    g_tile += product(gp_tile, w1_t, out=gx_scratch[:m])
            if x_in is not None:
                _accumulate(w1, x_in.T @ gp, owned=True)
            if b1.requires_grad:
                _accumulate(b1, gp.sum(axis=0), owned=True)
            gp = gp_tile = None  # the next block's gp replaces this one, not joins it
            if not flows_in:
                return
        _accumulate(x, g, owned=True)

    return _make_output(out, "gabor_trunk", (x, *(t for blk in blocks for t in blk)), rule)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "add")
    vals = va + vb

    def rule(g: np.ndarray) -> None:
        if ta is not None and ta.requires_grad:
            _accumulate(ta, g)
        if tb is not None and tb.requires_grad:
            _accumulate(tb, g)

    return _make_output(vals, "add", [t for t in (ta, tb) if t is not None], rule)


def sub(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "sub")
    vals = va - vb

    def rule(g: np.ndarray) -> None:
        if ta is not None and ta.requires_grad:
            _accumulate(ta, g)
        if tb is not None and tb.requires_grad:
            _accumulate(tb, -g)

    return _make_output(vals, "sub", [t for t in (ta, tb) if t is not None], rule)


def mul(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "mul")
    vals = va * vb

    def rule(g: np.ndarray) -> None:
        if ta is not None and ta.requires_grad:
            _accumulate(ta, g * vb)
        if tb is not None and tb.requires_grad:
            _accumulate(tb, g * va)

    return _make_output(vals, "mul", [t for t in (ta, tb) if t is not None], rule)


def div(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "div")
    vals = va / vb

    def rule(g: np.ndarray) -> None:
        if ta is not None and ta.requires_grad:
            _accumulate(ta, g / vb)
        if tb is not None and tb.requires_grad:
            _accumulate(tb, -g * va / (vb * vb))

    return _make_output(vals, "div", [t for t in (ta, tb) if t is not None], rule)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows; both branches share it.
    z = np.exp(-np.abs(x.values))
    vals = np.where(x.values >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def rule(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * vals * (1.0 - vals))

    return _make_output(vals, "sigmoid", (x,), rule)


def log(x: Tensor) -> Tensor:
    """Natural log of max(x, LOG_EPS); gradient is zero on the clamped region."""
    clamped = np.maximum(x.values, LOG_EPS)
    vals = np.log(clamped)

    def rule(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.where(x.values >= LOG_EPS, g / clamped, 0.0))

    return _make_output(vals, "log", (x,), rule)


def _kernel_scratch(rows: int, width: int, with_deriv: bool, dtype) -> np.ndarray:
    """``_gabor_kernel``'s scratch for arrays of up to [rows, width].

    The kernel works in row blocks of this scratch's rows. They are sized
    from the buffers the kernel keeps live, the block of ``v``, the
    scratch and, with a derivative, the block of ``deriv`` (two buffers
    without a derivative, five with), so that all of them fit
    ``L2_BLOCK_BYTES`` together: 512 and 204 rows at width 128.
    """
    live = 5 if with_deriv else 2
    block = max(1, min(block_rows(live * width), rows))
    return np.empty((3 if with_deriv else 1, block, width), dtype)


def _gabor_kernel(v: np.ndarray, omega0: float, s0: float, deriv: np.ndarray | None,
                  scratch: np.ndarray) -> None:
    """Overwrite the [rows, width] array ``v`` with cos(omega0*v) * exp(-(s0*v)^2).

    Computed from a single transcendental besides the envelope's exp:
    with t = tan(omega0*v/2),

        cos(omega0*v) = 2/(1+t^2) - 1,   sin(omega0*v) = 2t/(1+t^2).

    numpy's float64 ``cos``/``sin`` run as scalar loops that slow down as
    |omega0*v| grows (trained pre-activations reach |omega0*v| ~ 40), while
    ``tan`` and ``exp`` are vectorised and cost the same at any range
    (numpy 2.4, AVX-512). Next to omega0*v = pi (mod 2pi), t is huge but
    finite and both forms stay accurate to a few ulp.

    With ``deriv`` given, the derivative is written into it as well. The
    work runs in row blocks, in ``out=`` buffers taken from ``scratch``
    (see ``_kernel_scratch``), which a caller allocates once for many
    calls.
    """
    rows = scratch.shape[1]
    for lo in range(0, v.shape[0], rows):
        x = v[lo:lo + rows]
        buf = scratch[:, :x.shape[0], :x.shape[1]]
        t = np.multiply(x, 0.5 * omega0, out=buf[0])
        np.tan(t, out=t)
        if deriv is None:
            # t is not needed again: q overwrites it and the envelope overwrites x
            q = np.multiply(t, t, out=t)
            q += 1.0
            np.divide(2.0, q, out=q)  # 2/(1+t^2) = 1 + cos(omega0*x)
            envelope = np.multiply(x, s0, out=x)
            np.square(envelope, out=envelope)
            np.negative(envelope, out=envelope)
            np.exp(envelope, out=envelope)
            q -= 1.0
            envelope *= q
            continue
        q = np.multiply(t, t, out=buf[1])
        q += 1.0
        np.divide(2.0, q, out=q)
        envelope = np.multiply(x, s0, out=buf[2])
        np.square(envelope, out=envelope)
        np.negative(envelope, out=envelope)
        np.exp(envelope, out=envelope)
        # d/dx = -omega0 * sin(omega0*x) * envelope - 2 s0^2 * x * value
        d = np.multiply(t, q, out=deriv[lo:lo + rows])  # sin(omega0*x)
        d *= envelope
        d *= -omega0
        q -= 1.0  # cos(omega0*x)
        slope = np.multiply(x, -2.0 * s0 * s0, out=t)  # the last read of x's input
        vals = np.multiply(q, envelope, out=x)
        slope *= vals
        d += slope


def gabor(x: Tensor, omega0: float, s0: float) -> Tensor:
    """Real Gabor wavelet cos(omega0*x) * exp(-(s0*x)^2), elementwise.

    One tape entry over ``_gabor_kernel``, which ``gabor_trunk`` shares.
    The derivative factor is computed, and kept for backward, only while
    a tape records ``x``, so frozen forwards hold none.
    """
    taped = _active_tape is not None and x.requires_grad
    # A C-ordered copy, so the kernel can work on a [size, 1] view of it; a
    # 0-d input stays an array rather than a numpy scalar.
    vals = x.values.copy()
    deriv = np.empty_like(vals) if taped else None
    _gabor_kernel(vals.reshape(-1, 1), omega0, s0, None if deriv is None else deriv.reshape(-1, 1),
                  _kernel_scratch(vals.size, 1, taped, vals.dtype))
    if not taped:
        return _make_output(vals, "gabor", (x,), None)

    def rule(g: np.ndarray) -> None:
        _accumulate(x, g * deriv, owned=True)

    return _make_output(vals, "gabor", (x,), rule)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction."""
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DimensionError(f"softmax needs a last axis of extent >= 2, got shape {x.shape}")
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    vals = e / e.sum(axis=-1, keepdims=True)

    def rule(g: np.ndarray) -> None:
        if x.requires_grad:
            inner = (g * vals).sum(axis=-1, keepdims=True)
            _accumulate(x, vals * (g - inner))

    return _make_output(vals, "softmax", (x,), rule)


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    vals = np.asarray(x.values.sum(axis=axis))

    def rule(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape))
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _make_output(vals, "sum", (x,), rule)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    if n == 0:
        raise DimensionError("mean over an empty axis")
    vals = np.asarray(x.values.mean(axis=axis))

    def rule(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        scaled = g / n
        if axis is None:
            _accumulate(x, np.broadcast_to(scaled, x.shape))
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(scaled, axis), x.shape))

    return _make_output(vals, "mean", (x,), rule)


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of every squared entry of every tensor: an L2 prior as one entry.

    Each tensor's squares are summed by numpy and the per-tensor sums are
    added in list order; each tensor gets the gradient 2*g*t.
    """
    if not tensors:
        raise ContractError("sum_squares needs at least one tensor")
    vals = np.asarray(sum(np.square(t.values).sum() for t in tensors))

    def rule(g: np.ndarray) -> None:
        g2 = 2.0 * g
        for t in tensors:
            if t.requires_grad:
                _accumulate(t, g2 * t.values, owned=True)

    return _make_output(vals, "sum_squares", tensors, rule)
