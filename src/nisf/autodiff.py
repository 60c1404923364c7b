"""Dense real tensors with a reverse-mode automatic differentiation tape.

Design notes:

* numpy arrays are the storage; the tape and all backward rules are
  implemented here. New tensors are float64 (finite differences are
  unreliable in float32); a float32 array passed in is kept as is.
* Broadcasting is deliberately restricted to scalar-with-tensor and
  equal-shape operands so every backward rule stays auditable. The only
  row-broadcasts are fused into layers: ``linear`` adds a row-vector
  bias, ``latent_linear`` conditions every row of a coordinate batch
  on one shared latent vector without ever tiling it, and ``residual``
  computes a block's x + psi @ w + b as one entry whose backward passes
  the output gradient on to ``x`` without copying it.
* Every operation validates that its output is finite; a NaN/Inf raises
  ``NumericalError`` instead of propagating silently.
* Gradient tracking happens only while a ``Tape`` is active. Evaluating
  a frozen model outside a tape records nothing and is safe to run from
  many threads (pure reads).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

LOG_EPS = 1e-12  # single numerical guard: log(x) reads max(x, LOG_EPS)

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

    # Arithmetic sugar; the module-level functions carry the contracts.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def reset_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.reset_grad()


class Tape:
    """Ordered record of executed operations with their backward rules.

    Entries are appended in execution order, so inputs of any op were
    recorded before the op itself; ``backward`` walks the record in
    reverse. Repeated ``backward`` calls accumulate into leaf gradients
    (clear with ``reset_grads``). A tape is confined to one logical
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
            if out.grad is None:
                continue
            rule(out.grad)
            # An entry's output grad is complete here (all consumers were
            # recorded later, hence already walked); free it to cap memory.
            out.grad = None


def backward(loss: Tensor) -> None:
    """Run backward on the active tape (must be inside a ``with Tape()`` block)."""
    if _active_tape is None:
        raise ContractError("backward called with no active tape")
    _active_tape.backward(loss)


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


def _gemm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Per-row results must be bit-identical across batch sizes. BLAS routes
    # m==1 through gemv-style kernels whose summation order differs from
    # gemm, so a single row is padded to two. OpenBLAS 0.3.31 runs products
    # with M*N*K <= 1e6 through small-matrix kernels; at K=128 and M >= 2
    # their rows depend on the batch size for N = 1-4, 9-12 and 100, and
    # are invariant for N = 5-8, 13-64 and 128. The heads (N = 1 and the
    # default 4 classes) therefore take numpy's own einsum loop, which sums
    # every row in the same order; the trunk's N = 128 stays on BLAS.
    if y.shape[1] <= 4:
        return np.einsum("bk,kn->bn", x, y)
    if x.shape[0] < 2:
        return np.ascontiguousarray((np.concatenate([x, x], axis=0) @ y)[:1])
    return x @ y


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


def residual(x: Tensor, psi: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused residual block output x + psi @ w + b: one tape entry per block.

    The sum is taken as (psi @ w + b) + x, which is bit-identical to
    ``add(x, linear(psi, w, b))`` because IEEE addition commutes. Backward
    hands the output gradient ``g`` itself to ``x``, last, instead of
    copying it for both branches: the tape frees ``g`` after this rule.
    """
    if x.ndim != 2 or psi.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"residual needs [B,n] + [B,k] @ [k,n] + [n], got {x.shape}, "
                             f"{psi.shape}, {w.shape}, {b.shape}")
    if (psi.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]
            or x.shape != (psi.shape[0], w.shape[1])):
        raise DimensionError(f"residual extents disagree: {x.shape}, {psi.shape}, "
                             f"{w.shape}, {b.shape}")
    vals = _gemm(psi.values, w.values)
    vals += b.values  # _gemm's result is a fresh array
    vals += x.values

    def rule(g: np.ndarray) -> None:
        if psi.requires_grad:
            _accumulate(psi, g @ w.values.T, owned=True)
        if w.requires_grad:
            _accumulate(w, psi.values.T @ g, owned=True)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0), owned=True)
        if x.requires_grad:
            _accumulate(x, g, owned=True)  # last reader of g

    return _make_output(vals, "residual", (x, psi, w, b), rule)


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


def square(x: Tensor) -> Tensor:
    vals = x.values * x.values

    def rule(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, 2.0 * g * x.values)

    return _make_output(vals, "square", (x,), rule)


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


def gabor(x: Tensor, omega0: float, s0: float) -> Tensor:
    """Real Gabor wavelet cos(omega0*x) * exp(-(s0*x)^2), elementwise.

    Fused into one tape entry, and computed from a single transcendental
    besides the envelope's exp: with t = tan(omega0*x/2),

        cos(omega0*x) = 2/(1+t^2) - 1,   sin(omega0*x) = 2t/(1+t^2).

    numpy's float64 ``cos``/``sin`` run as scalar loops that slow down as
    |omega0*x| grows (trained pre-activations reach |omega0*x| ~ 40), while
    ``tan`` and ``exp`` are vectorised and cost the same at any range
    (numpy 2.4, AVX-512). Next to omega0*x = pi (mod 2pi), t is huge but
    finite and both forms stay accurate to a few ulp. The work happens in
    ``out=`` buffers; the derivative factor is computed, and kept for
    backward, only while a tape records ``x``.
    """
    xv = x.values
    taped = _active_tape is not None and x.requires_grad
    # Explicit out= arrays keep 0-d inputs arrays rather than numpy scalars.
    t = np.multiply(xv, 0.5 * omega0, out=np.empty_like(xv))
    np.tan(t, out=t)
    # Frozen, t is not needed again and q can overwrite it.
    q = np.multiply(t, t, out=np.empty_like(t) if taped else t)
    q += 1.0
    np.divide(2.0, q, out=q)  # 2/(1+t^2) = 1 + cos(omega0*x)
    envelope = np.multiply(xv, s0, out=np.empty_like(xv))
    np.square(envelope, out=envelope)
    np.negative(envelope, out=envelope)
    np.exp(envelope, out=envelope)
    if not taped:
        q -= 1.0
        envelope *= q
        return _make_output(envelope, "gabor", (x,), None)
    # d/dx = -omega0 * sin(omega0*x) * envelope - 2 s0^2 * x * value
    deriv = np.multiply(t, q, out=t)  # sin(omega0*x)
    deriv *= envelope
    deriv *= -omega0
    q -= 1.0  # cos(omega0*x)
    vals = np.multiply(q, envelope, out=q)
    slope = np.multiply(xv, -2.0 * s0 * s0, out=envelope)
    slope *= vals
    deriv += slope

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
