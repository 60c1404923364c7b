"""Dense real tensors with a reverse-mode automatic differentiation tape.

Design notes:

* numpy arrays are the storage; the tape and all backward rules are
  implemented here. New tensors are float64 (finite differences are
  unreliable in float32); a float32 array passed in is kept as is, and
  every op keeps float32 operands float32 end to end (python scalars do
  not promote them). Latent fits run their steps and reconstruction
  records this way (see ``inference.infer_latent``); training, every other
  decode and gradcheck stay float64.
* The op set is what the model and the losses run, and nothing else:
  layers ``linear`` and ``gabor_trunk``; elementwise ``add``, ``sub``,
  ``mul``, ``div``, ``sigmoid``, ``log`` and ``softmax``; reductions
  ``reduce_sum``, ``reduce_mean`` and ``sum_squares``.
* Broadcasting is deliberately restricted to scalar-with-tensor and
  equal-shape operands so every backward rule stays auditable. The only
  row-broadcasts are fused into layers: ``linear`` adds a row-vector
  bias, and ``gabor_trunk`` conditions every row of a coordinate batch
  on one shared latent vector without ever tiling it (its input layer),
  then computes every residual block x + gabor(x @ w1 + b1) @ w2 + b2
  of the trunk, all as one entry that keeps only the arrays its
  backward reads. ``sum_squares`` records a whole L2 prior over a list
  of tensors as one entry.
* The tape holds, per entry, a gradient slot for the op's output and
  the op's rule; no entry holds an output ``Tensor``. A rule holds its
  inputs' slots and only the arrays it reads (``linear`` keeps x's
  values only if w needs a gradient), so an intermediate's values are
  freed as soon as its caller drops it and no rule reads them. Leaves
  are their own slots and end a backward with their ``.grad``;
  intermediates keep ``.grad is None``.
* ``Tape.backward`` detaches each slot's gradient before calling its
  rule, so the rule owns the only reference and may drop it early.
* Every operation validates that its output is finite; a NaN/Inf raises
  ``NumericalError`` instead of propagating silently.
* An op records only while a ``Tape`` is active, and only if one of its
  inputs is a leaf that tape names (``Tape(wrt=...)``) or an output it
  recorded; a tensor carries no gradient flag of its own. A frozen
  ``gabor_trunk`` (one that records nothing) runs its tiles on worker
  threads (see ``_on_workers``); the caller sees one call that returns
  when every tile is done. Every other op, and every recording tape,
  runs on the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

LOG_EPS = 1e-12  # single numerical guard: log(x) reads max(x, LOG_EPS)
# Trunk tiles and wavelet row blocks are sized so that one [rows, width]
# float64 array, or the kernel's live buffers together, fill this many
# bytes and fit a core's L2 cache (2 MiB on a Xeon with AVX-512) instead of
# streaming from memory.
L2_BLOCK_BYTES = 1 << 20
# OpenBLAS 0.3.31 runs a product with M*N*K at or below this through its
# small-matrix kernels, on the calling thread: its own thread pool stays
# asleep, however many threads it was given.
SMALL_GEMM_MNK = 10**6

_active_tape: "Tape | None" = None


def _blas_threads() -> int:
    """The BLAS thread count: ``OPENBLAS_NUM_THREADS``, which ``--threads``
    and perfbench set before numpy loads, else the CPUs this process may
    use."""
    env = os.environ.get("OPENBLAS_NUM_THREADS", "").strip()
    return max(1, int(env)) if env.isdigit() else len(os.sched_getaffinity(0))


# A frozen trunk's worker count W: the calling thread and a pool of W - 1
# threads, started on first use (none at W = 1; see ``gabor_trunk``).
TRUNK_WORKERS = _blas_threads()
_pool: ThreadPoolExecutor | None = None


def active_tape() -> "Tape | None":
    return _active_tape


class Tensor:
    """A dense n-dimensional real array; a tape that names it gives it a ``.grad``."""

    __slots__ = ("values", "grad", "_slot")

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.grad: np.ndarray | None = None
        self._slot: _Slot | None = None  # set on a taped op output (see _make_output)

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Slot:
    """Where a taped op output's gradient gathers during a backward walk.

    The tape and the rules of the ops that read the output hold this, not
    the output ``Tensor``, so the output's values are freed as soon as
    its caller drops it and no rule keeps them for its own backward.
    """

    __slots__ = ("grad", "dtype")

    def __init__(self, dtype: np.dtype):
        self.grad: np.ndarray | None = None
        self.dtype = dtype

    def take(self) -> np.ndarray:
        """The gathered gradient, leaving the slot empty.

        Returned rather than bound to a caller's local, so the rule it is
        passed to holds the only reference.
        """
        g, self.grad = self.grad, None
        return g


class Tape:
    """Ordered record of executed operations with their backward rules.

    ``wrt`` are the leaf tensors this tape differentiates: while it is
    active, an op records only if one of its inputs is one of them or an
    output this tape recorded. Entries are appended in execution order,
    so inputs of any op were recorded before the op itself; ``backward``
    walks the record in reverse. Each entry is the output's gradient slot
    and its rule. Repeated ``backward`` calls accumulate into the ``wrt``
    leaves' gradients (an ``Adam.step`` over them clears them). A tape is
    confined to one logical training context; it is not safe to share a
    recording tape between threads.
    """

    def __init__(self, wrt: Iterable[Tensor] = ()):
        self._entries: list[tuple[_Slot, Callable[[np.ndarray], None]]] = []
        # This tape's gradient slots by id: its ``wrt`` leaves and its entries'
        # slots. Held here, so no other object takes one of their ids.
        self._slots: dict[int, Tensor | _Slot] = {id(t): t for t in wrt}
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
        self._entries.append((output._slot, backward))
        self._slots[id(output._slot)] = output._slot

    def backward(self, loss: Tensor) -> None:
        """Populate the gradients of the ``wrt`` leaves that ``loss`` reaches."""
        if loss.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._entries:
            raise ContractError("backward on an empty tape")
        # Slot grads are per-walk scratch; leaves accumulate across walks.
        for slot, _ in self._entries:
            slot.grad = None
        (loss if loss._slot is None else loss._slot).grad = np.ones_like(loss.values)
        for slot, rule in reversed(self._entries):
            if slot.grad is not None:
                # Complete once the walk reaches the slot (its readers were
                # recorded later, hence walked). Passed straight into the
                # rule, it is the rule's only reference, so the rule may
                # rewrite it in place, as ``gabor_trunk`` does, or drop it.
                rule(slot.take())


# ---------------------------------------------------------------------------
# op plumbing


def _check_finite(vals: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(vals)):
        raise NumericalError(f"op '{op}' produced non-finite values")


def _grad_slot(t: "Tensor | None") -> "Tensor | _Slot | None":
    """Where a rule adds ``t``'s gradient, or None if it needs none.

    Only for the active tape: a leaf in its ``wrt`` is its own slot, and
    an output it recorded has the slot its op recorded.
    """
    if t is None or _active_tape is None:
        return None
    slot = t if t._slot is None else t._slot
    return slot if id(slot) in _active_tape._slots else None


def _make_output(vals: np.ndarray, op: str, slots: Sequence["Tensor | _Slot | None"],
                 backward: Callable[[np.ndarray], None] | None) -> Tensor:
    """Wrap ``vals``; record ``backward`` if any input has a gradient slot.

    ``slots`` are the inputs' ``_grad_slot``s. A rule holds only these
    slots and the arrays it reads, never an input or output ``Tensor``.
    """
    _check_finite(vals, op)
    out = Tensor(vals)
    if any(s is not None for s in slots):
        out._slot = _Slot(out.dtype)
        _active_tape.record(out, backward)
    return out


def _accumulate(t: "Tensor | _Slot", g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into the gradient slot ``t`` (a leaf ``Tensor`` or a ``_Slot``).

    ``owned`` marks an array the rule has just allocated and shares with
    nothing else; a first gradient then takes it over instead of copying.
    """
    if t.grad is None:
        if owned and g.dtype == t.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.dtype, copy=True)
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
    # gemm, so a single row is padded to two. With OpenBLAS 0.3.31 (AVX-512,
    # 2 threads) at K=128, over prefix sizes 2-2048 of a 2100-row batch, the
    # rows depend on the batch size
    #   in float64 at N = 1-4, 9-12, 17-20, 25-28, ..., 57-60 and 100;
    #   in float32 at N = 1-8, 17-24, 33-40, 49-56 and 100;
    # and at N = 128 in neither. The heads (N = 1 and the default 4 classes)
    # therefore take numpy's own einsum loop, which sums every row in the
    # same order; the trunk's N is its width, 128 by default, on BLAS.
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


def _gemm_small(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_gemm(x, y, out=out)`` in row blocks that keep M*N*K within
    ``SMALL_GEMM_MNK`` (61 rows at [B,128] @ [128,128]), so that OpenBLAS
    runs each on its small-matrix kernel on the calling thread. Where the
    products' rows do not depend on the batch, the bits are ``_gemm``'s."""
    rows = max(2, SMALL_GEMM_MNK // (x.shape[1] * y.shape[1]))
    for lo in range(0, x.shape[0], rows):
        _gemm(x[lo:lo + rows], y, out=out[lo:lo + rows])
    return out


def _on_workers(run: Callable[[int], None], workers: int) -> None:
    """Call ``run(w)`` for every w below ``workers``, w = 0 on this thread
    and the others on the pool; return once every call has.

    Waiting for every call before raising keeps a failed call's buffers
    alive while the other workers still write into them. An error raised
    in a call reaches the caller with its type (the first by w if several
    fail).
    """
    global _pool
    if workers > 1 and _pool is None:
        _pool = ThreadPoolExecutor(TRUNK_WORKERS - 1, thread_name_prefix="nisf-trunk")
    futures = [_pool.submit(run, w) for w in range(1, workers)]
    try:
        run(0)
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    # g @ w.T through a contiguous copy of the transpose. With OpenBLAS 0.3.31
    # (AVX-512) the rows of a product with the transposed view depend on the
    # batch size in small batches: below 10 rows at [B,128]@[128,128], at
    # one row at [B,4]@[4,128] and [B,16]@[16,16]. Through ``_gemm``, the
    # copy's rows at these shapes and at [B,128]@[128,4] do not.
    return _gemm(g, np.ascontiguousarray(w.T))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b with a row-vector bias: one tape entry per layer."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"linear needs [B,k] @ [k,n] + [n], got {x.shape}, "
                             f"{w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise DimensionError(f"linear extents disagree: {x.shape}, {w.shape}, {b.shape}")
    vals = _gemm(x.values, w.values)
    vals += b.values  # _gemm's result is a fresh array
    sx, sw, sb = _grad_slot(x), _grad_slot(w), _grad_slot(b)
    wv = w.values if sx is not None else None  # x's gradient reads w, w's reads x
    xv = x.values if sw is not None else None

    def rule(g: np.ndarray) -> None:
        if sx is not None:
            _accumulate(sx, _input_grad(g, wv), owned=True)
        if sw is not None:
            _accumulate(sw, xv.T @ g, owned=True)
        if sb is not None:
            _accumulate(sb, g.sum(axis=0), owned=True)

    return _make_output(vals, "linear", (sx, sw, sb), rule)


def block_rows(width: int) -> int:
    """Rows of a [rows, width] float64 array that fill ``L2_BLOCK_BYTES``.

    This is the trunk's row tile (1024 rows at width 128) at either dtype:
    a float32 latent-fit step with 2048-row tiles was within 5% of it. A
    frozen query hands the trunk two tiles per worker per call (see
    ``inference._in_chunks``). ``block_rows(live * width)`` gives the rows
    at which ``live`` such arrays fill it together (see ``_kernel_scratch``).
    """
    return max(1, L2_BLOCK_BYTES // (8 * width))


def gabor_trunk(coords: Tensor, h: Tensor, w_in: Tensor, b_in: Tensor,
                blocks: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                omega0: float, s0: float) -> Tensor:
    """The input layer and the residual Gabor trunk as one tape entry, run tile-major.

    The input layer is a ``linear`` of [coords | h] in which one latent
    ``h`` [d] conditions every row of ``coords`` [B, k]: with ``w_in``
    split row-wise into [w_c; w_h] at k, it gives
    coords @ w_c + (h @ w_h + b_in). Each ``(w1, b1, w2, b2)`` in
    ``blocks`` then maps x to x + gabor(x @ w1 + b1) @ w2 + b2, with
    gabor(v) = cos(omega0*v) * exp(-(s0*v)^2), and the blocks run in
    order. The batch runs in tiles of ``block_rows(width)`` rows, and
    each tile goes through the input layer and every block before the
    next starts, so its arrays stay in L2 instead of streaming from
    memory. A tile's input rows are its coordinate term plus the latent
    row h @ w_h + b_in, computed once per call. The coordinate term is
    the sum of k rank-1 updates, taken by ``np.einsum`` (numpy's own
    loop, not BLAS), so each row is a fixed sequence over its own
    coordinates, bit-identical at any batch size. Both block products go
    through ``_gemm`` and the wavelet runs in place over the
    pre-activation (see ``_gabor_kernel``). The finite check runs once, on
    the trunk output (a non-finite value cannot vanish through the skip
    path).

    When the op does not record, W workers run the tiles: this thread and
    W - 1 pool threads, started on the first such call. W is the BLAS
    thread count (``OPENBLAS_NUM_THREADS``, which ``--threads`` sets,
    else the CPUs this process may use), and at W = 1 no thread starts.
    Each block product then runs in row blocks of at most
    ``SMALL_GEMM_MNK // (k * n)`` rows (``_gemm_small``), so
    OpenBLAS runs every one on the worker's thread and its own pool never
    competes with the workers. The bits depend on the tiles and row
    blocks, never on W or on which worker ran a tile; at widths where the
    products' rows do not depend on the batch they are the recording
    trunk's. A recording trunk runs on this thread alone, with whole-tile
    products.

    Backward keeps, per block, only what it reads: the derivative whenever
    the op records, the block input only if ``w1`` needs a gradient, and
    the wavelet values only if ``w2`` does. A latent-only step therefore
    holds one array per block and no other batch-sized array; the input
    layer's rows span the whole batch only when block 0's ``w1`` needs
    them, as in training. These saved arrays span the whole batch and each
    tile writes its rows into them in place; everything else is per-tile
    scratch.

    The backward is one reverse loop over the blocks. Every block runs its
    row-local chain (g @ w2.T, times the derivative, @ w1.T, plus g) tile
    by tile, multiplying by contiguous copies of the transposed weights
    (see ``_input_grad``), and its weight and bias gradients as sums over
    the whole batch. It ends with the input layer's rule on its
    full-batch gradient g: it sums g over rows once, ``h`` and ``b_in``
    read their gradients off that sum, ``w_in`` gets
    [coords.T @ g ; outer(h, sum)] and ``coords`` gets g @ w_c.T; it keeps
    ``w_in`` only for the coordinate or latent gradient, and ``coords``
    and ``h`` only for ``w_in``'s. Every elementwise step and every sum
    runs in the order of the input layer as its own op followed by
    ``add(x, linear(gabor(linear(x, w1, b1)), w2, b2))`` chained over the
    blocks, so values and gradients are bit-identical to that composition
    (``tests/oracles.composed_trunk``) wherever the products' rows do not
    depend on the batch (see ``_gemm``).
    """
    if coords.ndim != 2 or h.ndim != 1 or w_in.ndim != 2 or b_in.ndim != 1:
        raise DimensionError(f"gabor_trunk needs [B,k], [d], [k+d,n], [n], got "
                             f"{coords.shape}, {h.shape}, {w_in.shape}, {b_in.shape}")
    k_in = coords.shape[1]
    if w_in.shape[0] != k_in + h.shape[0] or w_in.shape[1] != b_in.shape[0]:
        raise DimensionError(f"gabor_trunk extents disagree: {coords.shape}, "
                             f"{h.shape}, {w_in.shape}, {b_in.shape}")
    if not blocks:
        raise ContractError("gabor_trunk needs at least one block")
    n = w_in.shape[1]
    for w1, b1, w2, b2 in blocks:
        if w1.ndim != 2 or b1.ndim != 1 or w2.ndim != 2 or b2.ndim != 1:
            raise DimensionError(f"gabor_trunk blocks need [n,k], [k], [k,n], [n], got "
                                 f"{w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
        k = w1.shape[1]
        if w1.shape[0] != n or b1.shape[0] != k or w2.shape != (k, n) or b2.shape[0] != n:
            raise DimensionError(f"gabor_trunk extents disagree: {w_in.shape}, {w1.shape}, "
                                 f"{b1.shape}, {w2.shape}, {b2.shape}")
    batch, rows = coords.shape[0], block_rows(n)
    tiles = [slice(lo, lo + rows) for lo in range(0, batch, rows)]
    tile_rows = min(rows, batch)
    k_max = max(w1.shape[1] for w1, _, _, _ in blocks)
    dtype = np.result_type(coords.values, h.values, w_in.values, b_in.values,
                           *(t.values for blk in blocks for t in blk))
    input_slots = sc, sh, sw_in, sb_in = tuple(_grad_slot(t) for t in (coords, h, w_in, b_in))
    block_slots = [tuple(_grad_slot(t) for t in blk) for blk in blocks]
    slots = (*input_slots, *(s for bs in block_slots for s in bs))
    # what the input layer's rule reads (see the docstring)
    w_in_kept = w_in.values if sc is not None or sh is not None else None
    c_kept, h_kept = (coords.values, h.values) if sw_in is not None else (None, None)
    summed = sh is not None or sw_in is not None or sb_in is not None
    taped = any(s is not None for s in slots)  # the op records (see _make_output)
    # per block: (w1, w2, their and the biases' slots, derivative, block input,
    # wavelet values)
    saved = [(w1.values, w2.values, (sw1, sb1, sw2, sb2),
              np.empty((batch, w1.shape[1]), dtype) if taped else None,
              np.empty((batch, n), dtype) if sw1 is not None else None,
              np.empty((batch, w1.shape[1]), dtype) if sw2 is not None else None)
             for (w1, _, w2, _), (sw1, sb1, sw2, sb2) in zip(blocks, block_slots)]
    # Layer j (the input layer is j = 0, block i is j = i + 1) writes its
    # output where layer j+1 reads its input: into the saved block input
    # when backward needs one, else alternately into ``out`` and the tile
    # scratch (None here), so that the last block lands in ``out`` and no
    # layer overwrites its own input. Untouched scratch costs no memory.
    out = np.empty((batch, n), dtype)
    layers = len(blocks) + 1
    dests = [saved[j][4] if j < len(blocks) and saved[j][4] is not None
             else (out if (layers - 1 - j) % 2 == 0 else None) for j in range(layers)]
    w_c = w_in.values[:k_in]
    latent_row = h.values @ w_in.values[k_in:] + b_in.values
    # Frozen, worker w runs tiles w, w + W, ... in its own scratch set. This
    # thread allocates every set, so no worker allocates a large array.
    # Workers call ``_gemm``, ``_gabor_kernel`` and numpy only, never a
    # public op, so whatever wraps a public op runs on this thread alone
    # (perfbench's tracer keeps a span stack that is not thread-safe).
    workers = 1 if taped else max(1, min(TRUNK_WORKERS, len(tiles)))
    product = _gemm if taped else _gemm_small
    scratch_sets = [(np.empty((tile_rows, n), dtype), np.empty(tile_rows * k_max, dtype),
                     _kernel_scratch(tile_rows, k_max, taped, dtype)) for _ in range(workers)]

    def run(w: int) -> None:
        scratch, pre_scratch, kernel_scratch = scratch_sets[w]
        for s in tiles[w::workers]:
            c_tile = coords.values[s]
            m = c_tile.shape[0]
            cur = np.einsum("bk,kn->bn", c_tile, w_c,
                            out=scratch[:m] if dests[0] is None else dests[0][s])
            cur += latent_row
            for (w1, b1, w2, b2), (_, _, _, deriv, _, psi), dest in zip(blocks, saved, dests[1:]):
                k = w1.shape[1]
                pre = product(cur, w1.values, out=pre_scratch[:m * k].reshape(m, k)
                              if psi is None else psi[s])
                pre += b1.values
                _gabor_kernel(pre, omega0, s0, None if deriv is None else deriv[s],
                              kernel_scratch)
                vals = product(pre, w2.values, out=scratch[:m] if dest is None else dest[s])
                vals += b2.values
                vals += cur
                cur = vals

    _on_workers(run, workers)

    def rule(g: np.ndarray) -> None:
        # g is this rule's own array (see Tape.backward): each block turns it
        # into its input's gradient in place, tile by tile.
        gp_scratch = np.empty(tile_rows * k_max, dtype)
        gx_scratch = np.empty((tile_rows, n), dtype)
        for w1v, w2v, (sw1, sb1, sw2, sb2), deriv, x_in, psi in reversed(saved):
            if psi is not None:
                _accumulate(sw2, psi.T @ g, owned=True)
            if sb2 is not None:
                _accumulate(sb2, g.sum(axis=0), owned=True)
            k = w1v.shape[1]
            w2_t = np.ascontiguousarray(w2v.T)
            w1_t = np.ascontiguousarray(w1v.T)
            gp = np.empty((batch, k), dtype) if x_in is not None or sb1 is not None else None
            for s in tiles:
                g_tile = g[s]
                m = g_tile.shape[0]
                gp_tile = _gemm(g_tile, w2_t, out=gp_scratch[:m * k].reshape(m, k)
                                if gp is None else gp[s])
                gp_tile *= deriv[s]
                g_tile += _gemm(gp_tile, w1_t, out=gx_scratch[:m])
            if x_in is not None:
                _accumulate(sw1, x_in.T @ gp, owned=True)
            if sb1 is not None:
                _accumulate(sb1, gp.sum(axis=0), owned=True)
            gp = gp_tile = None  # the next block's gp replaces this one, not joins it
        g_sum = g.sum(axis=0) if summed else None
        if sc is not None:
            _accumulate(sc, _input_grad(g, w_in_kept[:k_in]), owned=True)
        if sh is not None:
            _accumulate(sh, w_in_kept[k_in:] @ g_sum, owned=True)
        if sw_in is not None:
            _accumulate(sw_in, np.concatenate([c_kept.T @ g, np.outer(h_kept, g_sum)]),
                        owned=True)
        if sb_in is not None:
            _accumulate(sb_in, g_sum, owned=True)  # last reader of g_sum

    return _make_output(out, "gabor_trunk", slots, rule)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "add")
    vals = va + vb
    sa, sb = _grad_slot(ta), _grad_slot(tb)

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, g)
        if sb is not None:
            _accumulate(sb, g)

    return _make_output(vals, "add", (sa, sb), rule)


def sub(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "sub")
    vals = va - vb
    sa, sb = _grad_slot(ta), _grad_slot(tb)

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, g)
        if sb is not None:
            _accumulate(sb, -g)

    return _make_output(vals, "sub", (sa, sb), rule)


def mul(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "mul")
    vals = va * vb
    sa, sb = _grad_slot(ta), _grad_slot(tb)
    a_read = va if sb is not None else None  # b's gradient reads a, a's reads b
    b_read = vb if sa is not None else None

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, g * b_read)
        if sb is not None:
            _accumulate(sb, g * a_read)

    return _make_output(vals, "mul", (sa, sb), rule)


def div(a, b) -> Tensor:
    ta, tb, va, vb = _as_operands(a, b, "div")
    vals = va / vb
    sa, sb = _grad_slot(ta), _grad_slot(tb)
    a_read = va if sb is not None else None

    def rule(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, g / vb)
        if sb is not None:
            _accumulate(sb, -g * a_read / (vb * vb))

    return _make_output(vals, "div", (sa, sb), rule)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows; both branches share it.
    z = np.exp(-np.abs(x.values))
    vals = np.where(x.values >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    sx = _grad_slot(x)

    def rule(g: np.ndarray) -> None:
        _accumulate(sx, g * vals * (1.0 - vals))

    return _make_output(vals, "sigmoid", (sx,), rule)


def log(x: Tensor) -> Tensor:
    """Natural log of max(x, LOG_EPS); gradient is zero on the clamped region."""
    clamped = np.maximum(x.values, LOG_EPS)
    vals = np.log(clamped)
    sx = _grad_slot(x)
    live = x.values >= LOG_EPS if sx is not None else None

    def rule(g: np.ndarray) -> None:
        _accumulate(sx, np.where(live, g / clamped, 0.0))

    return _make_output(vals, "log", (sx,), rule)


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
    calls. The frozen path (``deriv`` None) keeps its own branch: one
    path with the derivative lines guarded, 3 scratch buffers and 204-row
    blocks kept every digest but cut perfbench ``query`` ``points_per_s``
    by about 8% (4 of 4 alternating 15 s pairs, 2-vCPU AVX-512 VM).
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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max-subtraction."""
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DimensionError(f"softmax needs a last axis of extent >= 2, got shape {x.shape}")
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    vals = e / e.sum(axis=-1, keepdims=True)
    sx = _grad_slot(x)

    def rule(g: np.ndarray) -> None:
        inner = (g * vals).sum(axis=-1, keepdims=True)
        _accumulate(sx, vals * (g - inner))

    return _make_output(vals, "softmax", (sx,), rule)


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    vals = np.asarray(x.values.sum(axis=axis))
    sx, shape = _grad_slot(x), x.shape

    def rule(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(sx, np.broadcast_to(g, shape))
        else:
            _accumulate(sx, np.broadcast_to(np.expand_dims(g, axis), shape))

    return _make_output(vals, "sum", (sx,), rule)


def reduce_mean(x: Tensor) -> Tensor:
    """Mean over every entry."""
    n = x.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    vals = np.asarray(x.values.mean())
    sx, shape = _grad_slot(x), x.shape

    def rule(g: np.ndarray) -> None:
        _accumulate(sx, np.broadcast_to(g / n, shape))

    return _make_output(vals, "mean", (sx,), rule)


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of every squared entry of every tensor: an L2 prior as one entry.

    Each tensor's squares are summed by numpy and the per-tensor sums are
    added in list order; each tensor gets the gradient 2*g*t.
    """
    if not tensors:
        raise ContractError("sum_squares needs at least one tensor")
    vals = np.asarray(sum(np.square(t.values).sum() for t in tensors))
    kept = [(slot, t.values) for t in tensors if (slot := _grad_slot(t)) is not None]

    def rule(g: np.ndarray) -> None:
        g2 = 2.0 * g
        for slot, v in kept:
            _accumulate(slot, g2 * v, owned=True)

    return _make_output(vals, "sum_squares", [slot for slot, _ in kept], rule)
