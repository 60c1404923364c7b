"""In-memory spans around the calls the benchmark makes into each nisf layer.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces the
public functions listed in ``SITES`` with timing wrappers, in the module
namespace the caller looks them up in, and ``Tracer.uninstall`` puts the
originals back. Nothing inside ``src/`` knows it is being traced. Spans
stay in memory until ``layer_metrics`` reduces them at the end of a run.

Span names:

* ``bench.*`` spans are opened by the benchmark itself: ``bench.setup``
  around one set-up, ``bench.op`` around one timed operation unit and
  ``bench.fit`` around ``infer_latent``. They mark phases; they are not
  layers.
* every other span is a layer, named ``<module>.<call>``. Tape backward
  rules are named ``autodiff.<op>.bwd`` after the op that recorded them.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

# autodiff ops wrapped as forward spans. The first five are reported by name;
# the rest are summed into ``autodiff.other``.
NAMED_OPS = ("linear", "gabor", "add", "softmax", "sigmoid")
OTHER_OPS = ("matmul", "sub", "mul", "div", "exp", "cos", "square", "log",
             "reduce_sum", "reduce_mean", "broadcast_rows", "add_rowvec", "concat_cols")
BWD_OPS = ("linear", "gabor", "add")

# (module[:class], attribute, span name). A function is wrapped in every
# namespace a measured path looks it up in; a missing attribute is skipped,
# and its metric then reads 0.
SITES = (
    ("nisf.phantom", "generate_subject", "phantom.generate"),
    ("nisf.experiments", "generate_subject", "phantom.generate"),
    ("nisf.phantom:PhantomSpec", "label_at", "phantom.label_at"),
    ("nisf.inference", "make_batch", "training.make_batch"),
    ("nisf.experiments", "make_batch", "training.make_batch"),
    ("nisf.model:FieldModel", "load", "serial.read"),
    ("nisf.losses", "training_loss", "losses.loss"),
    ("nisf.inference", "inference_loss", "losses.loss"),
    ("nisf.autodiff:Tape", "backward", "autodiff.backward"),
    ("nisf.sampling", "sample_grid", "sampling.grid"),
    ("nisf.experiments", "sample_grid", "sampling.grid"),
    ("nisf.sampling", "sample_plane", "sampling.plane"),
    ("nisf.sampling", "nearest_neighbor_resample", "sampling.nn"),
    ("nisf.metrics", "dice_report", "metrics.dice"),
    *(("nisf.autodiff", op, f"autodiff.{op}") for op in NAMED_OPS + OTHER_OPS),
)

# Layers reported as mean ms per call the benchmark's code path makes into
# them directly (nested calls from inside another layer are not counted);
# every other timing is ms per operation (optimizer step or query call)
# summed over the timed phase.
PER_CALL = {
    "phantom.generate_ms": "phantom.generate",
    "phantom.label_at_ms": "phantom.label_at",
    "training.make_batch_ms": "training.make_batch",
    "serial.read_ms": "serial.read",
    "inference.record_ms": "inference.record",
    "inference.decode_ms": "inference.decode",
    "sampling.grid_ms": "sampling.grid",
    "sampling.plane_ms": "sampling.plane",
    "sampling.nn_ms": "sampling.nn",
    "metrics.dice_ms": "metrics.dice",
}

UNITS = {"autodiff.tape_entries": "count", "autodiff.tape_mb": "MB", "model.rows": "count",
         "optim.adam_params": "count", "proc.minor_faults": "count",
         "inference.record_share": "ratio", "proc.trace_overhead": "ratio",
         "trace.coverage": "ratio"}


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` emits, in a stable order."""
    names = ["autodiff.backward_ms", "autodiff.backward_self_ms"]
    names += [f"autodiff.{op}.fwd_ms" for op in NAMED_OPS + ("other",)]
    names += [f"autodiff.{op}.bwd_ms" for op in BWD_OPS + ("other",)]
    names += ["autodiff.tape_entries", "autodiff.tape_mb",
              "model.forward_ms", "model.forward_self_ms", "model.taped_forward_ms",
              "model.frozen_forward_ms", "model.rows",
              "losses.loss_ms", "losses.loss_self_ms", "optim.adam_ms", "optim.adam_params",
              "inference.record_share"]
    names += list(PER_CALL)
    names += ["proc.minor_faults", "proc.trace_overhead", "trace.coverage"]
    return names


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Span recorder. Spans are parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def recording(self, on: bool = True):
        """Install the wrappers and record spans for the block (no-op if not ``on``)."""
        if not on:
            yield
            return
        try:
            self.install()
            self.enabled = True
            yield
        finally:
            self.enabled = False
            self.uninstall()

    def current(self) -> str:
        return self.names[self._stack[-1]] if self._stack else ""

    def count(self, key: str, amount: float) -> None:
        if self.enabled:
            self.counts[key] += amount

    # -- installing wrappers --------------------------------------------

    def _wrap(self, fn, name):
        """``name`` is a span name, or a callable picking one per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _patch(self, path: str, attr: str, make) -> None:
        owner = _resolve(path)
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        from nisf import autodiff

        for path, attr, name in SITES:
            self._patch(path, attr, lambda fn, n=name: self._wrap(fn, n))

        # The naming callables below also count the work of the call.
        def forward_name(model, coords, *args, **kwargs):
            self.count("model.rows", coords.shape[0])
            return "model.forward.taped" if autodiff.active_tape() is not None \
                else "model.forward.frozen"

        self._patch("nisf.model:FieldModel", "forward", lambda fn: self._wrap(fn, forward_name))

        def evaluate_name(*args, **kwargs):
            return "inference.record" if self.current() == "bench.fit" else "inference.decode"

        self._patch("nisf.inference", "evaluate_points",
                    lambda fn: self._wrap(fn, evaluate_name))

        def adam_name(opt):
            self.count("optim.adam_params", sum(p.size for p in opt.params.values()))
            return "optim.adam"

        self._patch("nisf.optim:Adam", "step", lambda fn: self._wrap(fn, adam_name))

        def wrap_record(record):
            @functools.wraps(record)
            def traced_record(tape, output, backward):
                if self.enabled:
                    # Records happen inside the op's forward span, which names the rule.
                    op = self.current()
                    name = (op if op.startswith("autodiff.") else "autodiff.other") + ".bwd"
                    self.count("autodiff.tape_entries", 1)
                    self.count("autodiff.tape_bytes", output.values.nbytes)
                    backward = self._wrap(backward, name)
                return record(tape, output, backward)

            return traced_record

        self._patch("nisf.autodiff:Tape", "record", wrap_record)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, steps: int, untraced_wall: float,
                  traced_wall: float) -> dict[str, float]:
    """Reduce a traced pass to the per-layer metrics of ``metric_names``.

    ``steps`` is the number of operations (optimizer steps, or query calls)
    in the traced timed phase; ``*_wall`` are the summed unit wall times of
    the untraced and the traced pass over the same inputs.
    """
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parents[i] >= 0:
            child[tracer.parents[i]] += dur[i]
    in_phase = [tracer.names[tracer.roots[i]] == "bench.op" for i in range(n)]
    phase_wall = sum(dur[i] for i in range(n) if tracer.names[i] == "bench.op")

    total: dict[str, float] = defaultdict(float)      # inclusive, timed phase
    self_time: dict[str, float] = defaultdict(float)  # exclusive, timed phase
    direct: dict[str, list[float]] = defaultdict(list)
    covered = 0.0
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        from_bench = parent < 0 or tracer.names[parent].startswith("bench.")
        if not name.startswith("bench.") and from_bench:
            direct[name].append(dur[i])
        if not in_phase[i] or name.startswith("bench."):
            continue
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        if from_bench:
            covered += dur[i]

    steps = max(steps, 1)
    per = 1000.0 / steps
    out: dict[str, float] = {
        "autodiff.backward_ms": total["autodiff.backward"] * per,
        "autodiff.backward_self_ms": self_time["autodiff.backward"] * per,
    }
    for op in NAMED_OPS:
        out[f"autodiff.{op}.fwd_ms"] = total[f"autodiff.{op}"] * per
    out["autodiff.other.fwd_ms"] = sum(total[f"autodiff.{op}"] for op in OTHER_OPS) * per
    for op in BWD_OPS:
        out[f"autodiff.{op}.bwd_ms"] = total[f"autodiff.{op}.bwd"] * per
    named_bwd = {f"autodiff.{op}.bwd" for op in BWD_OPS}
    out["autodiff.other.bwd_ms"] = sum(v for k, v in total.items()
                                       if k.endswith(".bwd") and k not in named_bwd) * per
    out["autodiff.tape_entries"] = tracer.counts["autodiff.tape_entries"] / steps
    out["autodiff.tape_mb"] = tracer.counts["autodiff.tape_bytes"] / 1e6 / steps
    taped, frozen = total["model.forward.taped"], total["model.forward.frozen"]
    out["model.forward_ms"] = (taped + frozen) * per
    out["model.forward_self_ms"] = (self_time["model.forward.taped"]
                                    + self_time["model.forward.frozen"]) * per
    out["model.taped_forward_ms"] = taped * per
    out["model.frozen_forward_ms"] = frozen * per
    out["model.rows"] = tracer.counts["model.rows"] / steps
    out["losses.loss_ms"] = total["losses.loss"] * per
    out["losses.loss_self_ms"] = self_time["losses.loss"] * per
    out["optim.adam_ms"] = total["optim.adam"] * per
    out["optim.adam_params"] = tracer.counts["optim.adam_params"] / steps
    fit = sum(dur[i] for i in range(n) if tracer.names[i] == "bench.fit" and in_phase[i])
    out["inference.record_share"] = total["inference.record"] / fit if fit else 0.0
    for metric, name in PER_CALL.items():
        calls = direct[name]
        out[metric] = 1000.0 * sum(calls) / len(calls) if calls else 0.0
    out["proc.minor_faults"] = tracer.counts["proc.minor_faults"] / steps
    out["proc.trace_overhead"] = traced_wall / untraced_wall
    out["trace.coverage"] = covered / phase_wall
    return out
