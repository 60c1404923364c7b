"""nisf benchmark: the ``overfit``, ``infer`` and ``query`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 3 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another in this
process. With ``--trace 0`` the result carries the end-to-end metrics;
with ``--trace 1`` it runs each unit untraced and traced and carries the
per-layer metrics. The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every operation passed its checks, 1 when one failed and 2 when
``src/nisf`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("overfit", "infer", "query")
# Set-up is short (tens of ms) and its first pass is cold, so it is repeated
# and its median reported.
SETUP_REPEATS = 7
E2E_UNITS = {"setup_s": "s", "step_ms": "ms", "segment_s": "s", "points_per_s": "1/s",
             "peak_rss_mb": "MB"}


def pin_blas_threads() -> int:
    """Pin every BLAS/OpenMP pool to the CPUs this process may use.

    Only effective before numpy is first imported.
    """
    threads = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Tally:
    """Units run so far, split by whether they were traced, and the
    operations they attempted and failed."""

    def __init__(self):
        self.units = {False: [], True: []}
        self.attempted = self.failed = 0
        self.problems: list[str] = []


def run_unit(wl, tracer, i: int, tally: Tally, traced: bool) -> None:
    """Run unit ``i`` (traced or not), then check it outside the clock."""
    from nisf.errors import ContractError, NumericalError

    from tracing import minor_faults

    try:
        with tracer.recording(traced):
            faults = minor_faults()
            with tracer.span("bench.op"):
                unit = wl.unit(i)
            tracer.count("proc.minor_faults", minor_faults() - faults)
    except (NumericalError, ContractError) as exc:
        tally.attempted += wl.ops
        tally.failed += wl.ops
        tally.problems.append(f"unit {i}: {type(exc).__name__}: {exc}")
        return
    found = wl.check(unit)
    unit.outputs.clear()  # keep memory flat however many units run
    tally.attempted += unit.attempted
    if found:
        tally.failed += unit.attempted
        tally.problems += [f"unit {i}: {p}" for p in found]
    tally.units[traced].append(unit)


def measure(wl, tracer, seconds: float, trace: bool) -> Tally:
    """Run units until the next would overrun ``seconds``, at least one.

    With ``trace`` each unit runs twice on the same inputs, untraced and
    traced, in alternating order so neither side always runs cold.
    """
    tally = Tally()
    if trace:
        with tracer.recording(True), tracer.span("bench.setup"):
            wl.setup()
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for k, traced in enumerate(order):
            if i or k:  # set-up prepared unit 0
                wl.prepare(i)
            run_unit(wl, tracer, i, tally, traced)
        last = time.perf_counter() - began
        i += 1
    return tally


def end_to_end(setups: list[float], units) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "step_ms": 1000.0 * sum(u.step_wall for u in units) / sum(u.steps for u in units),
        "segment_s": statistics.median(u.wall for u in units),
        "points_per_s": sum(u.rows for u in units) / sum(u.step_wall for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Set up and measure one workload; returns the result object."""
    import tracing
    from workloads import WORKLOADS, Scale

    tracer = tracing.Tracer()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        wl = WORKLOADS[name](seed, scale or Scale(), workdir, tracer)
        setups = [_timed(wl.setup) for _ in range(SETUP_REPEATS)]
        tally = measure(wl, tracer, seconds, trace)
        plain, traced = tally.units[False], tally.units[True]
        if not trace:
            metrics = end_to_end(setups, plain) if plain else {}
            units_of = E2E_UNITS
        else:
            metrics = {}
            if plain and traced:
                metrics = tracing.layer_metrics(tracer, sum(u.steps for u in traced),
                                                sum(u.wall for u in plain),
                                                sum(u.wall for u in traced))
            units_of = {m: tracing.unit_of(m) for m in metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another workload of this process still uses it
    return {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units_of[m]} for m, v in metrics.items()},
            "problems": tally.problems}


def finish(results: dict[str, dict], machine: dict) -> int:
    """Print the human summary and the result line; return the exit code."""
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, res in results.items():
        for problem in res["problems"]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        for metric, m in res["metrics"].items():
            print(f"{name:8s} {metric:30s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:8s} {'fail_frac':30s} {res['failed'] / max(res['attempted'], 1):14.6g} "
              f"ratio ({res['failed']} of {res['attempted']} operations)")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, res in results.items()
                   for metric, m in res["metrics"].items()}
    line = {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "nisf", "__init__.py")):
        print(f"error: no nisf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from machine import fingerprint

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    return finish(results, fingerprint(threads))


if __name__ == "__main__":
    sys.exit(main())
