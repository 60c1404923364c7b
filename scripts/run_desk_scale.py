"""Drive the cached desk-scale generalization experiment.

Runs (or resumes) every stage of the standard pipeline: phantom dataset,
prior training, validation early-stop selection, the long-budget
validation curve, test-set inference, held-out-slice and oblique-plane
comparisons. All results land in the cache directory keyed by the
config hash and the numerics digest of the code, so re-running after an
interruption continues where the previous invocation stopped, and a
completed cache returns instantly. Results of this config computed by
other numerics are named at the start and never served.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nisf.experiments import DEFAULT_CACHE_ROOT, STAGES, DeskScaleConfig, DeskScaleRun
from nisf.serial import write_json_atomic
from nisf.volume import CLASS_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-root", default=DEFAULT_CACHE_ROOT,
                        help="where stage results are stored (default: %(default)s)")
    parser.add_argument("--stage", default="all",
                        choices=["all", "model", *STAGES],
                        help="run a single stage instead of the whole pipeline")
    args = parser.parse_args()

    cfg = DeskScaleConfig()
    t0 = time.monotonic()
    run = DeskScaleRun(cfg, cache_root=args.cache_root,
                       log=lambda m: print(f"[{time.monotonic() - t0:8.1f}s] {m}",
                                           flush=True))
    print(f"experiment hash {cfg.content_hash()} -> {run.dir}", flush=True)
    for path in run.other_numerics():
        print(f"{path}: computed by other numerics, not served", flush=True)

    if args.stage == "all":
        summary = run.run_all()
    else:
        summary = {args.stage: getattr(run, args.stage)()}
        if args.stage == "model":
            summary = {"model": "trained (see checkpoints in the cache dir)"}

    if "validation" in summary:
        val = summary["validation"]
        best = max(val["mean_dice"])
        print(f"validation: selected {val['selected_steps']} steps "
              f"(mean dice {best:.4f})")
    if "longrun" in summary:
        lr = summary["longrun"]
        print(f"longrun: budget {lr['budget']}, dice peaks at {lr['argmax_steps']} "
              f"({max(lr['mean_dice']):.4f}), ends at {lr['mean_dice'][-1]:.4f}")
    if "test_eval" in summary:
        agg = summary["test_eval"]["aggregate"]
        print(f"test: mean foreground dice {agg['mean']:.4f} over "
              f"{len(summary['test_eval']['subjects'])} subjects")
    if "heldout" in summary:
        print(f"heldout slice: model beats copy baseline on "
              f"{summary['heldout']['win_fraction']:.0%} of subjects")
    if "oblique" in summary:
        # the class and subject with the fewest truth pixels on the plane,
        # where a per-subject mean Dice turns on a handful of pixels
        pixels, c, subject = min((n, c, row["id"]) for row in summary["oblique"]["subjects"]
                                 for c, n in enumerate(row["truth_pixels_per_class"]))
        print(f"oblique plane: model beats NN baseline on "
              f"{summary['oblique']['win_fraction']:.0%} of subjects; fewest truth "
              f"pixels: {CLASS_NAMES[c + 1]} {pixels} on {subject}")

    # a stage's record holds the wall time of the run that computed it,
    # also when this run loaded it from the cache
    for stage in STAGES:
        if stage in summary:
            print(f"{stage}: computed in {summary[stage]['elapsed_seconds']:.1f}s")

    write_json_atomic(os.path.join(run.dir, "summary.json"), summary)
    print(f"done in {time.monotonic() - t0:.1f}s; cache at {run.dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
