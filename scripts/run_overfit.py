"""Single-phantom overfit: sanity-check that the joint objective trains.

Fits the field plus one latent to a single small phantom using every
observed point each step, then reports the loss trajectory and the
frame-0 reconstruction error. The result is cached in a directory keyed
by the config hash and a fingerprint of the nisf code (comments and
docstrings excluded); after a code change the next call computes a new
record under the new key and leaves the old one as it is.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nisf.experiments import DEFAULT_CACHE_ROOT, OverfitConfig, cached_overfit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-root", default=DEFAULT_CACHE_ROOT)
    parser.add_argument("--steps", type=int, default=None,
                        help="override the optimization step count")
    args = parser.parse_args()

    cfg = OverfitConfig()
    if args.steps is not None:
        from dataclasses import replace
        cfg = replace(cfg, steps=args.steps)

    t0 = time.monotonic()
    record = cached_overfit(cfg, cache_root=args.cache_root)
    losses = record["losses"]
    marks = sorted({0, len(losses) // 4, len(losses) // 2,
                    3 * len(losses) // 4, len(losses) - 1})
    for i in marks:
        print(f"step {i:5d}  total loss {losses[i]:.4f}")
    print(f"loss ratio final/initial: {record['loss_ratio']:.4f}")
    print(f"frame-0 reconstruction MAE: {record['recon_mae_frame0']:.4f}")
    print(f"recorded run time {record['elapsed_seconds']:.1f}s "
          f"(this call took {time.monotonic() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
