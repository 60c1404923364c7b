"""Command-line interface.

Subcommands: gen-data, train-prior, infer, eval, sample-plane, gradcheck.

Exit codes: 0 on success, 1 for contract or configuration errors, 2 for
numerical failures (non-finite values, gradient-check failures).

Every command that produces an output directory writes a
``run_manifest.json`` there before doing any real work, recording the
command line, the resolved configuration, and a timestamp.

Tunable options are declared once, in a table per command. gen-data,
train-prior and infer also read a JSON ``--config`` file keyed by flag
name (``_`` for ``-``): a flag wins over its key, an option set by
neither keeps the default of the config dataclass it sets, and an
unknown key is an error. ``--threads`` is the one thread setting.

Heavy imports happen inside the command handlers so that thread limits
can be applied to the BLAS before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1 (config error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _apply_thread_limit(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise SystemExit(_fail("--threads must be >= 1"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def integer(value) -> int:
    """Parser for an integer option: a flag's text, or a config number.

    A config number must be integral: ``int()`` alone would train 2
    epochs for ``{"epochs": 2.7}`` without a word.
    """
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def nonnegative_integer(value) -> int:
    """Parser for a seed: an integer >= 0, the only seeds numpy's
    ``SeedSequence`` takes. Checked here, before any output is written."""
    out = integer(value)
    if out < 0:
        raise ValueError(f"{value!r} is negative")
    return out


def _tuple(cast, n: int):
    """Parser for ``n`` values, given as "a,b,c" (a flag) or a JSON list (a config value)."""
    def parse(value):
        parts = value.split(",") if isinstance(value, str) else value
        try:
            if len(parts) == n:
                return tuple(cast(p) for p in parts)
        except (TypeError, ValueError):
            pass
        raise argparse.ArgumentTypeError(
            f"needs {n} comma-separated {cast.__name__} values, got {value!r}")
    return parse


# One row per option: (flag, parse, field, help). ``field`` names the
# config-dataclass field the option sets; an option left unset keeps that
# field's default.
_GEN_DATA = (
    ("--seed", nonnegative_integer, "seed", None),
    ("--split", _tuple(integer, 3), "split", "train,val,test counts"),
    ("--grid", _tuple(integer, 4), "grid", "X,Y,Z,T voxel counts"),
    ("--spacing", _tuple(float, 3), "spacing", "x,y,z spacing in mm"),
)
_GEN_DATA_DEFAULTS = {"seed": 0, "split": (60, 10, 20)}

_TRAIN_PRIOR = (  # TrainConfig fields, and LossWeights fields for its ``weights``
    ("--epochs", integer, "epochs", None),
    ("--lr", float, "lr_prior", None),
    ("--seed", nonnegative_integer, "seed", None),
    ("--alpha", float, "alpha", None),
    ("--lambda-theta-phi", float, "lambda_theta_phi", None),
    ("--lambda-h", float, "lambda_h", None),
    ("--checkpoint-every", integer, "checkpoint_every", None),
    ("--log-every", integer, "log_every", None),
)

_INFER = (  # InferConfig fields
    ("--steps", integer, "steps_to_run", "run exactly this many steps"),
    ("--lr", float, "lr_infer", None),
    ("--seed", nonnegative_integer, "seed", None),
    ("--cadence", integer, "record_cadence", None),
    ("--points-per-step", integer, "points_per_step", None),
    ("--lambda-h", float, "lambda_h", None),
)

_SAMPLE_PLANE = (  # PlaneSpec fields; each flag is required
    ("--origin", _tuple(float, 3), "origin_norm", "normalized x,y,z of plane center"),
    ("--dir1", _tuple(float, 3), "dir1_mm", "first in-plane direction (mm units)"),
    ("--dir2", _tuple(float, 3), "dir2_mm", "second in-plane direction (mm units)"),
    ("--extent", _tuple(float, 2), "extent_mm", "plane extent in mm: U,V"),
    ("--counts", _tuple(integer, 2), "counts", "pixel counts: NU,NV"),
)


def _key(flag: str) -> str:
    """The argparse dest and config-file key of a flag."""
    return flag[2:].replace("-", "_")


def _by_flag(cfg, table) -> dict:
    """A config's tabled fields, keyed by flag name as in ``run_manifest.json``."""
    return {_key(flag): getattr(cfg, field) for flag, _, field, _ in table}


def _add_options(parser: argparse.ArgumentParser, table) -> None:
    parser.add_argument("--config", default=None, help="JSON config file")
    for flag, parse, _, help_text in table:
        parser.add_argument(flag, type=parse, help=help_text)


def _load_config_file(path: str | None, table, extra: tuple[str, ...] = ()) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SystemExit(_fail(f"config file is not valid JSON: {exc}"))
    if not isinstance(data, dict):
        raise SystemExit(_fail("config file must hold a JSON object"))
    known = {_key(row[0]) for row in table} | set(extra)
    unknown = sorted(set(data) - known)
    if unknown:
        raise SystemExit(_fail(f"unknown key(s) {', '.join(map(repr, unknown))} in config "
                               f"file {path}; known keys: {', '.join(sorted(known))}"))
    return data


def _options(args: argparse.Namespace, config: dict, table) -> dict:
    """The options that were set, by field: the flag, else the config value."""
    out = {}
    for flag, parse, field, _ in table:
        key = _key(flag)
        value = getattr(args, key)
        if value is None and config.get(key) is not None:
            raw = config[key]
            try:
                # JSON true/false would pass int() and float() as 1 and 0
                if any(isinstance(v, bool) for v in (raw if isinstance(raw, list) else [raw])):
                    raise ValueError(f"booleans are not numbers, got {json.dumps(raw)}")
                value = parse(raw)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise SystemExit(_fail(f"config key {key!r}: {exc}"))
        if value is not None:
            out[field] = value
    return out


def _write_manifest(out_dir: str, command: str, resolved: dict) -> None:
    from .serial import write_json_atomic

    os.makedirs(out_dir, exist_ok=True)
    write_json_atomic(os.path.join(out_dir, "run_manifest.json"),
                      {"command": command,
                       "argv": sys.argv[1:],
                       "resolved_config": resolved,
                       "created_unix": time.time(),
                       "created": time.strftime("%Y-%m-%dT%H:%M:%S%z")})


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args: argparse.Namespace) -> int:
    from .phantom import (DEFAULT_GRID_SHAPE, DEFAULT_SPACING, GENERATOR_VERSION,
                          generate_dataset)
    from .volume import save_volume, write_dataset_manifest

    config = _load_config_file(args.config, _GEN_DATA)
    opts = {"grid": DEFAULT_GRID_SHAPE, "spacing": DEFAULT_SPACING, **_GEN_DATA_DEFAULTS,
            **_options(args, config, _GEN_DATA)}
    if min(opts["split"]) < 0:
        return _fail(f"split counts must be >= 0, got {opts['split']}")

    out_dir = args.out
    if os.path.exists(out_dir) and os.listdir(out_dir) and not args.force:
        return _fail(f"output directory {out_dir} is not empty (use --force)")
    _write_manifest(out_dir, "gen-data", opts)

    entries = []
    for split, seed, vol in generate_dataset(opts["seed"], opts["split"],
                                             grid_shape=opts["grid"],
                                             spacing=opts["spacing"]):
        filename = f"{vol.subject_id}.nvol"
        save_volume(vol, os.path.join(out_dir, filename))
        entries.append({"id": vol.subject_id, "path": filename, "split": split,
                        "seed": seed})
        if not args.quiet:
            print(f"wrote {filename} ({split})")
    write_dataset_manifest(out_dir, entries, seed=opts["seed"],
                           generator_version=GENERATOR_VERSION)
    if not args.quiet:
        print(f"dataset of {sum(opts['split'])} subjects written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train-prior


def cmd_train_prior(args: argparse.Namespace) -> int:
    from .losses import LossWeights
    from .model import ModelConfig
    from .training import TrainConfig, latest_checkpoint, train_prior
    from .volume import load_dataset_manifest, load_volume, manifest_subjects

    config = _load_config_file(args.config, _TRAIN_PRIOR, extra=("model",))
    t = _options(args, config, _TRAIN_PRIOR)
    w = {f.name: t.pop(f.name) for f in fields(LossWeights) if f.name in t}
    if "model" in config:
        t["model"] = ModelConfig.from_dict(config["model"])
    tcfg = TrainConfig(weights=LossWeights(**w), **t)

    manifest = load_dataset_manifest(args.dataset)
    pairs = manifest_subjects(manifest, args.dataset, "train")
    if not pairs:
        return _fail(f"dataset {args.dataset} has no training subjects")
    subjects = [load_volume(path) for _, path in pairs]

    resolved = tcfg.to_dict()
    resolved["dataset"] = os.path.abspath(args.dataset)
    _write_manifest(args.out, "train-prior", resolved)

    resume_from = None
    if args.resume:
        resume_from = latest_checkpoint(args.out) if args.resume == "auto" else args.resume
        if resume_from is None:
            print("no checkpoint found, starting fresh", file=sys.stderr)

    result = train_prior(subjects, tcfg, out_dir=args.out, resume_from=resume_from)
    if not args.quiet and result.log:
        last = result.log[-1]
        print(f"trained {tcfg.epochs} epochs, final loss {last.report.total:.6f}")
    print(f"checkpoint: {latest_checkpoint(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# infer


def cmd_infer(args: argparse.Namespace) -> int:
    import numpy as np

    from .inference import InferConfig, full_observations, infer_latent
    from .sampling import sample_volume
    from .serial import write_blob
    from .training import load_checkpoint
    from .volume import load_volume, save_volume

    config = _load_config_file(args.config, _INFER)
    icfg = InferConfig(**_options(args, config, _INFER))
    model, _, _, _, _ = load_checkpoint(args.checkpoint)
    volume = load_volume(args.volume)
    resolved = {"checkpoint": os.path.abspath(args.checkpoint),
                "volume": os.path.abspath(args.volume),
                **_by_flag(icfg, _INFER)}
    _write_manifest(args.out, "infer", resolved)

    coords, intensities = full_observations(volume)
    h, trace = infer_latent(model, coords, intensities, icfg)

    with open(os.path.join(args.out, "latent.nlat"), "wb") as f:
        write_blob(f, "NISF-LATENT", 1,
                   {"subject_id": volume.subject_id,
                    "steps_run": icfg.steps_to_run,
                    "model_checksum": model.checksum(),
                    "seed": icfg.seed},
                   {"h": h.values.reshape(-1).astype(np.float64)})
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8") as f:
        f.write(trace.csv_header() + "\n")
        for row in trace.csv_rows():
            f.write(row + "\n")
    pred = sample_volume(model, h, volume)
    save_volume(pred, os.path.join(args.out, "prediction.nvol"))
    if not args.quiet:
        print(f"fitted latent for {volume.subject_id} in {icfg.steps_to_run} steps, "
              f"final reconstruction loss {trace.recon_loss[-1]:.6f}")
        print(f"outputs in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    from .metrics import aggregate, dice_report
    from .serial import write_json_atomic
    from .volume import load_volume

    pairs: list[tuple[str, str]] = []
    if args.pred and args.true:
        pairs.append((args.pred, args.true))
    elif args.pred_dir and args.true_dir:
        names = sorted(n for n in os.listdir(args.pred_dir) if n.endswith(".nvol"))
        if not names:
            return _fail(f"no .nvol files in {args.pred_dir}")
        pairs = [(os.path.join(args.pred_dir, name), os.path.join(args.true_dir, name))
                 for name in names]
    else:
        return _fail("eval needs --pred and --true, or --pred-dir and --true-dir")

    reports = []
    for pred_path, true_path in pairs:
        if not os.path.exists(true_path):
            return _fail(f"ground truth missing: {true_path}")
        pred = load_volume(pred_path)
        true = load_volume(true_path)
        reports.append(dice_report(pred.labels, true.labels))
    combined = reports[0] if len(reports) == 1 else aggregate(reports)
    print(combined.table())
    if args.report:
        write_json_atomic(args.report, combined.to_dict())
        print(f"report written to {args.report}")
    return 0


# ---------------------------------------------------------------------------
# sample-plane


def cmd_sample_plane(args: argparse.Namespace) -> int:
    import numpy as np

    from .autodiff import Tensor
    from .experiments import plane_dice
    from .images import write_label_pgm, write_pgm8, write_pgm16, write_raw_f64
    from .sampling import PlaneSpec, nearest_neighbor_resample, sample_plane
    from .serial import read_blob, require, write_json_atomic
    from .training import load_checkpoint
    from .volume import load_volume

    volume = load_volume(args.volume)
    model, _, _, _, _ = load_checkpoint(args.checkpoint)
    with open(args.latent, "rb") as f:
        _, header, arrays = read_blob(f, "NISF-LATENT", 1)
    require(arrays, ("h",), "latent payload")
    if header.get("model_checksum") not in (None, model.checksum()):
        return _fail("latent was fitted against a different model checkpoint")
    h = Tensor(arrays["h"].reshape(-1))

    spec = PlaneSpec(**_options(args, {}, _SAMPLE_PLANE), t=args.t, span_mm=volume.span_mm)

    resolved = {"checkpoint": os.path.abspath(args.checkpoint),
                "volume": os.path.abspath(args.volume),
                "latent": os.path.abspath(args.latent),
                **_by_flag(spec, _SAMPLE_PLANE), "t": args.t}
    _write_manifest(args.out, "sample-plane", resolved)

    sampled = sample_plane(model, h, spec)
    write_pgm8(os.path.join(args.out, "intensity8.pgm"), sampled.intensity)
    write_pgm16(os.path.join(args.out, "intensity16.pgm"), sampled.intensity)
    write_label_pgm(os.path.join(args.out, "labels.pgm"), sampled.labels,
                    model.config.num_classes)
    write_raw_f64(os.path.join(args.out, "intensity.nraw"), "intensity",
                  sampled.intensity, {"kind": "plane_intensity", "t": spec.t})
    write_raw_f64(os.path.join(args.out, "probs.nraw"), "probs",
                  sampled.probs, {"kind": "plane_probs", "t": spec.t})

    lines = [f"plane {spec.counts[0]}x{spec.counts[1]} pixels, "
             f"{int(sampled.out_of_volume.sum())} outside the volume"]
    if args.baseline:
        nn_int, nn_labels, inside = nearest_neighbor_resample(volume, spec)
        write_pgm8(os.path.join(args.out, "baseline_intensity8.pgm"), nn_int)
        write_label_pgm(os.path.join(args.out, "baseline_labels.pgm"), nn_labels,
                        model.config.num_classes)
        if volume.phantom is not None and inside.any():
            model_rep, nn_rep = plane_dice(volume, spec, sampled.labels, nn_labels, inside)
            lines.append(f"dice vs analytic truth: model {model_rep.mean:.4f}, "
                         f"nearest-neighbor {nn_rep.mean:.4f}")
            write_json_atomic(os.path.join(args.out, "baseline_report.json"),
                              {"model": model_rep.to_dict(), "baseline": nn_rep.to_dict()})
    if not args.quiet:
        for line in lines:
            print(line)
        print(f"outputs in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args: argparse.Namespace) -> int:
    from .gradcheck import run_model_check, run_op_checks

    op_report = run_op_checks(seed=args.seed)
    model_report = run_model_check(seed=args.seed)
    for line in op_report.lines() + model_report.lines():
        print(line)
    if op_report.passed and model_report.passed:
        print("gradcheck: all checks passed")
        return 0
    print("gradcheck: FAILED", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nisf",
                     description="Coordinate-field segmentation engine.")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread cap, which also caps the frozen trunk's "
                             "worker threads (default: OPENBLAS_NUM_THREADS, else the "
                             "CPUs this process may use)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic heart dataset")
    p.add_argument("--out", required=True)
    _add_options(p, _GEN_DATA)
    p.add_argument("--force", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-prior", help="train the shared field on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_options(p, _TRAIN_PRIOR)
    p.add_argument("--resume", nargs="?", const="auto", default=None,
                   help="resume from a checkpoint path, or 'auto' for the latest")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train_prior)

    p = sub.add_parser("infer", help="fit a latent for an unseen volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    _add_options(p, _INFER)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="Dice report for predicted label volumes")
    p.add_argument("--pred", default=None)
    p.add_argument("--true", default=None)
    p.add_argument("--pred-dir", default=None)
    p.add_argument("--true-dir", default=None)
    p.add_argument("--report", default=None, help="write the report as JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample-plane", help="evaluate the field on an arbitrary plane")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--latent", required=True)
    p.add_argument("--out", required=True)
    for flag, parse, _, help_text in _SAMPLE_PLANE:
        p.add_argument(flag, required=True, type=parse, help=help_text)
    p.add_argument("--t", type=float, default=0.0, help="normalized time in [0,1]")
    p.add_argument("--baseline", action="store_true",
                   help="also write the nearest-neighbor baseline and compare")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_sample_plane)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=nonnegative_integer, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_thread_limit(args.threads)
    from .errors import ContractError, NumericalError
    try:
        return args.func(args)
    except (ContractError, FileNotFoundError) as exc:
        return _fail(str(exc), 1)
    except NumericalError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
