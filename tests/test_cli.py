"""End-to-end smokes for the nisf command line, run as subprocesses."""

import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from nisf.model import ModelConfig
from nisf.serial import read_blob, write_blob
from nisf.training import CKPT_MAGIC, load_checkpoint
from nisf.volume import VOLUME_MAGIC, load_volume
from oracles import read_pgm

TINY = {"model": ModelConfig(num_res_layers=2, hidden_width=16,
                             latent_dim=8).to_dict()}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "nisf.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "set")
    res = run_cli("gen-data", "--out", out, "--seed", "5", "--split", "2,1,1",
                  "--grid", "8,8,2,2", "--spacing", "2,2,10", "--quiet")
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = str(tmp_path_factory.mktemp("run") / "prior")
    cfg = str(tmp_path_factory.mktemp("cfg") / "model.json")
    with open(cfg, "w") as f:
        json.dump(TINY, f)
    res = run_cli("train-prior", "--dataset", dataset, "--out", out,
                  "--config", cfg, "--epochs", "3", "--lr", "1e-3",
                  "--seed", "7", "--quiet")
    assert res.returncode == 0, res.stderr
    ckpt = res.stdout.strip().split()[-1]
    assert os.path.exists(ckpt)
    return out, ckpt


@pytest.fixture(scope="module")
def inferred(tmp_path_factory, dataset, trained):
    _, ckpt = trained
    out = str(tmp_path_factory.mktemp("fit") / "s0003")
    res = run_cli("infer", "--checkpoint", ckpt,
                  "--volume", os.path.join(dataset, "s0003.nvol"),
                  "--out", out, "--steps", "6", "--cadence", "3",
                  "--lr", "1e-2", "--seed", "3", "--quiet")
    assert res.returncode == 0, res.stderr
    return out


def test_gen_data_layout_and_manifest(dataset):
    names = sorted(os.listdir(dataset))
    assert names == ["dataset.json", "run_manifest.json",
                     "s0000.nvol", "s0001.nvol", "s0002.nvol", "s0003.nvol"]
    manifest = json.load(open(os.path.join(dataset, "dataset.json")))
    assert manifest["splits"] == {"train": ["s0000", "s0001"],
                                  "val": ["s0002"], "test": ["s0003"]}
    vol = load_volume(os.path.join(dataset, "s0000.nvol"))
    assert vol.shape == (8, 8, 2, 2)
    run = json.load(open(os.path.join(dataset, "run_manifest.json")))
    assert run["command"] == "gen-data"
    assert run["resolved_config"]["seed"] == 5


def test_gen_data_repeats_are_byte_identical(tmp_path, dataset):
    again = str(tmp_path / "again")
    res = run_cli("gen-data", "--out", again, "--seed", "5", "--split", "2,1,1",
                  "--grid", "8,8,2,2", "--spacing", "2,2,10", "--quiet")
    assert res.returncode == 0, res.stderr
    for name in sorted(os.listdir(dataset)):
        if name == "run_manifest.json":
            continue
        a = open(os.path.join(dataset, name), "rb").read()
        b = open(os.path.join(again, name), "rb").read()
        assert a == b, f"{name} differs between identical invocations"


def test_gen_data_refuses_nonempty_dir(dataset):
    res = run_cli("gen-data", "--out", dataset, "--seed", "5", "--split", "2,1,1",
                  "--grid", "8,8,2,2", "--quiet")
    assert res.returncode == 1
    assert "not empty" in res.stderr


def test_train_prior_outputs(trained):
    out, ckpt = trained
    assert os.path.exists(os.path.join(out, "run_manifest.json"))
    log = open(os.path.join(out, "train_log.csv")).read().splitlines()
    assert log[0].startswith("step,epoch,")
    assert len(log) > 1
    model, table, _, epoch, _ = load_checkpoint(ckpt)
    assert epoch == 3
    assert sorted(table.rows) == ["s0000", "s0001"]


def test_infer_outputs(inferred, trained):
    _, ckpt = trained
    with open(os.path.join(inferred, "latent.nlat"), "rb") as f:
        _, header, arrays = read_blob(f, "NISF-LATENT", 1)
    assert header["subject_id"] == "s0003"
    assert header["steps_run"] == 6
    model, _, _, _, _ = load_checkpoint(ckpt)
    assert header["model_checksum"] == model.checksum()
    assert arrays["h"].shape == (8,)
    trace = open(os.path.join(inferred, "trace.csv")).read().splitlines()
    assert trace[0].startswith("step,")
    assert len(trace) == 1 + 3          # steps 0, 3, 6
    pred = load_volume(os.path.join(inferred, "prediction.nvol"))
    assert pred.shape == (8, 8, 2, 2)
    assert pred.intensity.min() >= 0.0 and pred.intensity.max() <= 1.0


def test_infer_steps_names_the_whole_budget(dataset, trained, tmp_path):
    # one step count per fit: 1001 is above the default of 1000, and runs
    out = str(tmp_path / "long")
    res = run_cli("infer", "--checkpoint", trained[1],
                  "--volume", os.path.join(dataset, "s0003.nvol"), "--out", out,
                  "--steps", "1001", "--cadence", "500", "--lr", "1e-2", "--quiet")
    assert res.returncode == 0, res.stderr
    trace = open(os.path.join(out, "trace.csv")).read().splitlines()
    assert [row.split(",")[0] for row in trace[1:]] == ["0", "500", "1000", "1001"]


def test_gen_data_subject_count_is_the_split_sum(tmp_path):
    out = str(tmp_path / "set")
    res = run_cli("gen-data", "--out", out, "--split", "1,1,1", "--grid", "8,8,2,2")
    assert res.returncode == 0, res.stderr
    assert "dataset of 3 subjects" in res.stdout
    manifest = json.load(open(os.path.join(out, "dataset.json")))
    assert [e["id"] for e in manifest["subjects"]] == ["s0000", "s0001", "s0002"]
    assert manifest["splits"] == {"train": ["s0000"], "val": ["s0001"], "test": ["s0002"]}


@pytest.mark.parametrize("text, message", [
    ('{"format_version": 1, "subjects": []}', "missing 'splits'"),
    ('{"format_version": 1, "subj', "unreadable dataset manifest"),
    ('{"format_version": 1, "subjects": [{"id": "s0000"}], '
     '"splits": {"train": ["s0000"], "val": [], "test": []}}', "missing 'path'"),
    ('[1]', "must be a JSON object, got list"),
    ('{"format_version": 1, "subjects": 5, '
     '"splits": {"train": [], "val": [], "test": []}}', "'subjects' must be a list, got int"),
    ('{"format_version": 1, "subjects": [], '
     '"splits": {"train": "s0000", "val": [], "test": []}}', "split 'train' must be a list"),
    ('{"format_version": 1, "subjects": [], '
     '"splits": {"train": [[0]], "val": [], "test": []}}', "entry must be a str, got list"),
    ('{"format_version": 1, "subjects": ["s0000"], '
     '"splits": {"train": [], "val": [], "test": []}}', "must be a JSON object, got str"),
    ('{"format_version": 1, "subjects": [{"id": 0, "path": "s0000.nvol"}], '
     '"splits": {"train": [], "val": [], "test": []}}', "'id' must be a str, got int"),
    ('{"format_version": 1, "subjects": [{"id": "s0000", "path": null}], '
     '"splits": {"train": [], "val": [], "test": []}}', "'path' must be a str, got NoneType"),
])
def test_malformed_dataset_manifest_exits_1(text, message, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "dataset.json").write_text(text)
    _exits_1_naming(run_cli("train-prior", "--dataset", str(data),
                            "--out", str(tmp_path / "prior"), "--quiet"), message)


def test_eval_prints_table_and_writes_report(inferred, dataset, tmp_path):
    report = str(tmp_path / "dice.json")
    res = run_cli("eval", "--pred", os.path.join(inferred, "prediction.nvol"),
                  "--true", os.path.join(dataset, "s0003.nvol"),
                  "--report", report)
    assert res.returncode == 0, res.stderr
    assert "lv_myocardium" in res.stdout
    data = json.load(open(report))
    assert data["classes"] == ["lv_pool", "lv_myocardium", "rv_pool"]
    assert len(data["per_class"]) == 3


def test_eval_requires_inputs():
    res = run_cli("eval")
    assert res.returncode == 1
    assert "eval needs" in res.stderr


def test_sample_plane_writes_images(inferred, dataset, trained, tmp_path):
    _, ckpt = trained
    out = str(tmp_path / "plane")
    res = run_cli("sample-plane", "--checkpoint", ckpt,
                  "--volume", os.path.join(dataset, "s0003.nvol"),
                  "--latent", os.path.join(inferred, "latent.nlat"),
                  "--out", out, "--origin", "0.5,0.5,0.5",
                  "--dir1", "1,0,0", "--dir2", "0,1,0",
                  "--extent", "14,14", "--counts", "8,8", "--t", "0.0",
                  "--baseline", "--quiet")
    assert res.returncode == 0, res.stderr
    for name in ("intensity8.pgm", "labels.pgm", "baseline_intensity8.pgm",
                 "baseline_labels.pgm"):
        assert read_pgm(os.path.join(out, name)).shape == (8, 8)
    assert read_pgm(os.path.join(out, "intensity16.pgm")).dtype == np.dtype(">u2")
    with open(os.path.join(out, "probs.nraw"), "rb") as f:
        _, header, arrays = read_blob(f, "NISF-RAW", 1)
    assert header["kind"] == "plane_probs"
    assert arrays["probs"].shape == (8, 8, 4)
    baseline = json.load(open(os.path.join(out, "baseline_report.json")))
    # the report is experiments.plane_dice's scoring of the same plane
    from nisf.autodiff import Tensor
    from nisf.experiments import plane_dice
    from nisf.sampling import PlaneSpec, nearest_neighbor_resample, sample_plane
    volume = load_volume(os.path.join(dataset, "s0003.nvol"))
    model = load_checkpoint(ckpt)[0]
    with open(os.path.join(inferred, "latent.nlat"), "rb") as f:
        h = Tensor(read_blob(f, "NISF-LATENT", 1)[2]["h"])
    span = tuple((volume.shape[a] - 1) * volume.spacing[a] for a in range(3))
    spec = PlaneSpec(origin_norm=(0.5, 0.5, 0.5), dir1_mm=(1.0, 0.0, 0.0),
                     dir2_mm=(0.0, 1.0, 0.0), extent_mm=(14.0, 14.0), counts=(8, 8),
                     t=0.0, span_mm=span)
    _, nn_labels, inside = nearest_neighbor_resample(volume, spec)
    model_rep, nn_rep = plane_dice(volume, spec, sample_plane(model, h, spec).labels,
                                   nn_labels, inside)
    assert baseline == {"model": json.loads(json.dumps(model_rep.to_dict())),
                        "baseline": json.loads(json.dumps(nn_rep.to_dict()))}


def test_sample_plane_rejects_bad_direction(inferred, dataset, trained, tmp_path):
    _, ckpt = trained
    plane = {"--origin": "0.5,0.5,0.5", "--dir1": "1,0,0", "--dir2": "0,1,0",
             "--extent": "14,14", "--counts": "4,4"}

    def run(name, **flags):
        argv = [a for flag, value in {**plane, **flags}.items() for a in (flag, value)]
        return run_cli("sample-plane", "--checkpoint", ckpt,
                       "--volume", os.path.join(dataset, "s0003.nvol"),
                       "--latent", os.path.join(inferred, "latent.nlat"),
                       "--out", str(tmp_path / name), *argv, "--quiet")

    res = run("bad", **{"--dir1": "2,0,0"})
    assert res.returncode == 1
    assert "unit" in res.stderr
    # NaN passes every comparison-based check; it must not reach the trunk
    for flag, value in [("--dir1", "nan,0,0"), ("--origin", "nan,0.5,0.5"),
                        ("--extent", "nan,60")]:
        _exits_1_naming(run("nan", **{flag: value}), "must be finite")
        assert not os.path.exists(tmp_path / "nan"), flag


# runs the command line in this process, then prints its exit code and the
# count of live Python threads
_COUNT_THREADS = ("import sys, threading\n"
                  "from nisf.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, threading.active_count())\n")


@pytest.mark.parametrize("threads", [1, 2])
def test_threads_caps_the_trunk_workers(threads, inferred, dataset, trained, tmp_path):
    # a 128x128 plane is two trunk tiles at width 16: two workers (this
    # thread and one pool thread) at --threads 2, and no thread started at 1
    _, ckpt = trained
    res = subprocess.run(
        [sys.executable, "-c", _COUNT_THREADS, "--threads", str(threads), "sample-plane",
         "--checkpoint", ckpt, "--volume", os.path.join(dataset, "s0003.nvol"),
         "--latent", os.path.join(inferred, "latent.nlat"), "--out", str(tmp_path / "plane"),
         "--origin", "0.5,0.5,0.5", "--dir1", "1,0,0", "--dir2", "0,1,0",
         "--extent", "14,14", "--counts", "128,128", "--quiet"],
        capture_output=True, text=True)
    assert res.stdout.split() == ["0", str(threads)], res.stderr


def _rewritten(src, dest, magic, edit):
    # a copy of the envelope at src after edit(header, arrays)
    with open(src, "rb") as f:
        version, header, arrays = read_blob(f, magic, 1)
    del header["arrays"]
    edit(header, arrays)
    with open(dest, "wb") as f:
        write_blob(f, magic, version, header, arrays)
    return str(dest)


def _without(src, dest, magic, header_key=None, array=None):
    # a copy of the envelope at src, written without one header key or array
    return _rewritten(src, dest, magic,
                      lambda header, arrays: (header.pop(header_key, None),
                                              arrays.pop(array, None)))


def _renamed(d, old, new):
    d[new] = d.pop(old)


def _exits_1_naming(res, text):
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: ") and text in res.stderr, res.stderr
    assert "Traceback" not in res.stderr


def test_stored_model_config_with_a_wrong_key_exits_1(dataset, trained, tmp_path):
    # ModelConfig.from_dict, from a checkpoint's train config and from --config
    ckpt = _rewritten(trained[1], tmp_path / "w.nckpt", CKPT_MAGIC, lambda header, _: _renamed(
        header["train_config"]["model"], "hidden_width", "width"))
    _exits_1_naming(run_cli("infer", "--checkpoint", ckpt, "--out", str(tmp_path / "fit"),
                            "--volume", os.path.join(dataset, "s0003.nvol"), "--quiet"),
                    "model config: unknown keys ['width']")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": {"width": 16}}))
    out = str(tmp_path / "prior")
    _exits_1_naming(run_cli("train-prior", "--dataset", dataset, "--out", out,
                            "--config", str(cfg), "--quiet"),
                    "model config: unknown keys ['width']")
    assert not os.path.exists(out)


@pytest.mark.parametrize("part, key", [("train_config", "epoch"), ("weights", "beta")])
def test_stored_train_config_with_a_wrong_key_exits_1(part, key, dataset, trained, tmp_path):
    # TrainConfig.from_dict, with its loss weights
    def add_key(header, _):
        config = header["train_config"]
        (config if part == "train_config" else config[part])[key] = 1

    ckpt = _rewritten(trained[1], tmp_path / "k.nckpt", CKPT_MAGIC, add_key)
    what = {"train_config": "train config", "weights": "loss weights"}[part]
    _exits_1_naming(run_cli("infer", "--checkpoint", ckpt, "--out", str(tmp_path / "fit"),
                            "--volume", os.path.join(dataset, "s0003.nvol"), "--quiet"),
                    f"{what}: unknown keys ['{key}']")


def test_stored_phantom_with_a_wrong_key_exits_1(inferred, dataset, trained, tmp_path):
    # PhantomSpec.from_dict, which scores the baseline against the analytic labels
    volume = _rewritten(os.path.join(dataset, "s0003.nvol"), tmp_path / "r.nvol", VOLUME_MAGIC,
                        lambda header, _: _renamed(header["phantom"], "wall_thickness",
                                                   "radius"))
    _exits_1_naming(run_cli("sample-plane", "--checkpoint", trained[1], "--volume", volume,
                            "--latent", os.path.join(inferred, "latent.nlat"),
                            "--out", str(tmp_path / "plane"), "--origin", "0.5,0.5,0.5",
                            "--dir1", "1,0,0", "--dir2", "0,1,0", "--extent", "14,14",
                            "--counts", "4,4", "--t", "0.0", "--baseline", "--quiet"),
                    "phantom spec: unknown keys ['radius'], missing keys ['wall_thickness']")


def test_malformed_envelopes_exit_1_naming_what_is_missing(inferred, dataset, trained,
                                                           tmp_path):
    _, ckpt = trained
    volume = os.path.join(dataset, "s0003.nvol")
    latent = os.path.join(inferred, "latent.nlat")
    plane = ("--origin", "0.5,0.5,0.5", "--dir1", "1,0,0", "--dir2", "0,1,0",
             "--extent", "14,14", "--counts", "4,4", "--quiet")
    runs = {
        "'shape'": ("eval", "--true", volume, "--pred",
                    _without(volume, tmp_path / "a.nvol", VOLUME_MAGIC, header_key="shape")),
        "'train_config'": ("infer", "--volume", volume, "--out", str(tmp_path / "fit"),
                           "--checkpoint", _without(ckpt, tmp_path / "b.nckpt", CKPT_MAGIC,
                                                    header_key="train_config")),
        "'h'": ("sample-plane", "--checkpoint", ckpt, "--volume", volume,
                "--out", str(tmp_path / "plane"), *plane,
                "--latent", _without(latent, tmp_path / "c.nlat", "NISF-LATENT", array="h")),
        # a volume of zero frames
        "volume extents must be >= 1": (
            "infer", "--checkpoint", ckpt, "--out", str(tmp_path / "fit0"), "--volume",
            _rewritten(volume, tmp_path / "d.nvol", VOLUME_MAGIC, lambda header, arrays: (
                header.update(shape=[*header["shape"][:3], 0]),
                arrays.update({k: v[..., :0] for k, v in arrays.items()})))),
    }
    # header keys of the wrong JSON type, each named
    for key, value, kind in [("epoch_done", "x", "int"), ("subject_ids", 5, "list"),
                             ("adam_model_t", None, "int")]:
        bad = _rewritten(ckpt, tmp_path / f"{key}.nckpt", CKPT_MAGIC,
                         lambda header, _: header.update({key: value}))
        runs[f"'{key}' must be a {kind}"] = ("infer", "--volume", volume, "--checkpoint", bad,
                                             "--out", str(tmp_path / f"fit_{key}"))
    for missing, argv in runs.items():
        res = run_cli(*argv)
        assert res.returncode == 1, (argv[0], res.stderr)
        assert res.stderr.startswith("error: ") and missing in res.stderr, res.stderr


def test_gradcheck_command_passes():
    res = run_cli("gradcheck", "--seed", "1")
    assert res.returncode == 0, res.stderr
    assert "all checks passed" in res.stdout


def test_usage_errors_exit_1():
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("infer", "--checkpoint", "x").returncode == 1  # missing flags


def test_readme_commands_parse():
    # every command of README's "Command line" block, so a removed flag
    # cannot survive in the docs
    from nisf.cli import build_parser

    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("nisf ")]
    assert [argv[1] for argv in commands] == ["gen-data", "train-prior", "infer", "eval",
                                              "sample-plane", "gradcheck"]
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_missing_checkpoint_exits_1(dataset, tmp_path):
    res = run_cli("infer", "--checkpoint", str(tmp_path / "none.nckpt"),
                  "--volume", os.path.join(dataset, "s0003.nvol"),
                  "--out", str(tmp_path / "o"), "--steps", "1")
    assert res.returncode == 1


def test_divergent_training_exits_2_after_manifest(dataset, tmp_path):
    """A non-finite loss is a numerical failure (exit 2), and the run
    manifest must already be on disk when it happens."""
    out = str(tmp_path / "diverge")
    cfg = str(tmp_path / "model.json")
    with open(cfg, "w") as f:
        json.dump(TINY, f)
    res = run_cli("train-prior", "--dataset", dataset, "--out", out,
                  "--config", cfg, "--epochs", "30", "--lr", "1e200", "--quiet")
    assert res.returncode == 2, (res.returncode, res.stderr)
    assert "non-finite" in res.stderr
    assert os.path.exists(os.path.join(out, "run_manifest.json"))


def test_config_file_flag_precedence(dataset, tmp_path):
    """Explicit flags beat config-file values for the same key."""
    out = str(tmp_path / "prec")
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as f:
        json.dump({**TINY, "epochs": 999, "lr": 0.5}, f)
    res = run_cli("train-prior", "--dataset", dataset, "--out", out,
                  "--config", cfg, "--epochs", "1", "--lr", "1e-3", "--quiet")
    assert res.returncode == 0, res.stderr
    run = json.load(open(os.path.join(out, "run_manifest.json")))
    assert run["resolved_config"]["epochs"] == 1
    assert run["resolved_config"]["lr_prior"] == 1e-3


# -- resolved options -----------------------------------------------------------


def _resolved(out):
    """The manifest's resolved_config as sorted-key JSON text, so 2 and 2.0 differ."""
    with open(os.path.join(out, "run_manifest.json")) as f:
        return json.dumps(json.load(f)["resolved_config"], sort_keys=True)


def _same_json(expected):
    return json.dumps(expected, sort_keys=True)


def test_gen_data_resolved_config_at_defaults(tmp_path):
    out = str(tmp_path / "full")
    res = run_cli("gen-data", "--out", out, "--quiet")
    assert res.returncode == 0, res.stderr
    assert _resolved(out) == _same_json(
        {"seed": 0, "split": [60, 10, 20],
         "grid": [32, 32, 8, 10], "spacing": [2.0, 2.0, 10.0]})
    assert len(os.listdir(out)) == 92


def test_train_prior_resolved_config_at_defaults(dataset, tmp_path):
    out = str(tmp_path / "defaults")
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(TINY))
    res = run_cli("train-prior", "--dataset", dataset, "--out", out,
                  "--config", str(cfg), "--quiet")
    assert res.returncode == 0, res.stderr
    assert _resolved(out) == _same_json(
        {"checkpoint_every": 0, "dataset": os.path.abspath(dataset), "epochs": 200,
         "log_every": 1, "lr_prior": 0.0001, "model": TINY["model"], "seed": 0,
         "weights": {"alpha": 10.0, "lambda_h": 0.0001, "lambda_theta_phi": 1e-06}})


def test_infer_resolved_config_at_defaults(dataset, trained, tmp_path):
    _, ckpt = trained
    out = str(tmp_path / "defaults")
    volume = os.path.join(dataset, "s0003.nvol")
    res = run_cli("infer", "--checkpoint", ckpt, "--volume", volume, "--out", out,
                  "--quiet")
    assert res.returncode == 0, res.stderr
    assert _resolved(out) == _same_json(
        {"cadence": 50, "checkpoint": os.path.abspath(ckpt), "lambda_h": 0.0001,
         "lr": 0.0001, "points_per_step": None, "seed": 0, "steps": 1000,
         "volume": os.path.abspath(volume)})


def test_sample_plane_resolved_config_at_defaults(inferred, dataset, trained, tmp_path):
    _, ckpt = trained
    out = str(tmp_path / "plane")
    volume = os.path.join(dataset, "s0003.nvol")
    latent = os.path.join(inferred, "latent.nlat")
    res = run_cli("sample-plane", "--checkpoint", ckpt, "--volume", volume,
                  "--latent", latent, "--out", out, "--origin", "0.5,0.5,0.5",
                  "--dir1", "1,0,0", "--dir2", "0,1,0", "--extent", "14,14",
                  "--counts", "8,8", "--quiet")
    assert res.returncode == 0, res.stderr
    assert _resolved(out) == _same_json(
        {"checkpoint": os.path.abspath(ckpt), "volume": os.path.abspath(volume),
         "latent": os.path.abspath(latent), "origin": [0.5, 0.5, 0.5],
         "dir1": [1.0, 0.0, 0.0], "dir2": [0.0, 1.0, 0.0], "extent": [14.0, 14.0],
         "counts": [8, 8], "t": 0.0})


def test_gen_data_reads_lists_from_config(dataset, tmp_path):
    """JSON lists in the config file stand for the comma flags."""
    cfg = tmp_path / "data.json"
    cfg.write_text(json.dumps({"seed": 5, "split": [2, 1, 1],
                               "grid": [8, 8, 2, 2]}))
    out = str(tmp_path / "from_config")
    res = run_cli("gen-data", "--out", out, "--config", str(cfg), "--quiet")
    assert res.returncode == 0, res.stderr
    assert _resolved(out) == _resolved(dataset)
    assert sorted(os.listdir(out)) == sorted(os.listdir(dataset))
    for name in os.listdir(dataset):
        if name != "run_manifest.json":
            with open(os.path.join(dataset, name), "rb") as a, \
                    open(os.path.join(out, name), "rb") as b:
                assert a.read() == b.read(), name


def test_infer_flag_beats_config_value(dataset, trained, tmp_path):
    _, ckpt = trained
    cfg = tmp_path / "infer.json"
    cfg.write_text(json.dumps({"steps": 4, "cadence": 2, "lr": 0.5, "seed": 9}))
    out = str(tmp_path / "fit")
    res = run_cli("infer", "--checkpoint", ckpt,
                  "--volume", os.path.join(dataset, "s0003.nvol"), "--out", out,
                  "--config", str(cfg), "--lr", "1e-2", "--quiet")
    assert res.returncode == 0, res.stderr
    resolved = json.loads(_resolved(out))
    assert (resolved["steps"], resolved["cadence"], resolved["lr"],
            resolved["seed"]) == (4, 2, 1e-2, 9)
    with open(os.path.join(out, "latent.nlat"), "rb") as f:
        _, header, _ = read_blob(f, "NISF-LATENT", 1)
    assert (header["steps_run"], header["seed"]) == (4, 9)


def test_malformed_option_values_exit_1(dataset, trained, tmp_path):
    res = run_cli("gen-data", "--out", str(tmp_path / "g"), "--grid", "8,8,2", "--quiet")
    assert res.returncode == 1
    assert "--grid" in res.stderr
    assert not os.path.exists(tmp_path / "g")
    res = run_cli("gen-data", "--out", str(tmp_path / "s"), "--split", "2,-1,1", "--quiet")
    assert res.returncode == 1
    assert "split counts must be >= 0" in res.stderr
    assert not os.path.exists(tmp_path / "s")
    # grid counts and spacings are checked before any output is written
    named = {"--grid": "grid must be X,Y,Z >= 2 and T >= 1 voxel counts",
             "--spacing": "spacing must be 3 finite positive mm values"}
    for name, flag, value in [("n", "--spacing", "nan,2,10"), ("s0", "--spacing", "0,2,10"),
                              ("t0", "--grid", "8,8,2,0"), ("t-1", "--grid", "8,8,2,-1"),
                              ("x1", "--grid", "1,8,2,2"), ("z0", "--grid", "8,8,0,2"),
                              ("z1", "--grid", "8,8,1,2")]:
        res = run_cli("gen-data", "--out", str(tmp_path / name), "--split", "1,0,0",
                      flag, value, "--quiet")
        _exits_1_naming(res, named[flag])
        assert not os.path.exists(tmp_path / name), (flag, value)
    res = run_cli("train-prior", "--dataset", dataset, "--out", str(tmp_path / "t"),
                  "--epochs", "x", "--quiet")
    assert res.returncode == 1
    assert "--epochs" in res.stderr
    assert not os.path.exists(tmp_path / "t")
    # a negative seed, as a flag or as a config key, stops before any output
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"seed": -1}))
    volume = os.path.join(dataset, "s0003.nvol")
    for name, argv in [
            ("g1", ["gen-data", "--seed", "-1"]),
            ("g2", ["gen-data", "--config", str(negative)]),
            ("t1", ["train-prior", "--dataset", dataset, "--seed", "-1"]),
            ("t2", ["train-prior", "--dataset", dataset, "--config", str(negative)]),
            ("i1", ["infer", "--checkpoint", trained[1], "--volume", volume, "--seed", "-1"]),
            ("i2", ["infer", "--checkpoint", trained[1], "--volume", volume,
                    "--config", str(negative)])]:
        res = run_cli(*argv, "--out", str(tmp_path / name), "--quiet")
        assert res.returncode == 1, argv
        assert "error: " in res.stderr and "seed" in res.stderr, res.stderr
        assert "Traceback" not in res.stderr
        assert not os.path.exists(tmp_path / name), argv
    res = run_cli("gradcheck", "--seed", "-1")
    assert res.returncode == 1
    assert "error: " in res.stderr and "--seed" in res.stderr
    assert res.stdout == ""


def test_gen_data_matches_build_splits(dataset, tmp_path):
    """The CLI writes the same subjects, ids and splits as the experiment pipeline."""
    from dataclasses import replace

    from nisf.experiments import DeskScaleConfig, build_splits
    from nisf.volume import save_volume

    cfg = replace(DeskScaleConfig(), dataset_seed=5, train_subjects=2, val_subjects=1,
                  test_subjects=1, grid_shape=(8, 8, 2, 2), spacing=(2.0, 2.0, 10.0))
    with open(os.path.join(dataset, "dataset.json")) as f:
        manifest = json.load(f)
    splits = build_splits(cfg)
    assert {k: [v.subject_id for v in vols] for k, vols in splits.items()} \
        == manifest["splits"]
    for vol in (v for vols in splits.values() for v in vols):
        path = str(tmp_path / f"{vol.subject_id}.nvol")
        save_volume(vol, path)
        with open(path, "rb") as a, \
                open(os.path.join(dataset, f"{vol.subject_id}.nvol"), "rb") as b:
            assert a.read() == b.read(), vol.subject_id


@pytest.mark.parametrize("command", ["gen-data", "train-prior", "infer"])
def test_unknown_config_key_exits_1_naming_it(command, dataset, trained, tmp_path):
    """{"epoch": 5} must not silently train the default epoch count, and the
    retired keys max_steps (infer) and subjects (gen-data) are unknown too."""
    required = {"gen-data": [],
                "train-prior": ["--dataset", dataset],
                "infer": ["--checkpoint", trained[1],
                          "--volume", os.path.join(dataset, "s0003.nvol")]}[command]
    retired = {"gen-data": ["subjects"], "infer": ["max_steps"]}.get(command, [])
    for key in ["epoch", *retired]:
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({**TINY, key: 5}))
        out = str(tmp_path / "out")
        res = run_cli(command, *required, "--out", out, "--config", str(cfg), "--quiet")
        assert res.returncode == 1
        assert f"'{key}'" in res.stderr
        assert not os.path.exists(out)


def _infer_rejects_lambda_h(dataset, ckpt, out, value):
    res = run_cli("infer", "--checkpoint", ckpt,
                  "--volume", os.path.join(dataset, "s0003.nvol"),
                  "--out", out, "--lambda-h", value, "--quiet")
    assert res.returncode == 1, res.stderr
    assert "nonnegative" in res.stderr
    assert not os.path.exists(os.path.join(out, "run_manifest.json"))


def test_negative_lambda_h_exits_1_before_manifest(dataset, trained, tmp_path):
    _infer_rejects_lambda_h(dataset, trained[1], str(tmp_path / "neg"), "-1")


def test_nan_lambda_h_exits_1_before_manifest(dataset, trained, tmp_path):
    # float("nan") parses, and NaN passes every comparison-based range check
    _infer_rejects_lambda_h(dataset, trained[1], str(tmp_path / "nan"), "nan")


def test_negative_checkpoint_cadence_exits_1(dataset, tmp_path):
    res = run_cli("train-prior", "--dataset", dataset, "--out", str(tmp_path / "neg"),
                  "--checkpoint-every", "-1", "--quiet")
    assert res.returncode == 1
    assert "checkpoint_every" in res.stderr


@pytest.mark.parametrize("command,key,value", [("train-prior", "epochs", 2.7),
                                               ("gen-data", "grid", [8.5, 8, 2, 2]),
                                               ("train-prior", "epochs", True),
                                               ("infer", "lr", True),
                                               ("gen-data", "spacing", [2, 2, True])])
def test_non_integral_config_number_exits_1_naming_it(command, key, value, dataset, trained,
                                                      tmp_path):
    """{"epochs": 2.7} must not silently train 2 epochs, nor {"epochs": true} 1."""
    cfg = tmp_path / "frac.json"
    cfg.write_text(json.dumps({**TINY, key: value} if command == "train-prior"
                              else {key: value}))
    out = str(tmp_path / "out")
    required = {"gen-data": [],
                "train-prior": ["--dataset", dataset],
                "infer": ["--checkpoint", trained[1],
                          "--volume", os.path.join(dataset, "s0003.nvol")]}[command]
    res = run_cli(command, *required, "--out", out, "--config", str(cfg), "--quiet")
    assert res.returncode == 1
    assert f"config key '{key}'" in res.stderr
    assert json.dumps(value) in res.stderr
    assert not os.path.exists(out)


def test_integer_parser_takes_integral_numbers_only():
    from nisf.cli import integer

    assert integer("12") == 12 and integer(3) == 3 and integer(2.0) == 2
    with pytest.raises(ValueError):
        integer(2.7)
    with pytest.raises(ValueError):
        integer("2.7")


def test_train_prior_log_starts_fresh_unless_resuming(dataset, tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(TINY))
    out = str(tmp_path / "prior")
    log_path = os.path.join(out, "train_log.csv")

    def train(*extra):
        res = run_cli("train-prior", "--dataset", dataset, "--out", out, "--config",
                      str(cfg), "--checkpoint-every", "1", "--quiet", *extra)
        assert res.returncode == 0, res.stderr
        with open(log_path) as f:
            return f.read().splitlines()

    first = train("--epochs", "1")
    assert first[0].startswith("step,epoch,") and len(first) == 1 + 2  # 2 subjects
    again = train("--epochs", "1")  # a fresh run replaces the log
    assert len(again) == 1 + 2
    resumed = train("--epochs", "2", "--resume")
    assert resumed[:3] == again
    assert len(resumed) == 1 + 4
    assert sum(line.startswith("step,") for line in resumed) == 1
