"""Prior training: joint optimization of the field network and a
per-subject latent table.

Each training step visits one subject, draws one uniform time frame,
builds a full-volume batch for that frame (every observed voxel), and
takes one Adam step on the model parameters together with that subject's
latent row. Every latent row owns an independent optimizer state that
persists across epochs.

Randomness is hierarchical: epoch-level generators are derived from
(seed, stream, epoch), so a run resumed from an epoch-boundary
checkpoint replays exactly the same subject order and frame draws as an
uninterrupted run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ContractError, NumericalError
from .losses import LossReport, LossWeights, train_loss
from .model import FieldModel, ModelConfig
from .optim import Adam
from .serial import (config_dict, config_from_dict, config_hash, expect, read_blob,
                     require, write_blob, write_text_atomic)
from .volume import VolumeSample, make_batch

CKPT_MAGIC = "NISF-CKPT"
CKPT_VERSION = 1

LATENT_PRIOR_SIGMA = 0.1  # rows start from N(0, 1e-2)

# Seed-stream tags (entropy words mixed into per-purpose SeedSequences).
_STREAM_TABLE = 0x1A7
_STREAM_ORDER = 0x0E0
_STREAM_FRAME = 0x0F0

@dataclass(frozen=True)
class TrainConfig:
    """Prior-training hyperparameters (architecture included)."""

    model: ModelConfig = field(default_factory=ModelConfig)
    epochs: int = 200
    lr_prior: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    checkpoint_every: int = 0  # epochs between checkpoints; 0 = final only
    log_every: int = 1         # steps between log rows

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if not (np.isfinite(self.lr_prior) and self.lr_prior > 0):
            raise ContractError("lr_prior must be finite and positive")
        for name in ("checkpoint_every", "log_every"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0 (0 turns it off)")

    def to_dict(self) -> dict:
        return config_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return config_from_dict(cls, d, "train config", model=ModelConfig.from_dict,
                                weights=lambda w: config_from_dict(LossWeights, w, "loss weights"))

    def trajectory_dict(self) -> dict:
        """The fields that determine the optimization trajectory.

        Epoch count and I/O cadences are deliberately excluded: a longer
        run is an exact extension of a shorter one (per-epoch seed
        streams), and checkpoint/log cadence never touch the math.
        """
        d = self.to_dict()
        for key in ("epochs", "checkpoint_every", "log_every"):
            del d[key]
        return d

    def content_hash(self) -> str:
        return config_hash(self.trajectory_dict())


class LatentTable:
    """Trainable per-subject latent rows plus their optimizer states."""

    def __init__(self, subject_ids: list[str], latent_dim: int, seed: int,
                 lr: float):
        if len(set(subject_ids)) != len(subject_ids):
            raise ContractError("duplicate subject ids in latent table")
        if not subject_ids:
            raise ContractError("latent table needs at least one subject")
        self.subject_ids = list(subject_ids)
        self.latent_dim = latent_dim
        rng = np.random.default_rng(np.random.SeedSequence([_STREAM_TABLE, seed]))
        rows = rng.normal(0.0, LATENT_PRIOR_SIGMA, size=(len(subject_ids), latent_dim))
        self.rows = {sid: Tensor(rows[i].copy()) for i, sid in enumerate(subject_ids)}
        self.adams = {sid: Adam({"h": self.rows[sid]}, lr=lr) for sid in subject_ids}

    def __len__(self) -> int:
        return len(self.subject_ids)

    def row(self, subject_id: str) -> Tensor:
        if subject_id not in self.rows:
            raise ContractError(f"unknown subject {subject_id!r}")
        return self.rows[subject_id]

    def matrix(self) -> np.ndarray:
        return np.stack([self.rows[sid].values for sid in self.subject_ids])

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"latent.H": self.matrix()}
        out["adam_latent.m"] = np.stack([self.adams[s].m["h"] for s in self.subject_ids])
        out["adam_latent.v"] = np.stack([self.adams[s].v["h"] for s in self.subject_ids])
        out["adam_latent.t"] = np.array([self.adams[s].t for s in self.subject_ids],
                                        dtype=np.int64)
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        H = arrays["latent.H"]
        if H.shape != (len(self), self.latent_dim):
            raise ContractError(f"latent table shape {H.shape} != "
                                f"({len(self)}, {self.latent_dim})")
        for i, sid in enumerate(self.subject_ids):
            self.rows[sid].values[...] = H[i]
            self.adams[sid].load_state(int(arrays["adam_latent.t"][i]),
                                       {"h.m": arrays["adam_latent.m"][i],
                                        "h.v": arrays["adam_latent.v"][i]})


@dataclass
class LogRow:
    step: int
    epoch: int
    subject_id: str
    t_index: int
    report: LossReport
    wall_time: float

    @staticmethod
    def csv_header() -> str:
        return ",".join(["step", "epoch", "subject_id", "t_index",
                         *LossReport.csv_fields(), "wall_time"])

    def csv(self) -> str:
        return ",".join([str(self.step), str(self.epoch), self.subject_id,
                         str(self.t_index), *self.report.csv_row(),
                         f"{self.wall_time:.3f}"])


def _start_train_log(out_dir: str, global_step: int) -> tuple[str, float]:
    """Rewrite ``out_dir``'s ``train_log.csv`` to end at ``global_step``.

    A resumed run keeps the rows its checkpoint covers and drops any that
    an interrupted run logged after it, since it logs those steps again; a
    fresh run (step 0) keeps none. The file is replaced atomically and
    starts with one header row. Returns its path and the last kept row's
    ``wall_time`` (0.0 if none), from which a resumed run's clock goes on.
    """
    path = os.path.join(out_dir, "train_log.csv")
    lines = [LogRow.csv_header()]
    if global_step and os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f.read().splitlines()[1:]:
                step = line.split(",", 1)[0]
                if step.isdigit() and int(step) <= global_step:
                    lines.append(line)
    write_text_atomic(path, "\n".join(lines) + "\n")
    wall_time = float(lines[-1].rsplit(",", 1)[1]) if len(lines) > 1 else 0.0
    return path, wall_time


@dataclass
class TrainResult:
    model: FieldModel
    table: LatentTable
    log: list[LogRow]
    final_checkpoint: str | None
    global_step: int


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, np.random.Generator]:
    order = np.random.default_rng(np.random.SeedSequence([_STREAM_ORDER, seed, epoch]))
    frame = np.random.default_rng(np.random.SeedSequence([_STREAM_FRAME, seed, epoch]))
    return order, frame


def train_prior(subjects: list[VolumeSample], config: TrainConfig,
                out_dir: str | None = None, resume_from: str | None = None) -> TrainResult:
    """Run the prior-training loop over epochs; optionally resumable.

    ``subjects`` order defines latent-table row order and must match
    between original and resumed runs (the checkpoint records the ids
    and refuses a mismatch). With ``out_dir``, checkpoints go there and
    log rows are appended to its ``train_log.csv`` as they are produced;
    a resumed run's ``wall_time`` goes on from the rows it keeps.
    """
    if not subjects:
        raise ContractError("train_prior needs at least one subject")
    ids = [s.subject_id for s in subjects]
    by_id = {s.subject_id: s for s in subjects}
    for s in subjects:
        if int(s.labels.max()) >= config.model.num_classes:
            raise ContractError(f"subject {s.subject_id}: label ids exceed "
                                f"num_classes {config.model.num_classes}")

    if resume_from is not None:
        model, table, adam_model, start_epoch, global_step = load_checkpoint(
            resume_from, config, ids)
    else:
        model = FieldModel.init(config.model, seed=config.seed)
        table = LatentTable(ids, config.model.latent_dim, seed=config.seed,
                            lr=config.lr_prior)
        adam_model = Adam({n: model.params[n] for n in model.param_names()},
                          lr=config.lr_prior)
        start_epoch, global_step = 0, 0

    log_path, wall_offset = (None, 0.0) if out_dir is None else _start_train_log(
        out_dir, global_step)
    log: list[LogRow] = []
    t_start = time.monotonic() - wall_offset  # a resumed log's wall_time goes on
    final_ckpt = None

    for epoch in range(start_epoch, config.epochs):
        order_rng, frame_rng = _epoch_rngs(config.seed, epoch)
        order = order_rng.permutation(len(ids))
        for visit in order:
            sid = ids[visit]
            subject = by_id[sid]
            t_index = int(frame_rng.integers(subject.num_frames))
            batch = make_batch(subject, t_index)
            h = table.row(sid)
            try:
                with Tape(wrt=[*model.parameters(), h]) as tape:
                    terms = train_loss(model, h, batch.coords, batch.intensities,
                                       batch.labels, config.weights)
                    tape.backward(terms.total)
            except NumericalError as exc:
                raise NumericalError(
                    f"non-finite loss at step {global_step} (epoch {epoch}, "
                    f"subject {sid}, frame {t_index}): {exc}") from exc
            adam_model.step()
            table.adams[sid].step()
            global_step += 1
            if config.log_every and global_step % config.log_every == 0:
                row = LogRow(step=global_step, epoch=epoch, subject_id=sid,
                             t_index=t_index, report=terms.report,
                             wall_time=time.monotonic() - t_start)
                log.append(row)
                if log_path is not None:
                    with open(log_path, "a", encoding="utf-8") as f:
                        f.write(row.csv() + "\n")
        at_cadence = config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0
        if out_dir is not None and (at_cadence or epoch + 1 == config.epochs):
            final_ckpt = os.path.join(out_dir, f"ckpt_epoch{epoch + 1:05d}.nckpt")
            save_checkpoint(final_ckpt, model, table, adam_model, config,
                            epoch_done=epoch + 1, global_step=global_step)
    return TrainResult(model=model, table=table, log=log,
                       final_checkpoint=final_ckpt, global_step=global_step)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, model: FieldModel, table: LatentTable,
                    adam_model: Adam, config: TrainConfig, epoch_done: int,
                    global_step: int) -> None:
    header = {
        "train_config": config.to_dict(),
        "config_hash": config.content_hash(),
        "subject_ids": table.subject_ids,
        "epoch_done": epoch_done,
        "global_step": global_step,
        "adam_model_t": adam_model.t,
    }
    arrays: dict[str, np.ndarray] = {}
    for name in model.param_names():
        arrays[f"model.{name}"] = model.params[name].values
    for key, arr in adam_model.state_arrays().items():
        arrays[f"adam_model.{key}"] = arr
    arrays.update(table.state_arrays())
    with open(path, "wb") as f:
        write_blob(f, CKPT_MAGIC, CKPT_VERSION, header, arrays)


def load_checkpoint(path: str, config: TrainConfig | None = None,
                    expect_ids: list[str] | None = None
                    ) -> tuple[FieldModel, LatentTable, Adam, int, int]:
    """Restore (model, table, model optimizer, next_epoch, global_step)."""
    with open(path, "rb") as f:
        _, header, arrays = read_blob(f, CKPT_MAGIC, CKPT_VERSION)
    require(header, ("train_config", "config_hash", "subject_ids", "epoch_done",
                     "global_step", "adam_model_t"), "checkpoint header")
    expect(header["subject_ids"], list, "checkpoint header 'subject_ids'")
    for subject_id in header["subject_ids"]:
        expect(subject_id, str, "checkpoint header 'subject_ids' entry")
    for key in ("epoch_done", "global_step", "adam_model_t"):
        expect(header[key], int, f"checkpoint header {key!r}")
    saved_config = TrainConfig.from_dict(header["train_config"])
    if config is not None and config.content_hash() != header["config_hash"]:
        raise ContractError("checkpoint was written under a different config; "
                            "resuming would not reproduce the original run")
    cfg = (config or saved_config)
    ids = header["subject_ids"]
    if expect_ids is not None and ids != list(expect_ids):
        raise ContractError("checkpoint subject ids do not match the dataset")

    names = FieldModel._names_for(cfg.model)
    require(arrays, [*(f"model.{name}" for name in names), "latent.H", "adam_latent.m",
                     "adam_latent.v", "adam_latent.t"], "checkpoint payload")
    params = {name: Tensor(arrays[f"model.{name}"]) for name in names}
    model = FieldModel(cfg.model, params)
    adam_model = Adam({n: model.params[n] for n in model.param_names()},
                      lr=cfg.lr_prior)
    adam_model.load_state(header["adam_model_t"],
                          {k[len("adam_model."):]: v for k, v in arrays.items()
                           if k.startswith("adam_model.")})
    table = LatentTable(ids, cfg.model.latent_dim, seed=cfg.seed, lr=cfg.lr_prior)
    table.load_state(arrays)
    return model, table, adam_model, header["epoch_done"], header["global_step"]


def latest_checkpoint(out_dir: str) -> str | None:
    names = sorted(n for n in os.listdir(out_dir)
                   if n.startswith("ckpt_epoch") and n.endswith(".nckpt"))
    return os.path.join(out_dir, names[-1]) if names else None
