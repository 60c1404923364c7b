"""The two-headed residual field network.

One MLP trunk maps a concatenated (coordinate, latent) input through
Gabor-activated residual blocks; a softmax head emits per-class
segmentation probabilities and a sigmoid head emits image intensity.
Both heads read the same trunk features, which is what lets a latent
fitted on intensities alone carry segmentation information.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .serial import config_dict, config_from_dict, read_blob, require, write_blob

MODEL_MAGIC = "NISF-MODEL"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Defaults: 4 coordinates (x, y, z, t), 128-dim latent, 8 residual
    layers of width 128, 4 classes (background, LV pool, LV myocardium,
    RV pool). Class 0 is background so the softmax covers every point in
    the domain.
    """

    coord_dim: int = 4
    latent_dim: int = 128
    hidden_width: int = 128
    num_res_layers: int = 8
    num_classes: int = 4
    gabor_omega0: float = 10.0
    gabor_s0: float = 5.0

    def __post_init__(self):
        if self.coord_dim < 1 or self.latent_dim < 1:
            raise ContractError("coord_dim and latent_dim must be >= 1")
        if self.num_classes < 2:
            raise ContractError("num_classes must be >= 2")
        if self.num_res_layers < 1:
            raise ContractError("num_res_layers must be >= 1")
        if self.hidden_width < 1:
            raise ContractError("hidden_width must be >= 1")
        if not all(np.isfinite(v) and v > 0 for v in (self.gabor_omega0, self.gabor_s0)):
            raise ContractError("wavelet frequency and spread must be finite and positive")

    def to_dict(self) -> dict:
        return config_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model config")


class FieldOutput(NamedTuple):
    """Forward result: the pair ``(seg_probs, intensity)``, also readable by name."""

    seg_probs: Tensor
    intensity: Tensor


class FieldModel:
    """Parameter container + forward pass. Parameters live in a dict keyed
    by canonical names; ``param_names`` fixes the serialization order.

    A taped forward records five entries: the input layer and the whole
    residual trunk as one (``ad.gabor_trunk``), and each head's layer and
    activation. The trunk entry keeps only what its backward reads, and
    the tape keeps no layer's output, so a latent-only step holds one
    [B, hidden_width] array per residual block (its wavelet derivative)
    and no other batch-sized array. ``intensity`` runs the same trunk
    under the intensity head alone, for objectives that never read the
    segmentation head.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        expected = set(self._names_for(config))
        if set(params) != expected:
            missing = expected - set(params)
            extra = set(params) - expected
            raise ContractError(f"parameter set mismatch: missing={sorted(missing)} "
                                f"extra={sorted(extra)}")
        self.params = params

    # -- construction -------------------------------------------------

    @staticmethod
    def _names_for(cfg: ModelConfig) -> list[str]:
        names = ["w_in", "b_in"]
        for i in range(cfg.num_res_layers):
            names += [f"res{i}_w1", f"res{i}_b1", f"res{i}_w2", f"res{i}_b2"]
        names += ["w_seg", "b_seg", "w_int", "b_int"]
        return names

    @classmethod
    def init(cls, cfg: ModelConfig, seed: int) -> "FieldModel":
        """Seeded random initialization.

        Scales are tuned so trunk activations on unit-cube coordinates
        with prior-scale latents have standard deviation well inside
        [0.1, 2.0]: the Gabor pre-activation must stay within the
        wavelet's envelope (|s0*x| around 1) or the trunk collapses to
        its skip path. Heads start small so initial predictions sit near
        uniform / 0.5 without being exactly degenerate.
        """
        rng = np.random.default_rng(np.random.SeedSequence([0xF1E1D, seed]))
        w = cfg.hidden_width

        def normal(scale, *shape):
            return Tensor(rng.normal(0.0, scale, size=shape))

        def zeros(*shape):
            return Tensor(np.zeros(shape))

        params: dict[str, Tensor] = {}
        fan_in = cfg.coord_dim + cfg.latent_dim
        params["w_in"] = normal(1.0 / np.sqrt(fan_in), fan_in, w)
        params["b_in"] = zeros(w)
        # Pre-activation std target ~= 1/(2*s0); the 1/sqrt(w) keeps it
        # stable as trunk variance accumulates over residual layers.
        pre_scale = 1.0 / (2.0 * cfg.gabor_s0)
        for i in range(cfg.num_res_layers):
            params[f"res{i}_w1"] = normal(pre_scale * np.sqrt(3.0 / w), w, w)
            params[f"res{i}_b1"] = normal(pre_scale, w)
            params[f"res{i}_w2"] = normal(0.5 / np.sqrt(w), w, w)
            params[f"res{i}_b2"] = zeros(w)
        params["w_seg"] = normal(0.1 / np.sqrt(w), w, cfg.num_classes)
        params["b_seg"] = zeros(cfg.num_classes)
        params["w_int"] = normal(0.1 / np.sqrt(w), w, 1)
        params["b_int"] = zeros(1)
        return cls(cfg, params)

    # -- parameter access ---------------------------------------------

    def param_names(self) -> list[str]:
        return self._names_for(self.config)

    def parameters(self) -> list[Tensor]:
        return [self.params[n] for n in self.param_names()]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def astype(self, dtype) -> "FieldModel":
        """The model with every parameter ``ad.astype(p, dtype)``: a working
        copy at ``dtype`` (this model's own tensors where they have it)."""
        return FieldModel(self.config, {name: ad.astype(p, dtype)
                                        for name, p in self.params.items()})

    def checksum(self) -> str:
        """SHA-256 over canonical little-endian parameter bytes."""
        h = hashlib.sha256()
        for name in self.param_names():
            arr = self.params[name].values
            h.update(name.encode("ascii"))
            h.update(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())
        return h.hexdigest()

    # -- evaluation ----------------------------------------------------

    def forward(self, coords, latent) -> FieldOutput:
        """Evaluate both heads at a batch of coordinates.

        coords: [B, N] tensor or array; latent: one [d] vector that
        conditions every row. Coordinates are expected in [0,1]^N; rows
        outside are evaluated anyway (extrapolation).
        """
        p = self.params
        x = self._trunk(coords, latent)
        seg = ad.softmax(ad.linear(x, p["w_seg"], p["b_seg"]))
        return FieldOutput(seg, self._intensity_head(x))

    def intensity(self, coords, latent) -> Tensor:
        """The intensity head alone, [B, 1]: ``forward(...).intensity``
        with the same bits, value and gradients, without the segmentation
        head's work."""
        return self._intensity_head(self._trunk(coords, latent))

    def _trunk(self, coords, latent) -> Tensor:
        cfg, p = self.config, self.params
        c = coords if isinstance(coords, Tensor) else Tensor(coords)
        h = latent if isinstance(latent, Tensor) else Tensor(latent)
        if c.ndim != 2 or c.shape[1] != cfg.coord_dim:
            raise DimensionError(f"coords must be [B,{cfg.coord_dim}], got {c.shape}")
        if h.shape != (cfg.latent_dim,):
            raise DimensionError(f"latent must be [{cfg.latent_dim}], got {h.shape}")
        blocks = [tuple(p[f"res{i}_{n}"] for n in ("w1", "b1", "w2", "b2"))
                  for i in range(cfg.num_res_layers)]
        return ad.gabor_trunk(c, h, p["w_in"], p["b_in"], blocks, cfg.gabor_omega0,
                              cfg.gabor_s0)

    def _intensity_head(self, x: Tensor) -> Tensor:
        return ad.sigmoid(ad.linear(x, self.params["w_int"], self.params["b_int"]))

    # -- persistence ---------------------------------------------------

    def save(self, path, seed: int | None = None) -> None:
        header = {"config": self.config.to_dict(), "param_count": self.num_params,
                  "seed": seed}
        arrays = {name: self.params[name].values for name in self.param_names()}
        with open(path, "wb") as f:
            write_blob(f, MODEL_MAGIC, MODEL_VERSION, header, arrays)

    @classmethod
    def load(cls, path) -> "FieldModel":
        """The saved model."""
        with open(path, "rb") as f:
            _, header, arrays = read_blob(f, MODEL_MAGIC, MODEL_VERSION)
        require(header, ("config",), "model header")
        cfg = ModelConfig.from_dict(header["config"])
        params = {name: Tensor(arr) for name, arr in arrays.items()}
        model = cls(cfg, params)
        if model.num_params != header.get("param_count"):
            raise ContractError("checkpoint param_count disagrees with payload")
        return model
