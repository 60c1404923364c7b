"""Adam optimizer.

The same optimizer drives prior training (model parameters plus the
sampled subject's latent row) and inference (one fresh latent only); the
tensors it is built over are the ones the step's ``Tape(wrt=...)`` names.
Bias-corrected update, in-place on parameter values; a step clears each
``.grad`` it used, so the next step needs a new backward.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NumericalError

ADAM_LR = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over a named parameter dict.

    Moments are float64 regardless of parameter dtype; the update is
    cast back on assignment. One instance per training context; latent
    rows each own an independent instance so subject j's moments never
    mix with subject k's.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = ADAM_LR):
        if not params:
            raise ContractError("Adam needs at least one parameter")
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {n: np.zeros(p.shape, dtype=np.float64) for n, p in self.params.items()}
        self.v = {n: np.zeros(p.shape, dtype=np.float64) for n, p in self.params.items()}

    def step(self) -> None:
        """One bias-corrected update from current .grad values, which it clears."""
        grads = {}
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            if p.grad.shape != p.values.shape:
                raise ContractError(f"parameter {name!r}: grad shape {p.grad.shape} "
                                    f"!= value shape {p.values.shape}")
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"parameter {name!r} has non-finite gradient")
            grads[name] = p.grad
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name].astype(np.float64, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * np.square(g)
            update = (self.lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)
            p.values -= update.astype(p.values.dtype, copy=False)
            p.grad = None

    # -- persistence (training checkpoints) ----------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"{name}.m"] = self.m[name]
            out[f"{name}.v"] = self.v[name]
        return out

    def load_state(self, t: int, arrays: dict[str, np.ndarray]) -> None:
        if t < 0:
            raise ContractError("Adam step counter must be >= 0")
        for name, p in self.params.items():
            for kind, dest in (("m", self.m), ("v", self.v)):
                key = f"{name}.{kind}"
                if key not in arrays:
                    raise ContractError(f"optimizer state missing {key!r}")
                arr = np.asarray(arrays[key], dtype=np.float64)
                if arr.shape != p.shape:
                    raise ContractError(f"optimizer state {key!r} shape {arr.shape} "
                                        f"!= parameter shape {p.shape}")
                dest[name] = arr.copy()
        self.t = int(t)
