"""The Adam optimizer over named trainable parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .model import stored_float
from .tensor import Tensor

__all__ = ["AdamState", "adam_step", "MissingGradientError"]


class MissingGradientError(RuntimeError):
    """adam_step was called before gradients were populated."""


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus hyperparameters."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def validate(self) -> "AdamState":
        """Raise ValueError, whose message begins with the setting's name,
        unless each setting is in range as the float32 a checkpoint stores.
        A zero lr is a run that leaves the parameters as they are."""
        if not 0.0 <= stored_float(self.lr) < math.inf:
            raise ValueError("lr must be finite and >= 0, got %r" % self.lr)
        if not 0.0 < stored_float(self.eps) < math.inf:
            raise ValueError("eps must be finite and > 0, got %r" % self.eps)
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= stored_float(value) < 1.0:
                raise ValueError("%s must be in [0, 1), got %r"
                                 % (name, value))
        return self


def adam_step(params: Dict[str, Tensor], state: AdamState) -> None:
    """One in-place Adam update with bias correction; clears gradients."""
    for name, value in params.items():
        if value.grad is None:
            raise MissingGradientError("parameter %r has no gradient" % name)
    state.step += 1
    t = state.step
    b1 = np.float32(state.beta1)
    b2 = np.float32(state.beta2)
    lr = np.float32(state.lr)
    eps = np.float32(state.eps)
    one = np.float32(1.0)
    # float32 throughout so resumed runs (whose hyperparameters pass
    # through float32 checkpoint storage) update bit-identically
    corr1 = one - b1 ** np.float32(t)
    corr2 = one - b2 ** np.float32(t)
    for name, value in params.items():
        g = value.grad
        if name not in state.m:
            state.m[name] = np.zeros(value.data.shape, dtype=np.float32)
            state.v[name] = np.zeros(value.data.shape, dtype=np.float32)
        m, v = state.m[name], state.v[name]
        m[...] = b1 * m + (one - b1) * g
        v[...] = b2 * v + (one - b2) * (g * g)
        mhat = m / corr1
        vhat = v / corr2
        value.data -= lr * mhat / (np.sqrt(vhat) + eps)
        value.grad = None
