"""Named trainable parameters and the Adam optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["ParameterSet", "AdamState", "adam_step", "MissingGradientError"]


class MissingGradientError(RuntimeError):
    """adam_step was called before gradients were populated."""


class ParameterSet:
    """Ordered collection of uniquely named trainable tensors."""

    def __init__(self):
        self._params: Dict[str, Tensor] = {}

    def add(self, name: str, value: Tensor) -> Tensor:
        if not name:
            raise ValueError("parameter name must be non-empty")
        if name in self._params:
            raise ValueError("duplicate parameter name: %r" % name)
        value.requires_grad = True
        self._params[name] = value
        return value

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def names(self):
        return list(self._params.keys())

    def zero_grad(self):
        for value in self._params.values():
            value.zero_grad()


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


def adam_step(params: ParameterSet, state: AdamState) -> None:
    """One in-place Adam update with bias correction; zeroes gradients."""
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
    params.zero_grad()
