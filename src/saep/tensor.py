"""Minimal dense float32 tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward closure on a per-call
graph; calling ``backward()`` on a scalar result walks the graph in reverse
topological order and accumulates gradients into the leaves. Graphs are
built fresh on every forward pass and garbage-collected with their tensors.

Operations act on the trailing one or two axes and broadcast over any
leading batch axes, so the same primitives serve both single sequences
(T x d) and batches (B x T x d). The model projects with ``linear`` and
attends with ``attention``; ``matmul``, ``transpose`` and
``softmax_rows`` remain as the pieces tests compose reference attention
from.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteError",
    "DimensionError",
    "no_grad",
    "add",
    "mul",
    "matmul",
    "linear",
    "attention",
    "transpose",
    "reshape",
    "relu",
    "softmax_rows",
    "layer_norm",
    "dropout",
    "cross_entropy",
    "l2_normalize",
    "tsum",
]


class NonFiniteError(ValueError):
    """A tensor holds NaN or Inf, which the numeric contract forbids."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_grad_enabled = True
_DTYPE = np.float32


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def compute_dtype(dtype):
    """Temporarily change the storage dtype of newly created tensors.

    Used by the gradient checker to widen accumulation to float64; the
    production dtype is float32.
    """
    global _DTYPE
    prev = _DTYPE
    _DTYPE = dtype
    try:
        yield
    finally:
        _DTYPE = prev


class Tensor:
    """Dense row-major float32 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(
                "tensor contains non-finite values (shape %s)" % (arr.shape,)
            )
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        # Interior nodes skip the finiteness scan: non-finite values can
        # only enter through leaves, and they propagate to the scalar loss,
        # which callers check. Re-scanning every intermediate would double
        # the cost of a training step.
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # Gradients are never mutated in place, so sharing a buffer with a
        # child's gradient (e.g. through transpose views) is safe.
        g = np.asarray(g, dtype=_DTYPE)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar, got shape %s"
                                 % (self.shape,))
        # Iterative topological order; recursion depth is unbounded otherwise.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape,
                                                       self.requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_DTYPE))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g, dtype=_DTYPE).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._from_op(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul needs rank >= 2 operands, got %s and %s"
                             % (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError("matmul inner extents disagree: %s x %s"
                             % (a.shape, b.shape))
    out = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._from_op(out, (a, b), backward)


def linear(x, w, b=None) -> Tensor:
    """``x @ w (+ b)`` over the trailing axis of ``x``, with any leading
    axes flattened into the rows of one 2-D GEMM in both passes."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError("linear needs (..., d) @ (d, k), got %s x %s"
                             % (x.shape, w.shape))
    d, k = w.shape
    if b is not None and b.shape != (k,):
        raise DimensionError("linear bias %s does not match width %d"
                             % (b.shape, k))
    x2 = x.data.reshape(-1, d)
    out = x2 @ w.data
    if b is not None:
        out += b.data

    def backward(g):
        g2 = g.reshape(-1, k)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accumulate(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(out.reshape(x.shape[:-1] + (k,)), parents, backward)


def attention(q, k, v, trace: Optional[list] = None,
              scale: Optional[float] = None) -> Tensor:
    """Dot-product attention ``softmax(q kᵀ · scale) v`` as one node.

    ``k`` is (..., S, d_k) and ``v`` (..., S, d_v) with the same leading
    axes. ``q`` is (..., T, d_k) with those leading axes too, or a 2-D
    (T, d_k) query shared by every leading index, whose gradient is then
    summed over them. ``scale`` defaults to 1/√d_k. Only the attention
    weights are kept for the backward pass; a copy of them is appended to
    ``trace`` when given.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or k.ndim < 2 or k.ndim != v.ndim
            or q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]
            or q.shape[:-2] not in ((), k.shape[:-2])):
        raise DimensionError("attention shapes disagree: q %s, k %s, v %s"
                             % (q.shape, k.shape, v.shape))
    scale = _DTYPE(1.0 / math.sqrt(q.shape[-1]) if scale is None else scale)
    w = np.matmul(q.data * scale, k.data.swapaxes(-1, -2))
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    if trace is not None:
        trace.append(w.copy())
    out = np.matmul(w, v.data)

    def backward(g):
        if v.requires_grad:
            v._accumulate(np.matmul(w.swapaxes(-1, -2), g))
        if q.requires_grad or k.requires_grad:
            # dS = W * (g vᵀ - rowdot(g, out)): the softmax Jacobian's row
            # term is sum_j W_ij (g vᵀ)_ij = g_i . out_i.
            ds = np.matmul(g, v.data.swapaxes(-1, -2))
            ds -= np.einsum("...i,...i->...", g, out)[..., None]
            ds *= w
            if q.requires_grad:
                q._accumulate(_unbroadcast(np.matmul(ds, k.data) * scale,
                                           q.shape))
            if k.requires_grad:
                k._accumulate(np.matmul(ds.swapaxes(-1, -2), q.data) * scale)

    return Tensor._from_op(out, (q, k, v), backward)


def transpose(a) -> Tensor:
    """Swap the trailing two axes."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise DimensionError("transpose needs rank >= 2, got %s" % (a.shape,))
    out = a.data.swapaxes(-1, -2)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.swapaxes(-1, -2))

    return Tensor._from_op(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return Tensor._from_op(out, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return Tensor._from_op(out, (a,), backward)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row max."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            a._accumulate(y * (g - inner))

    return Tensor._from_op(y, (a,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-axis row to zero mean / unit variance
    (population variance), then apply the learned affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError("layer_norm affine width %s does not match %s"
                             % (gain.shape, x.shape))
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if x.requires_grad:
            gh = g * gain.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = np.einsum("...i,...i->...", gh, xhat)[..., None] / d
            gh -= m1
            gh -= xhat * m2
            gh *= inv
            x._accumulate(gh)
        g2 = g.reshape(-1, d)
        if gain.requires_grad:
            gain._accumulate(np.einsum("ij,ij->j", g2, xhat.reshape(-1, d)))
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return Tensor._from_op(out, (x, gain, bias), backward)


def dropout(x, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout with its mask drawn from ``rng``; identity if None."""
    x = _as_tensor(x)
    if rng is None or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1), got %r" % rate)
    # Compare in float32 so a rate that round-trips through float32
    # storage (e.g. in a checkpoint) yields bit-identical masks.
    rate32 = np.float32(rate)
    mask = (rng.random(x.shape, dtype=np.float32) >= rate32)
    mask = mask.astype(_DTYPE) / (_DTYPE(1.0) - rate32)
    out = x.data * mask

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._from_op(out, (x,), backward)


def cross_entropy(logits, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError("cross_entropy expects B x C logits, got %s"
                             % (logits.shape,))
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DimensionError("expected %d labels, got shape %s"
                             % (n, labels.shape))
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError("label out of range [0, %d): %d"
                         % (c, labels[(labels < 0) | (labels >= c)][0]))
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = _DTYPE(-logp[np.arange(n), labels].mean())

    def backward(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            logits._accumulate(p * (_DTYPE(g) / _DTYPE(n)))

    return Tensor._from_op(loss, (logits,), backward)


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale slices along ``axis`` to unit L2 norm."""
    x = _as_tensor(x)
    norm = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=axis, keepdims=True)
                   + eps).astype(_DTYPE)
    y = x.data / norm

    def backward(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate((g - y * inner) / norm)

    return Tensor._from_op(y, (x,), backward)


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    out = _DTYPE(a.data.sum(dtype=np.float64))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, _DTYPE(g)))

    return Tensor._from_op(out, (a,), backward)
