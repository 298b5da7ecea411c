"""Minimal dense tensors with reverse-mode automatic differentiation.

An operation records its inputs and a backward closure on a per-call
graph if and only if one of its inputs requires grad. No mode switches
recording off, so threads that share no tensors cannot change what the
others record; extraction runs over leaves that need no grad. Calling
``backward()`` on a scalar result walks the graph in reverse topological
order and accumulates gradients into the leaves; on a scalar that
recorded no graph it raises, as it would reach no leaf. An interior node's
gradient is released as soon as its closure has consumed it, so after
the sweep only leaves hold a ``grad``. Graphs are built fresh on every
forward pass and garbage-collected with their tensors.

Gradients are never written in place: no op writes into the ``g`` its
closure receives, and ``_accumulate`` adds into a new array. This is
load-bearing, because one gradient buffer can be shared by several nodes
(``layer_norm`` hands the same array to ``x`` and to ``residual``, and
``reshape`` hands on a view).

Operations act on the trailing one or two axes and broadcast over any
leading batch axes, so the same primitives serve both single sequences
(T x d) and batches (B x T x d). The model projects with ``linear``,
attends with ``attention`` and closes each residual connection with
``layer_norm(x, residual, gain, bias)``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "add",
    "mul",
    "linear",
    "attention",
    "reshape",
    "relu",
    "layer_norm",
    "dropout",
    "cross_entropy",
    "l2_normalize",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_DTYPE = np.float32
# Query rows per block of attention that records no graph: its working set
# is this many rows of weights over all keys, not the whole (T, S) matrix.
_QUERY_ROWS = 256


@contextlib.contextmanager
def compute_dtype(dtype):
    """Temporarily store outside data that becomes a ``Tensor`` as ``dtype``.

    Its one caller is the benchmark's float64 reference, which builds its
    model from ``init_model``'s float32 arrays; it stays until that reference
    casts its own inputs. It sets a module global: single-threaded only.
    """
    global _DTYPE
    prev = _DTYPE
    _DTYPE = dtype
    try:
        yield
    finally:
        _DTYPE = prev


class Tensor:
    """Dense row-major array with an optional gradient buffer. A float64
    ndarray stays float64; other data is stored as ``_DTYPE`` (float32)."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        keep = isinstance(data, np.ndarray) and data.dtype == np.float64
        self.data: np.ndarray = data if keep else np.asarray(data, _DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        # The op's array is kept as it is, with no copy or dtype conversion.
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        if any(p.requires_grad for p in parents):
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

    def _accumulate(self, g: np.ndarray):
        # Gradients are never mutated in place, so sharing a buffer with a
        # child's gradient (e.g. through reshape views) is safe.
        g = np.asarray(g, dtype=self.data.dtype)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar, got shape %s"
                                 % (self.shape,))
        if not self.requires_grad:
            raise RuntimeError("backward() on a scalar that recorded no "
                               "graph: no input required grad")
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
                # Every consumer ran earlier in the sweep, so this gradient
                # is complete and spent; only leaves keep theirs.
                node.grad = None

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape,
                                                       self.requires_grad)


def _as_tensor(x, like=None) -> Tensor:
    if isinstance(like, Tensor) and np.isscalar(x):  # a scalar operand
        x = np.asarray(x, like.data.dtype)
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast during the forward op."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

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
    summed over them. ``scale`` defaults to 1/√d_k.

    The forward pass runs one leading entry at a time, so each (T, S) slab
    of weights stays in cache; the backward pass is batched over all
    entries. When an input requires grad, the weights are the only thing
    the graph keeps for the backward pass. Otherwise each entry is also
    split into blocks of ``_QUERY_ROWS`` query rows, since a softmax row
    depends on its own query alone, and no (T, S) matrix is built unless
    ``trace`` is given: the full weights are appended to it.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or k.ndim < 2 or k.ndim != v.ndim
            or q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]
            or q.shape[:-2] not in ((), k.shape[:-2])):
        raise DimensionError("attention shapes disagree: q %s, k %s, v %s"
                             % (q.shape, k.shape, v.shape))
    dtype = np.result_type(q.data, k.data, v.data).type
    scale = dtype(1.0 / math.sqrt(q.shape[-1]) if scale is None else scale)
    lead, (t, d_k), (s, d_v) = k.shape[:-2], q.shape[-2:], v.shape[-2:]
    k3, v3 = k.data.reshape(-1, s, d_k), v.data.reshape(-1, s, d_v)
    n = k3.shape[0]
    # A shared 2-D query is broadcast to every entry without a copy.
    qs = np.broadcast_to((q.data * scale).reshape(-1, t, d_k), (n, t, d_k))
    record = q.requires_grad or k.requires_grad or v.requires_grad
    rows = t if record else _QUERY_ROWS
    # The blocks of an entry differ in size by at most one row, so there is
    # never a remainder of a row or two: BLAS computes such a sliver with
    # other kernels than a full block, which round differently.
    count = -(-t // max(rows, 1))
    w = (np.empty((n, t, s), dtype=dtype)
         if record or trace is not None else None)
    # Without kept weights, every block reuses this one buffer.
    block = np.empty((min(rows, t), s), dtype=dtype) if w is None else None
    out = np.empty((n, t, d_v), dtype=dtype)
    for i in range(n):
        for j in range(count):
            r = slice(j * t // count, (j + 1) * t // count)
            wb = block[:r.stop - r.start] if w is None else w[i, r]
            np.matmul(qs[i, r], k3[i].T, out=wb)
            wb -= wb.max(axis=-1, keepdims=True)
            np.exp(wb, out=wb)
            wb /= wb.sum(axis=-1, keepdims=True)
            np.matmul(wb, v3[i], out=out[i, r])
    out = out.reshape(lead + (t, d_v))
    if w is not None:
        w = w.reshape(lead + (t, s))
    if trace is not None:
        trace.append(w.copy() if record else w)

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


def layer_norm(x, residual, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize each trailing-axis row of ``x + residual`` to zero mean /
    unit variance (population variance), then apply the learned affine.
    The sum is a temporary that the graph does not keep; the backward pass
    hands one input gradient to both ``x`` and ``residual``."""
    x, residual = _as_tensor(x), _as_tensor(residual)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError("layer_norm affine width %s does not match %s"
                             % (gain.shape, x.shape))
    if residual.shape != x.shape:
        raise DimensionError("layer_norm residual %s does not match %s"
                             % (residual.shape, x.shape))
    total = x.data + residual.data
    xhat = total - total.mean(axis=-1, keepdims=True)
    del total
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        if x.requires_grad or residual.requires_grad:
            gh = g * gain.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = np.einsum("...i,...i->...", gh, xhat)[..., None] / d
            gh -= m1
            gh -= xhat * m2
            gh *= inv
            for t in (x, residual):
                if t.requires_grad:
                    t._accumulate(gh)
        g2 = g.reshape(-1, d)
        if gain.requires_grad:
            gain._accumulate(np.einsum("ij,ij->j", g2, xhat.reshape(-1, d)))
        if bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return Tensor._from_op(out, (x, residual, gain, bias), backward)


def dropout_mask(shape, rate: float, rng: np.random.Generator
                 ) -> Optional[np.ndarray]:
    """The bool keep mask of ``dropout`` at ``rate``, drawn from ``rng``;
    None, with no draw, at rate 0."""
    if rate == 0.0:
        return None
    # Compare in float32 so a rate that round-trips through float32
    # storage (e.g. in a checkpoint) yields bit-identical masks.
    return rng.random(shape, dtype=np.float32) >= np.float32(rate)


def dropout(x, rate: float, keep: Optional[np.ndarray]) -> Tensor:
    """Inverted dropout with the bool mask ``keep`` from ``dropout_mask``;
    identity if None. The graph keeps the mask and rescales in the same
    multiply order in both passes."""
    x = _as_tensor(x)
    if keep is None:
        return x
    if keep.shape != x.shape:
        raise DimensionError("dropout mask %s does not match %s"
                             % (keep.shape, x.shape))
    scale = 1.0 / (x.data.dtype.type(1.0) - np.float32(rate))
    # Zeroing before scaling gives each element exactly x * {0, scale}.
    out = x.data * keep
    out *= scale

    def backward(g):
        if x.requires_grad:
            gx = g * keep
            gx *= scale
            x._accumulate(gx)

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
    loss = logp.dtype.type(-logp[np.arange(n), labels].mean())

    def backward(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            logits._accumulate(p * (g / logp.dtype.type(n)))

    return Tensor._from_op(loss, (logits,), backward)


def l2_normalize(x, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale slices along ``axis`` to unit L2 norm."""
    x = _as_tensor(x)
    norm = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=axis, keepdims=True)
                   + eps).astype(x.data.dtype)
    y = x.data / norm

    def backward(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate((g - y * inner) / norm)

    return Tensor._from_op(y, (x,), backward)

