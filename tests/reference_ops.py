"""Reference ops for tests: ``matmul``, ``transpose`` and ``softmax_rows``
as separate graph nodes, and attention composed from them. The model uses
the fused ``tz.attention``; these are the slow, obvious compositions that
tests check it against.

Also the pieces only tests use: ``tsum``, the scalar that gradient checks
differentiate, and ``chunk_accuracy``, the eval-mode classification
accuracy that criterion 5 gates on."""

import numpy as np

from saep import tensor as tz
from saep.features import chunk
from saep.tensor import DimensionError, Tensor, _as_tensor, _unbroadcast
from saep.train import CHUNK_FRAMES


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


def composed_attention(q, k, v):
    """Attention as separate graph nodes: the reference for the fused op."""
    scores = tz.mul(matmul(q, transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    return matmul(softmax_rows(scores), v)


def tsum(a) -> Tensor:
    """Sum of every element, accumulated in float64 and stored in the
    input's dtype."""
    a = _as_tensor(a)
    out = a.data.dtype.type(a.data.sum(dtype=np.float64))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, g))

    return Tensor._from_op(out, (a,), backward)


def eval_logits(model, batch: np.ndarray) -> np.ndarray:
    """Eval-mode class logits for a batch of chunks, over the no-grad view
    of the model that extraction runs on."""
    view = model.inference_view()
    _, last = view.head(view.attention_pool(view.encode(Tensor(batch))))
    return view.output_logits(last).data


def chunk_accuracy(manifest, features, model, seed: int = 0,
                   batch_size: int = 32) -> float:
    """Eval-mode chunk-level classification accuracy over the manifest."""
    rng = np.random.default_rng(seed)
    correct = 0
    for lo in range(0, len(manifest), batch_size):
        entries = manifest.entries[lo:lo + batch_size]
        batch = np.stack([chunk(features[utt_id], CHUNK_FRAMES, rng)
                          for utt_id, _, _ in entries])
        preds = eval_logits(model, batch).argmax(axis=-1)
        labels = [manifest.label_map[spk] for _, spk, _ in entries]
        correct += int((preds == np.asarray(labels)).sum())
    return correct / len(manifest)
