"""The SAEP network: stacked single-head self-attention encoder blocks,
self-attention pooling, and a fully connected classifier head.

The attention output has width d_v while the residual stream has width
d_m, so each block carries a learned output projection W_O (d_v -> d_m)
to reconcile them, as in the standard Transformer encoder. No positional
encoding exists anywhere, which makes the whole map from frames to
embedding permutation-invariant in eval mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as tz
from .features import FEATURE_DIM, FeatureSequence
from .tensor import Tensor
from .verification import SpeakerEmbedding

__all__ = ["ModelConfig", "SaepModel", "SpeakerEmbedding", "ConfigError",
           "init_model", "param_shapes", "param_breakdown", "count_params",
           "stored_float", "FC1_DIM", "LOSS_SOFTMAX", "LOSS_AM_SOFTMAX"]

LOSS_SOFTMAX = "softmax"
LOSS_AM_SOFTMAX = "am_softmax"

# The first dense layer of the classifier head is fixed at 90 units.
FC1_DIM = 90


class ConfigError(ValueError):
    """A model hyperparameter is out of its legal range."""


def stored_float(value: float) -> np.float32:
    """``value`` as the float32 a checkpoint stores for it, infinite if it
    overflows. Config checks test this, so that every config that trains
    also reloads."""
    with np.errstate(over="ignore"):
        return np.float32(value)


@dataclass
class ModelConfig:
    n_speakers: int
    n_blocks: int = 2
    d_m: int = FEATURE_DIM
    d_k: int = 512
    d_v: int = 512
    d_ff: int = 2048
    embed_dim: int = 400
    encoder_dropout: float = 0.1
    head_dropout: float = 0.2
    loss: str = LOSS_SOFTMAX
    am_scale: float = 30.0
    am_margin: float = 0.4

    def validate(self) -> "ModelConfig":
        for field_name in ("n_speakers", "n_blocks", "d_m", "d_k", "d_v",
                           "d_ff", "embed_dim"):
            if getattr(self, field_name) < 1:
                raise ConfigError("%s must be >= 1, got %r"
                                  % (field_name, getattr(self, field_name)))
        for field_name in ("encoder_dropout", "head_dropout"):
            rate = getattr(self, field_name)
            if not 0.0 <= stored_float(rate) < 1.0:
                raise ConfigError("%s must be in [0, 1), got %r"
                                  % (field_name, rate))
        if self.loss not in (LOSS_SOFTMAX, LOSS_AM_SOFTMAX):
            raise ConfigError("loss must be %r or %r, got %r"
                              % (LOSS_SOFTMAX, LOSS_AM_SOFTMAX, self.loss))
        if not 0.0 < stored_float(self.am_scale) < math.inf:
            raise ConfigError("am_scale must be finite and > 0, got %r"
                              % self.am_scale)
        if not 0.0 <= stored_float(self.am_margin) < math.inf:
            raise ConfigError("am_margin must be finite and >= 0, got %r"
                              % self.am_margin)
        return self


def param_shapes(config: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Every parameter's name and shape, in creation order: the one table
    that ``init_model`` and checkpoint loading both read."""
    c = config
    shapes: Dict[str, Tuple[int, ...]] = {}
    for i in range(c.n_blocks):
        pre = "enc%d." % i
        shapes.update({
            pre + "w_q": (c.d_m, c.d_k), pre + "w_k": (c.d_m, c.d_k),
            pre + "w_v": (c.d_m, c.d_v), pre + "w_o": (c.d_v, c.d_m),
            pre + "w_1": (c.d_m, c.d_ff), pre + "b_1": (c.d_ff,),
            pre + "w_2": (c.d_ff, c.d_m), pre + "b_2": (c.d_m,),
            pre + "ln1.gain": (c.d_m,), pre + "ln1.bias": (c.d_m,),
            pre + "ln2.gain": (c.d_m,), pre + "ln2.bias": (c.d_m,)})
    shapes.update({
        "pool.w_c": (c.d_m, 1),
        "head.fc1.w": (c.d_m, FC1_DIM), "head.fc1.b": (FC1_DIM,),
        "head.fc2.w": (FC1_DIM, c.embed_dim), "head.fc2.b": (c.embed_dim,),
        "head.fc3.w": (c.embed_dim, c.embed_dim), "head.fc3.b": (c.embed_dim,),
        "out.w": (c.embed_dim, c.n_speakers)})
    if c.loss == LOSS_SOFTMAX:
        # The AMSoftmax output layer is bias-free by construction.
        shapes["out.b"] = (c.n_speakers,)
    return shapes


def init_model(config: ModelConfig, seed: int = 0) -> "SaepModel":
    """Build a model with Xavier-uniform matrices, zero biases, and
    identity layer-norm affines, deterministically from ``seed``."""
    config.validate()
    rng = np.random.default_rng(seed)
    params: Dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:  # a (fan_in, fan_out) matrix
            limit = np.sqrt(6.0 / sum(shape))
            value = rng.uniform(-limit, limit, size=shape)
        else:
            value = np.full(shape, float(name.endswith(".gain")))
        params[name] = Tensor(value.astype(np.float32), requires_grad=True)
    return SaepModel(config, params)


def param_breakdown(config: ModelConfig) -> Dict[str, int]:
    """Parameter elements per component, read from ``param_shapes``."""
    counts = {"encoder": 0, "pooling": 0, "head": 0, "output": 0}
    for name, shape in param_shapes(config).items():
        if name.startswith("enc"):
            counts["encoder"] += math.prod(shape)
        elif name.startswith("pool."):
            counts["pooling"] += math.prod(shape)
        elif name.startswith("head."):
            counts["head"] += math.prod(shape)
        else:
            counts["output"] += math.prod(shape)
    return counts


def count_params(config: ModelConfig, convention: str = "all") -> int:
    """Total parameter elements under a counting convention.

    ``all``: every trainable parameter.
    ``excluding-output``: drop the speaker-dependent output layer.
    ``embedding-extractor``: additionally drop the last hidden layer,
    i.e. count only what is needed to produce embeddings (this is the
    convention that reconciles with the published model sizes).
    """
    counts = param_breakdown(config)
    total = sum(counts.values())
    if convention == "all":
        return total
    if convention == "excluding-output":
        return total - counts["output"]
    if convention == "embedding-extractor":
        shapes = param_shapes(config)
        fc3 = math.prod(shapes["head.fc3.w"]) + math.prod(shapes["head.fc3.b"])
        return total - counts["output"] - fc3
    raise ValueError("unknown counting convention %r" % convention)


def _am_logits(features: Tensor, weight: Tensor, scale: float,
              margin: float = 0.0, labels=None) -> Tensor:
    """Scaled cosine logits; ``margin``, as a checkpoint stores it, is
    subtracted from each row's true class when ``labels`` are given.

    Feature rows and class columns of ``weight`` are L2-normalized, so the
    logits are invariant to the magnitude of either.
    """
    feats_n = tz.l2_normalize(features, axis=-1)
    weight_n = tz.l2_normalize(weight, axis=0)
    cos = tz.linear(feats_n, weight_n)
    if labels is not None:
        n, c = cos.shape
        onehot = np.zeros((n, c), dtype=cos.data.dtype)
        onehot[np.arange(n), np.asarray(labels, dtype=np.int64)] = 1.0
        cos = tz.add(cos, Tensor(-stored_float(margin) * onehot))
    return tz.mul(cos, float(scale))


class SaepModel:
    """Configuration plus named parameters, with all forward passes."""

    def __init__(self, config: ModelConfig, params: Dict[str, Tensor]):
        self.config = config
        self.params = params

    # -- encoder -----------------------------------------------------------

    def encoder_block(self, x: Tensor, block: int,
                      masks: Optional[Sequence] = None,
                      trace: Optional[list] = None) -> Tensor:
        """One block; ``masks`` are the keep masks of its projection and
        FFN dropout, none in eval mode."""
        p = self.params
        c = self.config
        pre = "enc%d." % block
        keep_proj, keep_ffn = masks or (None, None)
        q = tz.linear(x, p[pre + "w_q"])
        k = tz.linear(x, p[pre + "w_k"])
        v = tz.linear(x, p[pre + "w_v"])
        attn = tz.attention(q, k, v, trace=trace)
        proj = tz.linear(attn, p[pre + "w_o"])
        proj = tz.dropout(proj, c.encoder_dropout, keep_proj)
        s1 = tz.layer_norm(proj, x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        hidden = tz.relu(tz.linear(s1, p[pre + "w_1"], p[pre + "b_1"]))
        ffn = tz.dropout(tz.linear(hidden, p[pre + "w_2"], p[pre + "b_2"]),
                         c.encoder_dropout, keep_ffn)
        return tz.layer_norm(ffn, s1, p[pre + "ln2.gain"], p[pre + "ln2.bias"])

    def encode(self, x: Tensor, masks: Optional[Sequence] = None,
               trace: Optional[list] = None) -> Tensor:
        for i in range(self.config.n_blocks):
            x = self.encoder_block(x, i, masks and masks[2 * i:2 * i + 2],
                                   trace=trace)
        return x

    # -- pooling and head --------------------------------------------------

    def attention_pool(self, h: Tensor,
                       trace: Optional[list] = None) -> Tensor:
        """Self-attention pooling: the learned context vector ``pool.w_c``
        is one unscaled query over the frames as keys and values, so the
        output is a convex combination of frames; (T x d) -> (d,) or
        (B x T x d) -> (B x d)."""
        w_c = self.params["pool.w_c"]
        query = tz.reshape(w_c, (1, w_c.shape[0]))
        pooled = tz.attention(query, h, h, trace=trace, scale=1.0)
        return tz.reshape(pooled, h.shape[:-2] + h.shape[-1:])

    def head(self, c: Tensor, masks: Optional[Sequence] = None
             ) -> Tuple[Tensor, Tensor]:
        """Classifier head fc1 -> fc2 -> fc3, each relu(linear) then
        dropout with its keep mask from ``masks``, none in eval mode;
        returns (embedding, last hidden activation). The embedding is fc2's
        post-ReLU activation, before its dropout (B x d_m -> B x embed_dim).
        """
        p = self.params
        for layer, keep in zip(("head.fc1", "head.fc2", "head.fc3"),
                               masks or (None,) * 3):
            act = tz.relu(tz.linear(c, p[layer + ".w"], p[layer + ".b"]))
            if layer == "head.fc2":
                embedding = act
            c = tz.dropout(act, self.config.head_dropout, keep)
        return embedding, c

    def output_logits(self, h: Tensor, labels=None) -> Tensor:
        """Output layer: scaled cosine logits for AM-softmax (with the
        margin applied when ``labels`` are given), affine logits for
        softmax."""
        p = self.params
        cfg = self.config
        if cfg.loss == LOSS_AM_SOFTMAX:
            return _am_logits(h, p["out.w"], cfg.am_scale, cfg.am_margin,
                             labels)
        return tz.linear(h, p["out.w"], p["out.b"])

    # -- end to end --------------------------------------------------------

    def dropout_masks(self, shape: Tuple[int, int],
                      rng: np.random.Generator) -> List[Optional[np.ndarray]]:
        """The keep masks of a training pass over a (B, T) batch, drawn
        from ``rng`` in the order the pass applies them: each encoder
        block's projection then its FFN, then fc1, fc2 and fc3. A rate of 0
        draws nothing and gives None."""
        c = self.config
        b, t = shape
        layers = ([(c.encoder_dropout, (b, t, c.d_m))] * (2 * c.n_blocks)
                  + [(c.head_dropout, (b, width))
                     for width in (FC1_DIM, c.embed_dim, c.embed_dim)])
        return [tz.dropout_mask(size, rate, rng) for rate, size in layers]

    def forward_loss(self, batch: np.ndarray, labels,
                     train: bool = True, rng=None) -> Tensor:
        """Loss over a batch of feature chunks (B x T x FEATURE_DIM).
        ``train`` runs dropout, with masks drawn from the Generator ``rng``
        or, when ``rng`` is a list, with the masks it holds: those of
        ``dropout_masks``, cut to this batch's rows."""
        if train and rng is None:
            raise ValueError("a training forward pass needs an rng for its "
                             "dropout masks")
        masks = None
        if train:
            masks = (rng if isinstance(rng, list)
                     else self.dropout_masks(batch.shape[:2], rng))
        blocks = 2 * self.config.n_blocks
        h = self.encode(Tensor(batch), masks and masks[:blocks])
        _, last = self.head(self.attention_pool(h), masks and masks[blocks:])
        return tz.cross_entropy(self.output_logits(last, labels), labels)

    def leaf_view(self, requires_grad: bool = False) -> "SaepModel":
        """This model on new leaf tensors over its arrays: needing no grad
        for extraction, or each training worker's own leaves to add its
        gradients into."""
        return SaepModel(self.config, {
            name: Tensor(p.data, requires_grad=requires_grad)
            for name, p in self.params.items()})

    def extract_embedding(self, feats: FeatureSequence) -> SpeakerEmbedding:
        """Full-utterance, eval-mode embedding from the second hidden layer."""
        view = self.leaf_view()
        h = view.encode(Tensor(feats.frames))
        embedding = view.head(view.attention_pool(h))[0]
        return SpeakerEmbedding(vector=embedding.data.copy(),
                                utterance_id=feats.utterance_id)
