"""The SAEP network: stacked single-head self-attention encoder blocks,
self-attention pooling, and a fully connected classifier head.

The attention output has width d_v while the residual stream has width
d_m, so each block carries a learned output projection W_O (d_v -> d_m)
to reconcile them, as in the standard Transformer encoder. No positional
encoding exists anywhere, which makes the whole map from frames to
embedding permutation-invariant in eval mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as tz
from .features import FeatureSequence
from .optim import ParameterSet
from .tensor import Tensor

__all__ = ["ModelConfig", "SaepModel", "SpeakerEmbedding", "ConfigError",
           "am_softmax_loss", "init_model", "FC1_DIM",
           "LOSS_SOFTMAX", "LOSS_AM_SOFTMAX"]

LOSS_SOFTMAX = "softmax"
LOSS_AM_SOFTMAX = "am_softmax"

# The first dense layer of the classifier head is fixed at 90 units.
FC1_DIM = 90


class ConfigError(ValueError):
    """A model hyperparameter is out of its legal range."""


@dataclass
class ModelConfig:
    n_speakers: int
    n_blocks: int = 2
    d_m: int = 90
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
            if not 0.0 <= rate < 1.0:
                raise ConfigError("%s must be in [0, 1), got %r"
                                  % (field_name, rate))
        if self.loss not in (LOSS_SOFTMAX, LOSS_AM_SOFTMAX):
            raise ConfigError("loss must be %r or %r, got %r"
                              % (LOSS_SOFTMAX, LOSS_AM_SOFTMAX, self.loss))
        if self.am_scale <= 0:
            raise ConfigError("am_scale must be > 0, got %r" % self.am_scale)
        if self.am_margin < 0:
            raise ConfigError("am_margin must be >= 0, got %r" % self.am_margin)
        return self


@dataclass
class SpeakerEmbedding:
    vector: np.ndarray  # embed_dim float32
    utterance_id: str


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def init_model(config: ModelConfig, seed: int = 0) -> "SaepModel":
    """Build a model with Xavier-uniform matrices, zero biases, and
    identity layer-norm affines, deterministically from ``seed``."""
    config.validate()
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    c = config
    for i in range(c.n_blocks):
        pre = "enc%d." % i
        params.add(pre + "w_q", Tensor(_xavier(rng, c.d_m, c.d_k, (c.d_m, c.d_k))))
        params.add(pre + "w_k", Tensor(_xavier(rng, c.d_m, c.d_k, (c.d_m, c.d_k))))
        params.add(pre + "w_v", Tensor(_xavier(rng, c.d_m, c.d_v, (c.d_m, c.d_v))))
        params.add(pre + "w_o", Tensor(_xavier(rng, c.d_v, c.d_m, (c.d_v, c.d_m))))
        params.add(pre + "w_1", Tensor(_xavier(rng, c.d_m, c.d_ff, (c.d_m, c.d_ff))))
        params.add(pre + "b_1", Tensor(np.zeros(c.d_ff, dtype=np.float32)))
        params.add(pre + "w_2", Tensor(_xavier(rng, c.d_ff, c.d_m, (c.d_ff, c.d_m))))
        params.add(pre + "b_2", Tensor(np.zeros(c.d_m, dtype=np.float32)))
        for ln in ("ln1", "ln2"):
            params.add(pre + ln + ".gain",
                       Tensor(np.ones(c.d_m, dtype=np.float32)))
            params.add(pre + ln + ".bias",
                       Tensor(np.zeros(c.d_m, dtype=np.float32)))
    params.add("pool.w_c", Tensor(_xavier(rng, c.d_m, 1, (c.d_m, 1))))
    params.add("head.fc1.w", Tensor(_xavier(rng, c.d_m, FC1_DIM,
                                            (c.d_m, FC1_DIM))))
    params.add("head.fc1.b", Tensor(np.zeros(FC1_DIM, dtype=np.float32)))
    params.add("head.fc2.w", Tensor(_xavier(rng, FC1_DIM, c.embed_dim,
                                            (FC1_DIM, c.embed_dim))))
    params.add("head.fc2.b", Tensor(np.zeros(c.embed_dim, dtype=np.float32)))
    params.add("head.fc3.w", Tensor(_xavier(rng, c.embed_dim, c.embed_dim,
                                            (c.embed_dim, c.embed_dim))))
    params.add("head.fc3.b", Tensor(np.zeros(c.embed_dim, dtype=np.float32)))
    params.add("out.w", Tensor(_xavier(rng, c.embed_dim, c.n_speakers,
                                       (c.embed_dim, c.n_speakers))))
    if c.loss == LOSS_SOFTMAX:
        # The AMSoftmax output layer is bias-free by construction.
        params.add("out.b", Tensor(np.zeros(c.n_speakers, dtype=np.float32)))
    return SaepModel(config, params)


def _am_logits(features: Tensor, weight: Tensor, scale: float,
              margin: float = 0.0, labels=None) -> Tensor:
    """Scaled cosine logits; ``margin`` is subtracted from each row's true
    class when ``labels`` are given.

    Feature rows and class columns of ``weight`` are L2-normalized, so the
    logits are invariant to the magnitude of either.
    """
    feats_n = tz.l2_normalize(features, axis=-1)
    weight_n = tz.l2_normalize(weight, axis=0)
    cos = tz.matmul(feats_n, weight_n)
    if labels is not None:
        n, c = cos.shape
        onehot = np.zeros((n, c), dtype=np.float32)
        onehot[np.arange(n), np.asarray(labels, dtype=np.int64)] = 1.0
        cos = tz.sub(cos, Tensor(margin * onehot))
    return tz.mul(cos, float(scale))


def am_softmax_loss(features: Tensor, labels, weight: Tensor,
                    scale: float, margin: float) -> Tensor:
    """Additive-margin softmax: cross-entropy over the margin-adjusted
    scaled cosine logits of :func:`_am_logits`."""
    return tz.cross_entropy(_am_logits(features, weight, scale, margin,
                                      labels), labels)


class SaepModel:
    """Configuration plus named parameters, with all forward passes."""

    def __init__(self, config: ModelConfig, params: ParameterSet):
        self.config = config
        self.params = params

    # -- encoder -----------------------------------------------------------

    def qkv_project(self, x: Tensor, block: int) -> Tuple[Tensor, Tensor, Tensor]:
        p = self.params
        pre = "enc%d." % block
        q = tz.matmul(x, p[pre + "w_q"])
        k = tz.matmul(x, p[pre + "w_k"])
        v = tz.matmul(x, p[pre + "w_v"])
        return q, k, v

    @staticmethod
    def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                             trace: Optional[list] = None) -> Tensor:
        d_k = q.shape[-1]
        scores = tz.mul(tz.matmul(q, tz.transpose(k)), 1.0 / np.sqrt(d_k))
        weights = tz.softmax_rows(scores)
        if trace is not None:
            trace.append(weights.data.copy())
        return tz.matmul(weights, v)

    def position_ffn(self, h: Tensor, block: int) -> Tensor:
        p = self.params
        pre = "enc%d." % block
        hidden = tz.relu(tz.add(tz.matmul(h, p[pre + "w_1"]), p[pre + "b_1"]))
        return tz.add(tz.matmul(hidden, p[pre + "w_2"]), p[pre + "b_2"])

    def encoder_block(self, x: Tensor, block: int, train: bool = False,
                      rng: Optional[np.random.Generator] = None,
                      trace: Optional[list] = None) -> Tensor:
        p = self.params
        c = self.config
        pre = "enc%d." % block
        q, k, v = self.qkv_project(x, block)
        attn = self.scaled_dot_attention(q, k, v, trace=trace)
        proj = tz.matmul(attn, p[pre + "w_o"])
        proj = tz.dropout(proj, c.encoder_dropout, rng, train)
        s1 = tz.layer_norm(tz.add(x, proj), p[pre + "ln1.gain"],
                           p[pre + "ln1.bias"])
        ffn = tz.dropout(self.position_ffn(s1, block), c.encoder_dropout,
                         rng, train)
        return tz.layer_norm(tz.add(s1, ffn), p[pre + "ln2.gain"],
                             p[pre + "ln2.bias"])

    def encode(self, x: Tensor, train: bool = False,
               rng: Optional[np.random.Generator] = None,
               trace: Optional[list] = None) -> Tensor:
        for i in range(self.config.n_blocks):
            x = self.encoder_block(x, i, train=train, rng=rng, trace=trace)
        return x

    # -- pooling and head --------------------------------------------------

    def attention_pool(self, h: Tensor,
                       trace: Optional[list] = None) -> Tensor:
        """Convex combination of encoder frames with learned weights;
        (T x d) -> (d,) or (B x T x d) -> (B x d)."""
        squeeze = h.ndim == 2
        if squeeze:
            h = tz.reshape(h, (1,) + h.shape)
        scores = tz.transpose(tz.matmul(h, self.params["pool.w_c"]))  # B x 1 x T
        weights = tz.softmax_rows(scores)
        if trace is not None:
            trace.append(weights.data.copy())
        pooled = tz.reshape(tz.matmul(weights, h), (h.shape[0], h.shape[-1]))
        return tz.reshape(pooled, (h.shape[-1],)) if squeeze else pooled

    def _dense(self, x: Tensor, layer: str) -> Tensor:
        p = self.params
        return tz.relu(tz.add(tz.matmul(x, p[layer + ".w"]), p[layer + ".b"]))

    def embed(self, c: Tensor, train: bool = False,
              rng: Optional[np.random.Generator] = None) -> Tensor:
        """First two head layers (B x d_m -> B x embed_dim). The embedding
        is the second hidden layer's post-ReLU activation, before dropout."""
        h1 = tz.dropout(self._dense(c, "head.fc1"), self.config.head_dropout,
                        rng, train)
        return self._dense(h1, "head.fc2")

    def head(self, c: Tensor, train: bool = False,
             rng: Optional[np.random.Generator] = None
             ) -> Tuple[Tensor, Tensor]:
        """Classifier head fc1 -> fc2 -> fc3 with dropout after each layer;
        returns (embedding, last hidden activation)."""
        rate = self.config.head_dropout
        embedding = self.embed(c, train=train, rng=rng)
        h2 = tz.dropout(embedding, rate, rng, train)
        h3 = tz.dropout(self._dense(h2, "head.fc3"), rate, rng, train)
        return embedding, h3

    def output_logits(self, h: Tensor, labels=None) -> Tensor:
        """Output layer: scaled cosine logits for AM-softmax (with the
        margin applied when ``labels`` are given), affine logits for
        softmax."""
        p = self.params
        cfg = self.config
        if cfg.loss == LOSS_AM_SOFTMAX:
            return _am_logits(h, p["out.w"], cfg.am_scale, cfg.am_margin,
                             labels)
        return tz.add(tz.matmul(h, p["out.w"]), p["out.b"])

    def head_forward(self, c: Tensor, train: bool = False,
                     rng: Optional[np.random.Generator] = None
                     ) -> Tuple[Tensor, Tensor]:
        """Classifier head plus output layer; returns (logits, embedding)
        for a single pooled vector (d,) or a batch (B x d)."""
        squeeze = c.ndim == 1
        if squeeze:
            c = tz.reshape(c, (1, c.shape[0]))
        embedding, last = self.head(c, train=train, rng=rng)
        logits = self.output_logits(last)
        if squeeze:
            logits = tz.reshape(logits, (logits.shape[-1],))
            embedding = tz.reshape(embedding, (embedding.shape[-1],))
        return logits, embedding

    # -- end to end --------------------------------------------------------

    def forward_loss(self, batch: np.ndarray, labels,
                     train: bool = True,
                     rng: Optional[np.random.Generator] = None) -> Tensor:
        """Loss over a batch of feature chunks (B x T x 90)."""
        x = Tensor(batch)
        if x.ndim != 3 or x.shape[-1] != self.config.d_m:
            raise tz.DimensionError("expected B x T x %d batch, got %s"
                                    % (self.config.d_m, x.shape))
        h = self.encode(x, train=train, rng=rng)
        _, last = self.head(self.attention_pool(h), train=train, rng=rng)
        return tz.cross_entropy(self.output_logits(last, labels), labels)

    def logits_eval(self, batch: np.ndarray) -> np.ndarray:
        """Eval-mode class logits for a batch of chunks (for accuracy)."""
        with tz.no_grad():
            x = Tensor(batch)
            h = self.encode(x, train=False)
            pooled = self.attention_pool(h)
            logits, _ = self.head_forward(pooled, train=False)
        return logits.data

    def extract_embedding(self, feats: FeatureSequence) -> SpeakerEmbedding:
        """Full-utterance, eval-mode embedding from the second hidden layer."""
        if feats.frames.shape[0] < 1:
            raise ValueError("cannot embed an empty feature sequence")
        with tz.no_grad():
            h = self.encode(Tensor(feats.frames), train=False)
            pooled = self.attention_pool(h)
            embedding = self.embed(tz.reshape(pooled, (1, pooled.shape[0])))
        return SpeakerEmbedding(vector=embedding.data[0].copy(),
                                utterance_id=feats.utterance_id)

    # -- accounting --------------------------------------------------------

    def param_breakdown(self) -> Dict[str, int]:
        counts = {"encoder": 0, "pooling": 0, "head": 0, "output": 0}
        for name, value in self.params.items():
            if name.startswith("enc"):
                counts["encoder"] += value.data.size
            elif name.startswith("pool."):
                counts["pooling"] += value.data.size
            elif name.startswith("head."):
                counts["head"] += value.data.size
            else:
                counts["output"] += value.data.size
        return counts

    def count_params(self, convention: str = "all") -> int:
        """Total parameter elements under a counting convention.

        ``all``: every trainable parameter.
        ``excluding-output``: drop the speaker-dependent output layer.
        ``embedding-extractor``: additionally drop the last hidden layer,
        i.e. count only what is needed to produce embeddings (this is the
        convention that reconciles with the published model sizes).
        """
        counts = self.param_breakdown()
        total = sum(counts.values())
        if convention == "all":
            return total
        if convention == "excluding-output":
            return total - counts["output"]
        if convention == "embedding-extractor":
            fc3 = (self.params["head.fc3.w"].data.size
                   + self.params["head.fc3.b"].data.size)
            return total - counts["output"] - fc3
        raise ValueError("unknown counting convention %r" % convention)
