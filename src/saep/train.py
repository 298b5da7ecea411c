"""Minibatch construction and the optimization loop.

Every step draws its own RNG from ``(seed, step)``, so a run is a pure
function of the manifest, the initial parameters, and the seed, and a
resumed run continues bit-exactly where an uninterrupted one would be.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint, speaker_fingerprint
from .features import FEATURE_DIM, FeatureSequence, chunk
from .manifest import Manifest
from .model import SaepModel
from .optim import AdamState, adam_step

__all__ = ["TrainConfig", "TrainingDiverged", "make_batch", "train",
           "check_resume_step"]

CHUNK_FRAMES = 300


class TrainingDiverged(RuntimeError):
    """The loss became non-finite."""


@dataclass
class TrainConfig:
    steps: int = 1
    batch_size: int = 32
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def validate(self) -> "TrainConfig":
        if self.steps < 1:
            raise ValueError("steps must be >= 1, got %r" % self.steps)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %r"
                             % self.batch_size)
        if not 0 <= self.seed < 1 << 64:  # a checkpoint stores 64 bits
            raise ValueError("seed must be in [0, 2**64), got %r" % self.seed)
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0, got %r"
                             % self.checkpoint_every)
        return self


def make_batch(manifest: Manifest, features: Dict[str, FeatureSequence],
               batch_size: int, rng: np.random.Generator
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample utterances uniformly with replacement and cut one fresh
    300-frame chunk from each."""
    if len(manifest) == 0:
        raise ValueError("manifest is empty")
    picks = rng.integers(0, len(manifest), size=batch_size)
    batch = np.empty((batch_size, CHUNK_FRAMES, FEATURE_DIM), dtype=np.float32)
    labels = np.empty(batch_size, dtype=np.int64)
    for row, utt_index in enumerate(picks):
        utt_id = manifest.entries[utt_index][0]
        batch[row] = chunk(features[utt_id], CHUNK_FRAMES, rng)
        labels[row] = manifest.label_of(int(utt_index))
    return batch, labels


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng((seed, step))


def check_resume_step(step: int, config: TrainConfig) -> None:
    if step > config.steps:
        raise ValueError("cannot resume at step %d: the run ends at step %d"
                         % (step, config.steps))


def train(manifest: Manifest, features: Dict[str, FeatureSequence],
          model: SaepModel, config: TrainConfig,
          opt: Optional[AdamState] = None, checkpoint_path=None,
          log: Optional[Callable[[int, float], None]] = None
          ) -> Tuple[Checkpoint, List[Tuple[int, float]]]:
    """Run steps ``opt.step+1 .. config.steps``, from step 1 with the
    default Adam settings without ``opt``; returns the final checkpoint and
    the (step, loss) trace."""
    config.validate()
    if opt is None:
        opt = AdamState()
    check_resume_step(opt.step, config)
    trace: List[Tuple[int, float]] = []
    speakers = speaker_fingerprint(manifest.label_map)
    for step in range(opt.step + 1, config.steps + 1):
        rng = _step_rng(config.seed, step)
        batch, labels = make_batch(manifest, features, config.batch_size, rng)
        loss = model.forward_loss(batch, labels, train=True, rng=rng)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise TrainingDiverged("non-finite loss at step %d" % step)
        loss.backward()
        adam_step(model.params, opt)
        trace.append((step, loss_value))
        if log is not None:
            log(step, loss_value)
        if (config.checkpoint_every and checkpoint_path is not None
                and step % config.checkpoint_every == 0):
            save_checkpoint(_snapshot(model, opt, step, config.seed,
                                      speakers), checkpoint_path)
    ckpt = _snapshot(model, opt, config.steps, config.seed, speakers)
    if checkpoint_path is not None:
        save_checkpoint(ckpt, checkpoint_path)
    return ckpt, trace


def _snapshot(model: SaepModel, opt: AdamState, step: int, seed: int,
              speakers: int) -> Checkpoint:
    params = {name: value.data.copy() for name, value in model.params.items()}
    opt_copy = replace(opt, m={k: v.copy() for k, v in opt.m.items()},
                       v={k: v.copy() for k, v in opt.v.items()})
    return Checkpoint(config=model.config, params=params, opt=opt_copy,
                      step=step, seed=seed, speakers=speakers)

