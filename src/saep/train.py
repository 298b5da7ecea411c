"""Minibatch construction and the optimization loop.

Every step draws its own RNG from ``(seed, step)``, so a run is a pure
function of the manifest, the initial parameters, and the seed, and a
resumed run continues bit-exactly where an uninterrupted one would be.
The step's RNG first makes the batch, then draws the whole batch's
dropout masks in the order the forward pass applies them (each encoder
block's projection and FFN, then fc1, fc2 and fc3), as
``SaepModel.forward_loss`` would over the full batch.

Each step is split into ``MICRO_BATCHES`` fixed row slices of the batch,
of ⌈B/2⌉ and ⌊B/2⌋ rows (one slice when B = 1). Each slice runs its
forward and backward pass over its own leaf tensors on the shared
parameter arrays, with its rows of the masks. The slices' gradients and
losses, each weighted by the slice's share of B, are summed in slice
order, and one Adam step follows. The split never depends on how many
worker threads run the slices, so neither do the numbers.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
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
MICRO_BATCHES = 2


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


def _blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports; None when no OpenBLAS
    is loaded or it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def _workers() -> int:
    """Worker threads for the micro-batches: ``MICRO_BATCHES`` when the
    loaded BLAS reports ``t`` threads and this process may run on at least
    ``t * MICRO_BATCHES`` CPUs, otherwise (or when ``t`` cannot be read)
    one. Two workers over a 2-thread BLAS on 2 cores oversubscribe them: a
    toy step took 1.8x as long as on one worker.
    """
    threads = _blas_threads()
    if threads and threads * MICRO_BATCHES <= len(os.sched_getaffinity(0)):
        return MICRO_BATCHES
    return 1


def _step_loss(model: SaepModel, batch: np.ndarray, labels: np.ndarray,
               masks: list, step: int, pool: ThreadPoolExecutor) -> float:
    """Forward and backward over each micro-batch on ``pool``; leaves the
    share-weighted gradient sum on ``model.params`` and returns the
    share-weighted loss."""
    b = len(labels)
    edges = [-(-b * i // MICRO_BATCHES) for i in range(MICRO_BATCHES + 1)]
    slices = [slice(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]

    def run(rows):
        # Own leaves over the shared arrays: adding into a grad is not atomic.
        view = model.leaf_view(requires_grad=True)
        loss = view.forward_loss(
            batch[rows], labels[rows],
            rng=[None if keep is None else keep[rows] for keep in masks])
        if not np.isfinite(loss.item()):
            raise TrainingDiverged("non-finite loss at step %d" % step)
        loss.backward()
        return loss.data, {name: p.grad for name, p in view.params.items()}

    losses, grads = zip(*pool.map(run, slices))
    shares = [np.float32((rows.stop - rows.start) / b) for rows in slices]
    for name, p in model.params.items():
        p.grad = sum(w * g[name] for w, g in zip(shares, grads))
    return float(sum(w * loss for w, loss in zip(shares, losses)))


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
    the (step, loss) trace. The micro-batches run on as many threads as
    ``_workers`` gives; the numbers are the same on any."""
    config.validate()
    if opt is None:
        opt = AdamState()
    check_resume_step(opt.step, config)
    trace: List[Tuple[int, float]] = []
    speakers = speaker_fingerprint(manifest.label_map)
    with ThreadPoolExecutor(_workers()) as pool:
        for step in range(opt.step + 1, config.steps + 1):
            rng = _step_rng(config.seed, step)
            batch, labels = make_batch(manifest, features,
                                       config.batch_size, rng)
            masks = model.dropout_masks(batch.shape[:2], rng)
            loss_value = _step_loss(model, batch, labels, masks, step, pool)
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

