"""Versioned little-endian binary record files and training checkpoints.

File layout: magic ``SAEP``, format version u32, record count u32, then
per record: name length u32, UTF-8 name, rank u32, one u64 per extent,
and the raw float32 data row-major. Scalar configuration and optimizer
values are 1-element records under the reserved ``cfg.`` and ``opt.``
name prefixes, except the integer step and seed, which are split into
16-bit words; Adam moment buffers live under ``opt.m.`` / ``opt.v.``.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, fields
from typing import Dict, get_type_hints

import numpy as np

from .model import ModelConfig, SaepModel, init_model, LOSS_SOFTMAX, \
    LOSS_AM_SOFTMAX
from .optim import AdamState
from .tensor import Tensor

__all__ = ["Checkpoint", "CheckpointFormatError", "write_records",
           "read_records", "save_checkpoint", "load_checkpoint"]

MAGIC = b"SAEP"
VERSION = 1

_LOSS_CODE = {LOSS_SOFTMAX: 0.0, LOSS_AM_SOFTMAX: 1.0}
_LOSS_NAME = {v: k for k, v in _LOSS_CODE.items()}

# ModelConfig fields serialized as cfg.<name> scalars, in declaration
# order, each with the type it is read back as.
_CFG_TYPES = {f.name: get_type_hints(ModelConfig)[f.name]
              for f in fields(ModelConfig)}
_OPT_SCALARS = ("lr", "beta1", "beta2", "eps")


class CheckpointFormatError(ValueError):
    """The file is not a well-formed record file of the expected version."""


# Integers are stored as four 16-bit words, low word first, which float32
# records hold exactly for any u64.
def _to_words(value: int) -> np.ndarray:
    return np.asarray([(value >> (16 * w)) & 0xFFFF for w in range(4)],
                      dtype=np.float32)


def _from_words(words: np.ndarray) -> int:
    # A one-element record (the older single-float step) decodes as itself.
    return sum(int(word) << (16 * w) for w, word in enumerate(words))


def write_records(path, records: Dict[str, np.ndarray]) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", VERSION, len(records)))
    for name, arr in records.items():
        arr = np.asarray(arr, dtype="<f4")
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<I", arr.ndim))
        for extent in arr.shape:
            buf.write(struct.pack("<Q", extent))
        buf.write(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointFormatError("truncated file while reading %s" % what)
    return data


def _check_fits(fh, size: int, n: int, what: str) -> None:
    if n > size - fh.tell():
        raise CheckpointFormatError(
            "truncated file: %s claims %d bytes but only %d remain"
            % (what, n, size - fh.tell()))


def read_records(path) -> Dict[str, np.ndarray]:
    records: Dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise CheckpointFormatError("bad magic %r (expected %r)"
                                        % (magic, MAGIC))
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != VERSION:
            raise CheckpointFormatError("unsupported format version %d"
                                        % version)
        for index in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            _check_fits(fh, size, name_len, "record name")
            raw_name = _read_exact(fh, name_len, "name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointFormatError(
                    "%s: record %d has a name that is not UTF-8: %r"
                    % (path, index, raw_name)) from None
            if name in records:
                raise CheckpointFormatError("duplicate record %r" % name)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            shape = tuple(
                struct.unpack("<Q", _read_exact(fh, 8, "extent"))[0]
                for _ in range(rank))
            n_bytes = 4 * math.prod(shape)
            _check_fits(fh, size, n_bytes, "data of %r" % name)
            raw = _read_exact(fh, n_bytes, "data of %r" % name)
            try:
                records[name] = np.frombuffer(raw, dtype="<f4").reshape(
                    shape).copy()
            except ValueError:  # e.g. extents (0, 2**63): no data, no array
                raise CheckpointFormatError(
                    "%s: record %r has extents %s, too large for an array"
                    % (path, name, shape)) from None
    return records


@dataclass
class Checkpoint:
    config: ModelConfig
    params: Dict[str, np.ndarray]
    opt: AdamState
    step: int
    seed: int


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    records: Dict[str, np.ndarray] = {}
    for name in _CFG_TYPES:
        value = getattr(ckpt.config, name)
        if name == "loss":
            value = _LOSS_CODE[value]
        records["cfg." + name] = np.asarray([value], dtype=np.float32)
    for name in sorted(ckpt.params):
        records[name] = ckpt.params[name]
    records["opt.step"] = _to_words(ckpt.step)
    records["opt.seed"] = _to_words(ckpt.seed)
    for scalar in _OPT_SCALARS:
        records["opt." + scalar] = np.asarray([getattr(ckpt.opt, scalar)],
                                              dtype=np.float32)
    for name in sorted(ckpt.params):
        records["opt.m." + name] = ckpt.opt.m.get(
            name, np.zeros_like(ckpt.params[name]))
        records["opt.v." + name] = ckpt.opt.v.get(
            name, np.zeros_like(ckpt.params[name]))
    write_records(path, records)


def load_checkpoint(path) -> Checkpoint:
    records = read_records(path)
    for key in (["cfg." + name for name in _CFG_TYPES]
                + ["opt." + name for name in ("step", "seed") + _OPT_SCALARS]):
        if key not in records:
            raise CheckpointFormatError("missing record %r" % key)
    kwargs = {}
    for name, kind in _CFG_TYPES.items():
        raw = float(records["cfg." + name][0])
        if name == "loss":
            if raw not in _LOSS_NAME:
                raise CheckpointFormatError("unknown loss code %r" % raw)
            kwargs[name] = _LOSS_NAME[raw]
        else:
            kwargs[name] = kind(raw)
    config = ModelConfig(**kwargs).validate()
    params = {name: arr for name, arr in records.items()
              if not name.startswith(("cfg.", "opt."))}
    step = _from_words(records["opt.step"])
    opt = AdamState(step=step, **{name: float(records["opt." + name][0])
                                  for name in _OPT_SCALARS})
    for name in params:
        m_key, v_key = "opt.m." + name, "opt.v." + name
        if m_key in records:
            opt.m[name] = records[m_key]
        if v_key in records:
            opt.v[name] = records[v_key]
    return Checkpoint(config=config, params=params, opt=opt, step=step,
                      seed=_from_words(records["opt.seed"]))


def model_from_checkpoint(ckpt: Checkpoint) -> SaepModel:
    """Rebuild a model and overwrite its parameters from a checkpoint."""
    model = init_model(ckpt.config, seed=0)
    for name, value in model.params.items():
        if name not in ckpt.params:
            raise CheckpointFormatError("checkpoint missing parameter %r"
                                        % name)
        stored = ckpt.params[name]
        if stored.shape != value.data.shape:
            raise CheckpointFormatError(
                "parameter %r has shape %s in checkpoint but the config "
                "requires %s" % (name, stored.shape, value.data.shape))
        value.data = stored.astype(np.float32, copy=True)
    return model
