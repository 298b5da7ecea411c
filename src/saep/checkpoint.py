"""Training checkpoints: ``saep.records`` files holding the model
configuration, parameters and optimizer state. Scalars are 1-element
records under the reserved ``cfg.`` and ``opt.`` name prefixes, except
the integer step, seed and speaker fingerprint, which are split into
16-bit words; Adam moment buffers live under ``opt.m.`` / ``opt.v.``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Tuple, get_type_hints

import numpy as np

from .model import ModelConfig, SaepModel, param_shapes, LOSS_SOFTMAX, \
    LOSS_AM_SOFTMAX
from .optim import AdamState
from .records import CheckpointFormatError, read_records, write_records
from .tensor import Tensor

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint",
           "speaker_fingerprint"]

_LOSS_CODE = {LOSS_SOFTMAX: 0.0, LOSS_AM_SOFTMAX: 1.0}
_LOSS_NAME = {v: k for k, v in _LOSS_CODE.items()}

# ModelConfig fields serialized as cfg.<name> scalars, in declaration
# order, each with the type it is read back as.
_CFG_TYPES = {f.name: get_type_hints(ModelConfig)[f.name]
              for f in fields(ModelConfig)}
_OPT_SCALARS = ("lr", "beta1", "beta2", "eps")
# Every record of a checkpoint that is not a parameter or an Adam moment.
_SCALAR_RECORDS = ({"cfg." + name for name in _CFG_TYPES}
                   | {"opt." + name for name in _OPT_SCALARS
                      + ("step", "seed", "speakers")})


# Integers are stored as four 16-bit words, low word first, which float32
# records hold exactly for any u64.
def _to_words(value: int) -> np.ndarray:
    return np.asarray([(value >> (16 * w)) & 0xFFFF for w in range(4)],
                      dtype=np.float32)


@dataclass
class Checkpoint:
    config: ModelConfig
    params: Dict[str, np.ndarray]
    opt: AdamState
    step: int
    seed: int
    speakers: Optional[int] = None  # speaker_fingerprint of the manifest


def speaker_fingerprint(speakers: Iterable[str]) -> int:
    """CRC32 of the sorted speaker names, one per line. Labels are indices
    into that order, so a resumed run must see the same names."""
    return zlib.crc32("\n".join(sorted(speakers)).encode("utf-8"))


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
    if ckpt.speakers is not None:
        records["opt.speakers"] = _to_words(ckpt.speakers)
    for scalar in _OPT_SCALARS:
        records["opt." + scalar] = np.asarray([getattr(ckpt.opt, scalar)],
                                              dtype=np.float32)
    for name in sorted(ckpt.params):
        records["opt.m." + name] = ckpt.opt.m.get(
            name, np.zeros_like(ckpt.params[name]))
        records["opt.v." + name] = ckpt.opt.v.get(
            name, np.zeros_like(ckpt.params[name]))
    write_records(path, records)


def _scalar(path, records: Dict[str, np.ndarray], key: str, kind: type):
    """The scalar record ``key`` as ``kind``: a float is one finite value;
    an int is a non-negative whole number, stored as one value or as the
    four 16-bit words of ``_to_words`` (an older step is one value)."""
    if key not in records:
        raise CheckpointFormatError("%s: missing record %r" % (path, key))
    raw = records[key].astype(np.float64).ravel()
    if kind is float and raw.size == 1 and np.isfinite(raw[0]):
        return float(raw[0])
    if (kind is int and raw.size in (1, 4) and np.isfinite(raw).all()
            and (raw >= 0).all() and (raw == np.floor(raw)).all()
            and (raw.size == 1 or raw.max() < 1 << 16)):
        return sum(int(word) << (16 * w) for w, word in enumerate(raw))
    raise CheckpointFormatError(
        "%s: record %r must hold %s, got %s"
        % (path, key, "one finite number" if kind is float
           else "a non-negative whole number",
           raw.tolist() if raw.size <= 4 else "%d values" % raw.size))


def _check_params(path, shapes: Dict[str, Tuple[int, ...]],
                  arrays: Dict[str, np.ndarray], prefix: str = "") -> None:
    """Raise unless ``arrays`` holds a finite array of each shape in the
    parameter table ``shapes``; errors name the file and the record."""
    for name, shape in shapes.items():
        if name not in arrays:
            raise CheckpointFormatError("%s: missing parameter %r"
                                        % (path, prefix + name))
        if arrays[name].shape != shape:
            raise CheckpointFormatError(
                "%s: record %r has shape %s but the config requires %s"
                % (path, prefix + name, arrays[name].shape, shape))
        if not np.isfinite(arrays[name]).all():
            raise CheckpointFormatError("%s: record %r holds a non-finite "
                                        "value" % (path, prefix + name))


def _validated(path, prefix: str, settings):
    """``settings.validate()``, whose errors begin with the field name,
    re-raised to name the file and the record ``prefix + field``."""
    try:
        return settings.validate()
    except ValueError as exc:
        raise CheckpointFormatError("%s: record '%s%s': %s" % (
            path, prefix, str(exc).split()[0], exc)) from None


def load_checkpoint(path) -> Checkpoint:
    records = read_records(path)
    kwargs = {name: _scalar(path, records, "cfg." + name,
                            float if kind is str else kind)
              for name, kind in _CFG_TYPES.items()}
    if kwargs["loss"] not in _LOSS_NAME:
        raise CheckpointFormatError("%s: record 'cfg.loss' holds unknown "
                                    "loss code %r" % (path, kwargs["loss"]))
    kwargs["loss"] = _LOSS_NAME[kwargs["loss"]]
    config = _validated(path, "cfg.", ModelConfig(**kwargs))
    step = _scalar(path, records, "opt.step", int)
    opt = _validated(path, "opt.", AdamState(step=step, **{
        name: _scalar(path, records, "opt." + name, float)
        for name in _OPT_SCALARS}))
    speakers = (_scalar(path, records, "opt.speakers", int)
                if "opt.speakers" in records else None)
    shapes = param_shapes(config)
    params, opt.m, opt.v = ({name: records.pop(prefix + name)
                             for name in shapes if prefix + name in records}
                            for prefix in ("", "opt.m.", "opt.v."))
    for prefix, arrays in (("", params), ("opt.m.", opt.m), ("opt.v.", opt.v)):
        _check_params(path, shapes, arrays, prefix)
    unknown = sorted(set(records) - _SCALAR_RECORDS)
    if unknown:
        raise CheckpointFormatError(
            "%s: record %r is neither a parameter of this config, nor its "
            "Adam moment, nor a cfg./opt. scalar" % (path, unknown[0]))
    return Checkpoint(config=config, params=params, opt=opt, step=step,
                      seed=_scalar(path, records, "opt.seed", int),
                      speakers=speakers)


def model_from_checkpoint(ckpt: Checkpoint) -> SaepModel:
    """A model holding float32 copies of the checkpoint's parameters."""
    shapes = param_shapes(ckpt.config)
    # The copies are what is checked, so a wider value that overflows
    # float32 is caught, and the tensors need not scan them again.
    with np.errstate(over="ignore"):
        params = {name: a.astype(np.float32)
                  for name, a in ckpt.params.items()}
    _check_params("checkpoint", shapes, params)
    return SaepModel(ckpt.config, {
        name: Tensor._checked(params[name], requires_grad=True)
        for name in shapes})
