"""Flat key=value run configuration files."""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Optional, Tuple, get_type_hints

from .checkpoint import Checkpoint
from .model import ModelConfig, LOSS_SOFTMAX, LOSS_AM_SOFTMAX, stored_float
from .optim import ADAM_SETTINGS, AdamState
from .records import text_lines
from .train import TrainConfig

__all__ = ["RunConfigError", "load_run_config"]


class RunConfigError(ValueError):
    """A run-config line failed to parse; the message names the line."""


def _parse_loss(text: str) -> str:
    if text not in (LOSS_SOFTMAX, LOSS_AM_SOFTMAX):
        raise ValueError("expected %r or %r" % (LOSS_SOFTMAX, LOSS_AM_SOFTMAX))
    return text


# key -> (config class, parser), one key per ModelConfig / TrainConfig
# field and Adam setting; numeric values parse with the field's annotated
# type. The input fixes two fields, so no file sets them: n_speakers is the
# manifest's speaker count and d_m the front end's feature width.
_SCHEMA = {f.name: (cls, _parse_loss if f.name == "loss"
                    else get_type_hints(cls)[f.name])
           for cls in (ModelConfig, TrainConfig, AdamState) for f in fields(cls)
           if f.name not in ("n_speakers", "d_m")
           and (cls is not AdamState or f.name in ADAM_SETTINGS)}
# The keys a resumed run may change; its checkpoint fixes every other one.
_RUN_KEYS = ("steps", "batch_size", "checkpoint_every")


def _stored(value):
    """``value`` as a checkpoint stores it: a float as a float32."""
    return stored_float(value) if isinstance(value, float) else value


def load_run_config(path, n_speakers: int, steps: Optional[int] = None,
                    seed: Optional[int] = None,
                    resume: Optional[Checkpoint] = None
                    ) -> Tuple[ModelConfig, TrainConfig, AdamState]:
    """Read a key=value file into checked configs; omitted keys, or every
    key when ``path`` is None, keep the defaults, or on resume the values
    of the checkpoint ``resume``.

    ``steps`` and ``seed`` override the file. Unknown keys, duplicate keys,
    unparseable values and, on resume, a value other than the checkpoint's
    as the float32 it stores are errors that name the offending line.
    """
    base = {type(config): config for config in (
        (ModelConfig(n_speakers=n_speakers), TrainConfig(), AdamState())
        if resume is None else
        (resume.config, TrainConfig(seed=resume.seed), resume.opt))}
    given = {}  # key -> (where it was set, value)
    lines = () if path is None else text_lines(path, RunConfigError)
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = "%s:%d" % (path, lineno)
        if "=" not in line:
            raise RunConfigError("%s: expected 'key = value', got %r"
                                 % (where, raw.rstrip()))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise RunConfigError("%s: unknown key %r" % (where, key))
        if key in given:
            raise RunConfigError("%s: duplicate key %r" % (where, key))
        try:
            given[key] = (where, _SCHEMA[key][1](value))
        except ValueError as exc:
            raise RunConfigError("%s: bad value for %r: %s"
                                 % (where, key, exc))
    for key, value in (("steps", steps), ("seed", seed)):
        if value is not None:
            given[key] = ("--" + key, value)
    kwargs = {cls: {} for cls in base}
    for key, (where, value) in given.items():
        cls = _SCHEMA[key][0]
        if resume is None or key in _RUN_KEYS:
            kwargs[cls][key] = value
        elif _stored(value) != _stored(getattr(base[cls], key)):
            raise RunConfigError(
                "%s: %s = %r, but the resumed checkpoint has %r"
                % (where, key, value, getattr(base[cls], key)))
    return tuple(replace(base[cls], **kwargs[cls]).validate()
                 for cls in base)
