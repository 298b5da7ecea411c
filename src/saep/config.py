"""Flat key=value run configuration files."""

from __future__ import annotations

import io
from dataclasses import fields
from typing import Optional, Tuple, get_type_hints

from .model import ModelConfig, LOSS_SOFTMAX, LOSS_AM_SOFTMAX
from .train import TrainConfig

__all__ = ["RunConfigError", "load_run_config"]


class RunConfigError(ValueError):
    """A run-config line failed to parse; the message names the line."""


def _parse_loss(text: str) -> str:
    if text not in (LOSS_SOFTMAX, LOSS_AM_SOFTMAX):
        raise ValueError("expected %r or %r" % (LOSS_SOFTMAX, LOSS_AM_SOFTMAX))
    return text


# key -> (config class, parser), one key per ModelConfig / TrainConfig
# field; numeric values parse with the field's annotated type. The input
# fixes two fields, so no file sets them: n_speakers is the manifest's
# speaker count and d_m the front end's feature width.
_SCHEMA = {f.name: (cls, _parse_loss if f.name == "loss"
                    else get_type_hints(cls)[f.name])
           for cls in (ModelConfig, TrainConfig) for f in fields(cls)
           if f.name not in ("n_speakers", "d_m")}


def load_run_config(path, n_speakers: int, steps: Optional[int] = None,
                    seed: Optional[int] = None
                    ) -> Tuple[ModelConfig, TrainConfig]:
    """Read a key=value file into checked configs; omitted keys, or every
    key when ``path`` is None, take the dataclass defaults.

    ``steps`` and ``seed`` are command-line overrides of the file. Unknown
    keys, duplicate keys, and unparseable values are errors that name the
    offending line.
    """
    kwargs = {ModelConfig: {}, TrainConfig: {}}
    with (io.StringIO() if path is None
          else open(path, "r", encoding="utf-8")) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise RunConfigError("%s:%d: expected 'key = value', got %r"
                                     % (path, lineno, raw.rstrip()))
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise RunConfigError("%s:%d: unknown key %r"
                                     % (path, lineno, key))
            cls, parser = _SCHEMA[key]
            if key in kwargs[cls]:
                raise RunConfigError("%s:%d: duplicate key %r"
                                     % (path, lineno, key))
            try:
                kwargs[cls][key] = parser(value)
            except ValueError as exc:
                raise RunConfigError("%s:%d: bad value for %r: %s"
                                     % (path, lineno, key, exc))
    if steps is not None:
        kwargs[TrainConfig]["steps"] = steps
    if seed is not None:
        kwargs[TrainConfig]["seed"] = seed
    return (ModelConfig(n_speakers=n_speakers, **kwargs[ModelConfig])
            .validate(), TrainConfig(**kwargs[TrainConfig]).validate())
