"""Flat key=value run configuration files."""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional, Tuple, get_type_hints

from .model import ModelConfig, LOSS_SOFTMAX, LOSS_AM_SOFTMAX
from .train import TrainConfig

__all__ = ["RunConfigError", "parse_run_config", "build_configs"]


class RunConfigError(ValueError):
    """A run-config line failed to parse; the message names the line."""


def _parse_loss(text: str) -> str:
    if text not in (LOSS_SOFTMAX, LOSS_AM_SOFTMAX):
        raise ValueError("expected %r or %r" % (LOSS_SOFTMAX, LOSS_AM_SOFTMAX))
    return text


# key -> (section, parser), one key per ModelConfig / TrainConfig field;
# numeric values parse with the field's annotated type.
_SCHEMA = {f.name: (section, _parse_loss if f.name == "loss"
                    else get_type_hints(cls)[f.name])
           for section, cls in (("model", ModelConfig), ("train", TrainConfig))
           for f in fields(cls)}


def parse_run_config(path) -> Dict[str, Dict[str, object]]:
    """Parse a key=value file into {'model': {...}, 'train': {...}}.

    Unknown keys, duplicate keys, and unparseable values are errors that
    name the offending line.
    """
    sections: Dict[str, Dict[str, object]] = {"model": {}, "train": {}}
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
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
            if key in seen:
                raise RunConfigError("%s:%d: duplicate key %r"
                                     % (path, lineno, key))
            seen.add(key)
            section, parser = _SCHEMA[key]
            try:
                sections[section][key] = parser(value)
            except ValueError as exc:
                raise RunConfigError("%s:%d: bad value for %r: %s"
                                     % (path, lineno, key, exc))
    return sections


def build_configs(sections: Dict[str, Dict[str, object]],
                  n_speakers: Optional[int] = None,
                  steps: Optional[int] = None,
                  seed: Optional[int] = None
                  ) -> Tuple[ModelConfig, TrainConfig]:
    """Materialize configs, applying module defaults for omitted keys.

    ``n_speakers`` (from the manifest) fills in when the file omits it;
    ``steps`` and ``seed`` are command-line overrides.
    """
    model_kwargs = dict(sections.get("model", {}))
    if "n_speakers" not in model_kwargs:
        if n_speakers is None:
            raise RunConfigError("n_speakers is not in the config and no "
                                 "manifest was provided to derive it")
        model_kwargs["n_speakers"] = n_speakers
    train_kwargs = dict(sections.get("train", {}))
    if steps is not None:
        train_kwargs["steps"] = steps
    if seed is not None:
        train_kwargs["seed"] = seed
    train_kwargs.setdefault("steps", 1)
    model_config = ModelConfig(**model_kwargs).validate()
    train_config = TrainConfig(**train_kwargs).validate()
    return model_config, train_config
