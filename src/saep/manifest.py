"""Corpus manifests: utterance id, speaker label, and wav path per line."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .records import atomic_write, text_lines

__all__ = ["Manifest", "ManifestError", "load_manifest", "save_manifest"]


class ManifestError(ValueError):
    """Malformed or inconsistent manifest contents."""


@dataclass
class Manifest:
    entries: List[Tuple[str, str, str]]  # (utterance_id, speaker, wav_path)
    label_map: Dict[str, int] = field(init=False)  # speaker -> index, sorted
    base_dir: str = ""  # relative wav paths resolve against this

    def __post_init__(self):
        speakers = sorted({spk for _, spk, _ in self.entries})
        self.label_map = {spk: i for i, spk in enumerate(speakers)}

    @property
    def n_speakers(self) -> int:
        return len(self.label_map)

    def label_of(self, utterance_index: int) -> int:
        return self.label_map[self.entries[utterance_index][1]]

    def __len__(self) -> int:
        return len(self.entries)


def load_manifest(path) -> Manifest:
    entries = []
    seen = set()
    for lineno, line in text_lines(path, ManifestError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ManifestError(
                "%s:%d: expected '<utt_id> <speaker> <wav_path>', got %r"
                % (path, lineno, line))
        utt_id, speaker, wav_path = parts
        # The id names a file inside the feature cache directory.
        if any(s in utt_id for s in ("/", os.sep, os.altsep or "/")):
            raise ManifestError(
                "%s:%d: utterance id %r contains a path separator"
                % (path, lineno, utt_id))
        if utt_id in seen:
            raise ManifestError("%s:%d: duplicate utterance id %r"
                                % (path, lineno, utt_id))
        seen.add(utt_id)
        entries.append((utt_id, speaker, wav_path))
    if not entries:
        raise ManifestError("%s: manifest is empty" % path)
    return Manifest(entries=entries, base_dir=os.path.dirname(path))


def save_manifest(manifest: Manifest, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for utt_id, speaker, wav_path in manifest.entries:
            fh.write("%s %s %s\n" % (utt_id, speaker, wav_path))
