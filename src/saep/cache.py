"""Feature extraction over a manifest, with an optional on-disk cache.

Cached features are record files (see ``saep.records``) with a single
record named ``feats``, one file per utterance.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .audio import load_audio
from .features import FEATURE_DIM, FeatureSequence, compute_features
from .manifest import Manifest
from .records import CheckpointFormatError, read_records, write_records

__all__ = ["features_for_manifest", "save_feature_cache",
           "load_feature_cache"]


def save_feature_cache(feats: FeatureSequence, path) -> None:
    write_records(path, {"feats": feats.frames})


def load_feature_cache(path, utterance_id: str) -> FeatureSequence:
    records = read_records(path)
    try:
        return FeatureSequence(records["feats"], utterance_id)
    except KeyError:
        detail = "the file holds none"
    except ValueError as exc:
        detail = str(exc)
    raise CheckpointFormatError("%s: expected a T x %d 'feats' record: %s"
                                % (path, FEATURE_DIM, detail))


def features_for_manifest(manifest: Manifest,
                          cache_dir: Optional[str] = None
                          ) -> Dict[str, FeatureSequence]:
    """Compute (or load cached) features for every manifest utterance."""
    out: Dict[str, FeatureSequence] = {}
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
    for utt_id, _, wav_path in manifest.entries:
        cache_path = (os.path.join(cache_dir, utt_id + ".feats")
                      if cache_dir is not None else None)
        if cache_path is not None and os.path.exists(cache_path):
            out[utt_id] = load_feature_cache(cache_path, utt_id)
            continue
        wav_path = os.path.join(manifest.base_dir, wav_path)
        samples = load_audio(wav_path)
        try:
            feats = compute_features(samples, utterance_id=utt_id)
        except ValueError as exc:
            raise type(exc)("%s: %s" % (wav_path, exc)) from None
        if cache_path is not None:
            save_feature_cache(feats, cache_path)
        out[utt_id] = feats
    return out
