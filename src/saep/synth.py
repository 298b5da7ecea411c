"""Synthetic harmonic toy corpus for desk-scale end-to-end runs.

Each synthetic speaker is a fixed triple of sine frequencies drawn from a
shared grid (triples are re-drawn on collision). Each utterance randomizes
the phase and the per-harmonic amplitude over a wide range and adds white
noise at ~20 dB SNR, so utterances of one speaker vary substantially while
the frequency triple stays the identifying trait.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .audio import MAX_SAMPLES, write_wav
from .features import SAMPLE_RATE, TooShortError, num_frames
from .manifest import Manifest, save_manifest
from .verification import Trial, save_trials

__all__ = ["SynthCorpus", "synth_corpus"]

FREQ_GRID = np.arange(300.0, 3500.0, 50.0)
HARMONICS_PER_SPEAKER = 3
SNR_DB = 20.0
GAIN_LOW, GAIN_HIGH = 0.1, 1.0  # per-utterance, per-harmonic amplitude range


@dataclass
class SynthCorpus:
    out_dir: str
    manifest_path: str
    trials_path: str
    manifest: Manifest
    trials: List[Trial]


def _draw_speakers(rng: np.random.Generator,
                   n_speakers: int) -> List[Tuple[float, ...]]:
    triples: List[Tuple[float, ...]] = []
    seen = set()
    while len(triples) < n_speakers:
        triple = tuple(sorted(rng.choice(FREQ_GRID, size=HARMONICS_PER_SPEAKER,
                                         replace=False)))
        if triple in seen:
            continue
        seen.add(triple)
        triples.append(triple)
    return triples


def _render_utterance(rng: np.random.Generator, freqs: Tuple[float, ...],
                      duration: float) -> np.ndarray:
    n = int(round(duration * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    signal = np.zeros(n)
    for f in freqs:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        gain = np.exp(rng.uniform(np.log(GAIN_LOW), np.log(GAIN_HIGH)))
        signal += gain * np.sin(2.0 * np.pi * f * t + phase)
    sig_power = np.mean(signal ** 2)
    noise_power = sig_power / (10.0 ** (SNR_DB / 10.0))
    signal += rng.normal(0.0, np.sqrt(noise_power), size=n)
    peak = np.abs(signal).max()
    return (0.9 * signal / peak).astype(np.float32)


def _build_trials(rng: np.random.Generator, manifest: Manifest,
                  n_pairs_per_class: int) -> List[Trial]:
    by_speaker = {}
    for utt_id, speaker, _ in manifest.entries:
        by_speaker.setdefault(speaker, []).append(utt_id)
    speakers = sorted(by_speaker)
    trials: List[Trial] = []
    seen = set()
    while len(trials) < n_pairs_per_class:
        spk = speakers[rng.integers(len(speakers))]
        if len(by_speaker[spk]) < 2:
            continue
        a, b = rng.choice(len(by_speaker[spk]), size=2, replace=False)
        key = (1, by_speaker[spk][a], by_speaker[spk][b])
        if key in seen:
            continue
        seen.add(key)
        trials.append(Trial(1, key[1], key[2]))
    while len(trials) < 2 * n_pairs_per_class:
        i, j = rng.choice(len(speakers), size=2, replace=False)
        ua = by_speaker[speakers[i]][rng.integers(len(by_speaker[speakers[i]]))]
        ub = by_speaker[speakers[j]][rng.integers(len(by_speaker[speakers[j]]))]
        key = (0, ua, ub)
        if key in seen:
            continue
        seen.add(key)
        trials.append(Trial(0, ua, ub))
    order = rng.permutation(len(trials))
    return [trials[i] for i in order]


def synth_corpus(out_dir, n_speakers: int = 10, utts_per_speaker: int = 20,
                 duration: float = 3.0, seed: int = 7,
                 n_pairs_per_class: int = 500) -> SynthCorpus:
    """Generate WAVs, a manifest, and a balanced trial list under
    ``out_dir``, deterministically from ``seed``."""
    for name, value, low in (("n_speakers", n_speakers, 1),
                             ("utts_per_speaker", utts_per_speaker, 1),
                             ("n_pairs_per_class", n_pairs_per_class, 0)):
        if value < low:
            raise ValueError("%s must be >= %d, got %r" % (name, low, value))
    n_triples = math.comb(len(FREQ_GRID), HARMONICS_PER_SPEAKER)
    if n_speakers > n_triples:
        raise ValueError("cannot draw %d speakers: the frequency grid has "
                         "only %d distinct triples" % (n_speakers, n_triples))
    if not math.isfinite(duration):
        raise ValueError("duration must be finite, got %r" % duration)
    n_samples = int(round(duration * SAMPLE_RATE))
    if n_samples > MAX_SAMPLES:
        raise ValueError("duration %g s needs %d samples, more than a 16-bit "
                         "WAV holds (%d)" % (duration, n_samples, MAX_SAMPLES))
    try:  # every clip must give the front end two frames
        num_frames(n_samples)
    except TooShortError as exc:
        raise TooShortError("duration %g s: %s" % (duration, exc)) from None
    # Trials are distinct ordered pairs of distinct utterances.
    n_target = n_speakers * utts_per_speaker * (utts_per_speaker - 1)
    n_nontarget = n_speakers * (n_speakers - 1) * utts_per_speaker ** 2
    if n_pairs_per_class > min(n_target, n_nontarget):
        raise ValueError(
            "cannot draw %d trials of each class: %d speakers with %d "
            "utterances each give only %d distinct target and %d distinct "
            "nontarget pairs" % (n_pairs_per_class, n_speakers,
                                 utts_per_speaker, n_target, n_nontarget))
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(out_dir, "wav"), exist_ok=True)
    triples = _draw_speakers(rng, n_speakers)
    entries = []
    for s, freqs in enumerate(triples):
        speaker = "spk%03d" % s
        for u in range(utts_per_speaker):
            utt_id = "%s_utt%03d" % (speaker, u)
            # Relative to the manifest, so the corpus directory can move.
            wav_path = "wav/%s.wav" % utt_id
            write_wav(os.path.join(out_dir, wav_path),
                      _render_utterance(rng, freqs, duration), SAMPLE_RATE)
            entries.append((utt_id, speaker, wav_path))
    manifest_path = os.path.join(out_dir, "manifest.txt")
    trials_path = os.path.join(out_dir, "trials.txt")
    save_manifest(Manifest(entries=entries), manifest_path)
    manifest = Manifest(entries=[(u, s, os.path.join(out_dir, p))
                                 for u, s, p in entries])
    trials = _build_trials(rng, manifest, n_pairs_per_class)
    save_trials(trials, trials_path)
    return SynthCorpus(out_dir=str(out_dir), manifest_path=manifest_path,
                       trials_path=trials_path, manifest=manifest,
                       trials=trials)
