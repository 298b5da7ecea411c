"""Acoustic front end: MFCCs, delta features, CMVN, and chunking.

Conventions (the milliseconds in the pipeline contract leave these open;
they are fixed here and documented in the README): 16 kHz audio, 25 ms /
400-sample Hann window, 10 ms / 160-sample hop, 512-point FFT, 40
triangular HTK-mel filters spanning 0-8 kHz, log floor 1e-10, orthonormal
DCT-II, 30 cepstra kept. No pre-emphasis, no liftering. A clip must give
at least two frames (560 samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["FeatureSequence", "TooShortError", "mfcc", "append_deltas",
           "cmvn", "chunk", "compute_features",
           "SAMPLE_RATE", "WINDOW", "HOP", "N_FFT", "N_MELS", "N_CEPS",
           "FEATURE_DIM"]

SAMPLE_RATE = 16000
WINDOW = 400          # 25 ms
HOP = 160             # 10 ms
N_FFT = 512
N_MELS = 40
N_CEPS = 30
FEATURE_DIM = 3 * N_CEPS
LOG_FLOOR = 1e-10
CMVN_VAR_FLOOR = 1e-8
DELTA_WINDOW = 2


class TooShortError(ValueError):
    """Clip gives fewer than two analysis frames."""


@dataclass
class FeatureSequence:
    frames: np.ndarray  # T x 90 float32, T >= 2, every value finite
    utterance_id: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2 or len(frames) < 2 \
                or frames.shape[1] != FEATURE_DIM:
            raise ValueError("frames of shape %s are not T x %d with T >= 2"
                             % (frames.shape, FEATURE_DIM))
        if not np.isfinite(frames).all():
            raise ValueError("frame %d holds a non-finite value"
                             % np.argwhere(~np.isfinite(frames))[0, 0])
        self.frames = frames


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def _mel_filterbank() -> np.ndarray:
    """Triangular filters on the rfft bin grid, shape N_MELS x (N_FFT/2+1)."""
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2),
                          N_MELS + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bin_freqs = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, N_FFT // 2 + 1), dtype=np.float64)
    for i in range(N_MELS):
        left, center, right = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bin_freqs - left) / (center - left)
        down = (right - bin_freqs) / (right - center)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb.astype(np.float32)


@lru_cache(maxsize=None)
def _hann() -> np.ndarray:
    # Periodic Hann, the usual STFT choice.
    n = np.arange(WINDOW)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * n / WINDOW)).astype(np.float32)


@lru_cache(maxsize=None)
def _dct() -> np.ndarray:
    """Orthonormal DCT-II basis for the kept cepstra, N_MELS x N_CEPS."""
    i, k = np.ogrid[:N_MELS, :N_CEPS]
    scale = np.where(k == 0, np.sqrt(1.0 / N_MELS), np.sqrt(2.0 / N_MELS))
    return scale * np.cos(np.pi * k * (2 * i + 1) / (2 * N_MELS))


def num_frames(n_samples: int) -> int:
    """Analysis frames in a clip of ``n_samples``. At least two are needed:
    ``cmvn`` maps a lone frame to all zeros, whatever the audio."""
    if n_samples < WINDOW + HOP:
        raise TooShortError("clip of %d samples is shorter than two analysis "
                            "frames (%d samples)" % (n_samples, WINDOW + HOP))
    return 1 + (n_samples - WINDOW) // HOP


def mfcc(samples: np.ndarray) -> np.ndarray:
    """30 MFCCs per 25 ms frame with 10 ms hop from 16 kHz samples;
    returns T x 30 float32."""
    x = np.asarray(samples, dtype=np.float32)
    num_frames(len(x))  # raises TooShortError
    # The windows as a strided view, so no T x WINDOW index array is built.
    windows = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    frames = windows * _hann()
    spec = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2
    mel = spec @ _mel_filterbank().T
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    ceps = logmel.astype(np.float64) @ _dct()
    return ceps.astype(np.float32)


def append_deltas(static: np.ndarray) -> np.ndarray:
    """Concatenate [static | delta | delta-delta]; T x 30 -> T x 90.

    Regression deltas over a +/-2 frame window with edge replication.
    """
    static = np.asarray(static, dtype=np.float32)
    d1 = _delta(static)
    d2 = _delta(d1)
    return np.concatenate([static, d1, d2], axis=1)


def _delta(feats: np.ndarray) -> np.ndarray:
    n = DELTA_WINDOW
    padded = np.pad(feats, ((n, n), (0, 0)), mode="edge")
    t = feats.shape[0]
    num = np.zeros_like(feats, dtype=np.float64)
    for k in range(1, n + 1):
        num += k * (padded[n + k:n + k + t] - padded[n - k:n - k + t])
    denom = 2.0 * sum(k * k for k in range(1, n + 1))
    return (num / denom).astype(np.float32)


def cmvn(feats: np.ndarray) -> np.ndarray:
    """Per-utterance zero mean / unit variance per dimension."""
    feats = np.asarray(feats, dtype=np.float32)
    mu = feats.mean(axis=0, dtype=np.float64)
    var = feats.var(axis=0, dtype=np.float64)
    std = np.sqrt(np.maximum(var, CMVN_VAR_FLOOR))
    return ((feats - mu) / std).astype(np.float32)


def chunk(feats: FeatureSequence, length: int,
          rng: np.random.Generator) -> np.ndarray:
    """Random contiguous window of ``length`` frames; short utterances are
    wrap-padded by repetition."""
    frames = feats.frames
    t = frames.shape[0]
    if t >= length:
        start = int(rng.integers(0, t - length + 1))
        return frames[start:start + length]
    return frames[np.arange(length) % t]


def compute_features(samples: np.ndarray,
                     utterance_id: str = "") -> FeatureSequence:
    """Full front end on 16 kHz samples: MFCC -> +deltas -> CMVN."""
    return FeatureSequence(frames=cmvn(append_deltas(mfcc(samples))),
                           utterance_id=utterance_id)
