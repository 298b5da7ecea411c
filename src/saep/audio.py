"""PCM WAV reading and writing (16-bit mono only; 16 kHz to read)."""

from __future__ import annotations

import wave

import numpy as np

from .features import SAMPLE_RATE
from .records import atomic_write

__all__ = ["AudioFormatError", "ChannelCountError", "load_audio", "write_wav",
           "MAX_SAMPLES"]

_INT16_SCALE = 32768.0
# The RIFF size field, a u32, counts 36 header bytes and 2 bytes a sample.
MAX_SAMPLES = (2 ** 32 - 1 - 36) // 2


class AudioFormatError(ValueError):
    """The file is not the 16-bit PCM WAV encoding this pipeline accepts."""


class ChannelCountError(AudioFormatError):
    """The file is not mono."""


def load_audio(path) -> np.ndarray:
    """Read a 16-bit mono 16 kHz PCM WAV file as float32 samples in
    [-1, 1), scaled by 1/32768."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            if n_channels != 1:
                raise ChannelCountError(
                    "%s: expected mono, got %d channels" % (path, n_channels))
            if wf.getsampwidth() != 2:
                raise AudioFormatError(
                    "%s: expected 16-bit samples, got %d-bit"
                    % (path, 8 * wf.getsampwidth()))
            if wf.getcomptype() != "NONE":
                raise AudioFormatError(
                    "%s: unsupported compression %r" % (path, wf.getcomptype()))
            if wf.getframerate() != SAMPLE_RATE:
                raise AudioFormatError(
                    "%s: expected %d Hz audio, got %d Hz"
                    % (path, SAMPLE_RATE, wf.getframerate()))
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        raise AudioFormatError("%s: not a PCM WAV file (%s)" % (path, exc))
    except EOFError:
        raise AudioFormatError("%s: not a PCM WAV file (the header ends "
                               "early)" % path) from None
    if len(raw) != 2 * n_frames:
        raise AudioFormatError(
            "%s: truncated data chunk: %d bytes for the %d samples (%d "
            "bytes) of its header" % (path, len(raw), n_frames, 2 * n_frames))
    pcm = np.frombuffer(raw, dtype="<i2")
    return pcm.astype(np.float32) / np.float32(_INT16_SCALE)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as a 16-bit mono PCM WAV file,
    atomically."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64) * _INT16_SCALE,
                  -32768, 32767).astype("<i2")
    with atomic_write(path) as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())
