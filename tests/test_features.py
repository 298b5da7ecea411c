import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from saep import features
from saep.audio import AudioFormatError, ChannelCountError, load_audio, \
    write_wav
from saep.features import FeatureSequence, TooShortError, append_deltas, \
    chunk, cmvn, compute_features, mfcc, num_frames


def tone(freq, duration=1.0, sr=16000, amp=0.5):
    t = np.arange(int(duration * sr)) / sr
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestLoadAudio:
    def test_roundtrip_duration(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.zeros(16000), 16000)
        samples = load_audio(path)
        assert samples.dtype == np.float32
        assert len(samples) == 16000

    def test_all_zero_samples(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(path, np.zeros(1000), 16000)
        np.testing.assert_array_equal(load_audio(path), 0.0)

    def test_scaling(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav(path, np.asarray([0.5, -0.5]), 16000)
        np.testing.assert_allclose(load_audio(path), [0.5, -0.5],
                                   atol=1.0 / 32768)

    def test_stereo_rejected(self, tmp_path):
        import wave
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00\x00" * 200)
        with pytest.raises(ChannelCountError):
            load_audio(path)

    def test_8bit_rejected(self, tmp_path):
        import wave
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 100)
        with pytest.raises(AudioFormatError):
            load_audio(path)

    def test_other_rate_rejected(self, tmp_path):
        path = tmp_path / "n.wav"
        write_wav(path, np.zeros(8000), 8000)
        with pytest.raises(AudioFormatError) as exc:
            load_audio(path)
        assert str(exc.value) \
            == "%s: expected 16000 Hz audio, got 8000 Hz" % path

    def test_missing_file(self, tmp_path):
        with pytest.raises((FileNotFoundError, OSError)):
            load_audio(tmp_path / "missing.wav")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(AudioFormatError):
            load_audio(path)


class TestMfcc:
    def test_framing_arithmetic(self):
        # 1.0 s at 16 kHz: 1 + (16000 - 400) // 160 = 98 frames.
        out = mfcc(tone(440.0, duration=1.0))
        assert out.shape == (98, 30)

    @pytest.mark.parametrize("n_samples", [400, 401, 559, 560, 561, 16000])
    def test_frame_count_formula(self, n_samples):
        """400-559 samples give one frame, which the front end refuses."""
        x = np.random.default_rng(0).uniform(-0.1, 0.1, n_samples) \
            .astype(np.float32)
        if n_samples < 560:
            with pytest.raises(TooShortError, match="two analysis frames"):
                mfcc(x)
            return
        assert mfcc(x).shape[0] == 1 + (n_samples - 400) // 160
        assert mfcc(x).shape[0] == num_frames(n_samples)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            mfcc(np.zeros(399, dtype=np.float32))

    def test_silence_gives_constant_frames(self):
        out = mfcc(np.zeros(16000, dtype=np.float32))
        np.testing.assert_array_equal(out, np.tile(out[0], (out.shape[0], 1)))

    def test_distinct_tones_differ(self):
        a = mfcc(tone(1000.0))
        b = mfcc(tone(2000.0))
        assert np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) > 0.0

    def test_silence_known_answer(self):
        # Every log-mel energy sits at the floor, so only c0 is non-zero.
        out = mfcc(np.zeros(1000, dtype=np.float32))
        np.testing.assert_allclose(out[:, 0], np.log(1e-10) * np.sqrt(40.0),
                                   rtol=1e-6)
        np.testing.assert_allclose(out[:, 1:], 0.0, atol=1e-5)

    def test_matches_scipy_orthonormal_dct(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(3)
        clean = tone(440.0, duration=0.5)
        x = clean + rng.normal(0, 0.05, len(clean)).astype(np.float32)
        starts = 160 * np.arange(num_frames(len(x)))
        idx = starts[:, None] + np.arange(400)[None, :]
        spec = np.abs(np.fft.rfft(x[idx] * features._hann(), n=512,
                                  axis=1)) ** 2
        logmel = np.log(np.maximum(spec @ features._mel_filterbank().T,
                                   1e-10))
        ref = scipy_fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :30]
        out = mfcc(x)
        worst = np.abs(out - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert worst.max() <= 1e-6


class TestDeltas:
    def test_constant_sequence(self):
        out = append_deltas(np.full((5, 30), 3.0, dtype=np.float32))
        assert out.shape == (5, 90)
        np.testing.assert_array_equal(out[:, 30:], 0.0)

    def test_linear_ramp(self):
        # c_t = t: the +/-2 regression gives delta exactly 1 on interior
        # frames and delta-delta exactly 0 there.
        t = np.arange(10, dtype=np.float32)
        static = np.tile(t[:, None], (1, 30))
        out = append_deltas(static)
        np.testing.assert_allclose(out[2:-2, 30:60], 1.0, atol=1e-6)
        np.testing.assert_allclose(out[4:-4, 60:90], 0.0, atol=1e-6)

    def test_single_frame(self):
        out = append_deltas(np.ones((1, 30), dtype=np.float32))
        np.testing.assert_array_equal(out[:, 30:], 0.0)

    def test_static_slice_is_bit_exact(self):
        rng = np.random.default_rng(0)
        static = rng.standard_normal((7, 30)).astype(np.float32)
        np.testing.assert_array_equal(append_deltas(static)[:, :30], static)


class TestCmvn:
    def test_two_point_column(self):
        out = cmvn(np.asarray([[2.0], [4.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-1.0], [1.0]], rtol=1e-5)

    def test_constant_column_is_zeroed(self):
        out = cmvn(np.full((5, 3), 7.0, dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_statistics(self):
        rng = np.random.default_rng(1)
        out = cmvn(rng.standard_normal((50, 90)).astype(np.float32) * 4.0)
        assert np.abs(out.mean(axis=0)).max() < 1e-4
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-3)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = cmvn(rng.standard_normal((40, 90)).astype(np.float32))
        np.testing.assert_allclose(cmvn(x), x, atol=1e-4)


class TestChunk:
    def seq(self, t, seed=0):
        rng = np.random.default_rng(seed)
        return FeatureSequence(rng.standard_normal((t, 90)).astype(np.float32),
                               "u")

    def test_exact_length_returns_all(self):
        fs = self.seq(300)
        for seed in (0, 1, 2):
            out = chunk(fs, 300, np.random.default_rng(seed))
            np.testing.assert_array_equal(out, fs.frames)

    def test_deterministic_under_seed(self):
        fs = self.seq(600)
        a = chunk(fs, 300, np.random.default_rng(42))
        b = chunk(fs, 300, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        # window start lies in [0, 300]
        starts = {np.flatnonzero(
            (fs.frames == chunk(fs, 300, np.random.default_rng(s))[0]).all(axis=1))[0]
            for s in range(20)}
        assert all(0 <= s <= 300 for s in starts)

    def test_wrap_padding(self):
        fs = self.seq(100)
        out = chunk(fs, 300, np.random.default_rng(0))
        assert out.shape == (300, 90)
        np.testing.assert_array_equal(out[:100], fs.frames)
        np.testing.assert_array_equal(out[100:200], fs.frames)
        np.testing.assert_array_equal(out[200:300], fs.frames)

    @given(t=st.integers(2, 120), length=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_window_is_a_wrapped_run_of_frames(self, t, length, seed):
        """Row i of a chunk is frame (start + i) mod t: a contiguous window
        when the utterance is long enough, repetition from frame 0 when not."""
        frames = np.repeat(np.arange(t, dtype=np.float32)[:, None], 90, axis=1)
        out = chunk(FeatureSequence(frames, "u"), length,
                    np.random.default_rng(seed))
        assert out.shape == (length, 90)
        start = int(out[0, 0])
        assert start == 0 if t < length else 0 <= start <= t - length
        np.testing.assert_array_equal(
            out, frames[(start + np.arange(length)) % t])

    @pytest.mark.parametrize("t", [2, 5, 299, 300, 301, 1000])
    def test_shape_contract(self, t):
        out = chunk(self.seq(t), 300, np.random.default_rng(0))
        assert out.shape == (300, 90)


def test_compute_features_width_and_normalization():
    feats = compute_features(tone(700.0, duration=2.0), "tone")
    assert feats.frames.shape[1] == 90
    assert np.abs(feats.frames.mean(axis=0)).max() < 1e-4


@given(n=st.integers(0, 4000), seed=st.integers(0, 2 ** 32 - 1))
@example(n=559, seed=0)
@example(n=560, seed=0)
def test_front_end_needs_two_frames(n, seed):
    """Uniform noise of any length either is refused as too short, exactly
    below two frames, or gives at least two feature rows, not all zero."""
    x = np.random.default_rng(seed).uniform(-0.5, 0.5, n).astype(np.float32)
    if n < 560:
        with pytest.raises(TooShortError):
            compute_features(x)
        return
    frames = compute_features(x).frames
    assert frames.shape[0] == num_frames(n) >= 2
    assert np.abs(frames).max() > 0.0


def test_feature_sequence_rejects_wrong_width():
    with pytest.raises(ValueError):
        FeatureSequence(np.zeros((5, 89), dtype=np.float32), "u")
