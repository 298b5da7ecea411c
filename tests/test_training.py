import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, \
    strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from saep.checkpoint import Checkpoint, CheckpointFormatError, \
    load_checkpoint, model_from_checkpoint, read_records, save_checkpoint, \
    write_records
from saep.features import FeatureSequence
from saep.manifest import Manifest, ManifestError, load_manifest, \
    save_manifest
from saep.model import LOSS_AM_SOFTMAX, LOSS_SOFTMAX, ModelConfig, \
    count_params, init_model, param_shapes
from saep.optim import AdamState
from saep.train import TrainConfig, chunk_accuracy, make_batch, train


def toy_corpus(n_speakers=3, utts=4, t=320, seed=0):
    """A tiny random manifest plus in-memory features."""
    rng = np.random.default_rng(seed)
    entries = []
    features = {}
    for spk in range(n_speakers):
        for u in range(utts):
            utt_id = "s%02du%02d" % (spk, u)
            entries.append((utt_id, "spk%02d" % spk, utt_id + ".wav"))
            # give each speaker a distinct mean so learning is possible
            frames = rng.standard_normal((t, 90)).astype(np.float32)
            frames[:, spk] += 3.0
            features[utt_id] = FeatureSequence(frames, utt_id)
    return Manifest(entries=entries), features


def toy_model(n_speakers=3, seed=1, **overrides):
    cfg = dict(n_speakers=n_speakers, n_blocks=1, d_m=90, d_k=8, d_v=8,
               d_ff=16, embed_dim=12, encoder_dropout=0.1, head_dropout=0.2)
    cfg.update(overrides)
    return init_model(ModelConfig(**cfg), seed=seed)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest, _ = toy_corpus()
        path = tmp_path / "m.txt"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.entries == manifest.entries
        assert loaded.label_map == manifest.label_map

    def test_labels_are_dense_and_sorted(self):
        m = Manifest(entries=[("a", "zeta", "a.wav"), ("b", "alpha", "b.wav")])
        assert m.label_map == {"alpha": 0, "zeta": 1}
        assert m.label_of(0) == 1
        assert m.n_speakers == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 spk1 a.wav\nonly-two fields\n")
        with pytest.raises(ManifestError, match=":2:"):
            load_manifest(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("u1 spk1 a.wav\nu1 spk2 b.wav\n")
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize("utt_id", ["../escape", "a/b", "/abs"])
    def test_path_separator_in_id_rejected(self, tmp_path, utt_id):
        # Utterance ids name feature-cache files inside the cache directory.
        path = tmp_path / "sep.txt"
        path.write_text("u1 spk1 a.wav\n%s spk1 b.wav\n" % utt_id)
        with pytest.raises(ManifestError, match=":2: .*path separator"):
            load_manifest(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\nu1 spk1 a.wav\n")
        assert len(load_manifest(path)) == 1


class TestMakeBatch:
    def test_shapes_and_label_range(self):
        manifest, features = toy_corpus()
        batch, labels = make_batch(manifest, features, 8,
                                   np.random.default_rng(0))
        assert batch.shape == (8, 300, 90)
        assert labels.shape == (8,)
        assert set(labels) <= {0, 1, 2}

    def test_deterministic_under_seed(self):
        manifest, features = toy_corpus()
        a = make_batch(manifest, features, 8, np.random.default_rng(7))
        b = make_batch(manifest, features, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_sampling_is_roughly_uniform(self):
        # 12 utterances, 3 speakers; over many draws each label should
        # appear ~1/3 of the time (binomial 3-sigma bound).
        manifest, features = toy_corpus(t=300)
        rng = np.random.default_rng(1)
        n = 3000
        _, labels = make_batch(manifest, features, n, rng)
        p = 1.0 / 3.0
        sigma = np.sqrt(n * p * (1 - p))
        for lab in range(3):
            assert abs((labels == lab).sum() - n * p) < 3.5 * sigma

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            make_batch(Manifest(entries=[]), {}, 4, np.random.default_rng(0))


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        manifest, features = toy_corpus()
        model = toy_model()
        before = {n: v.data.copy() for n, v in model.params.items()}
        train(manifest, features, model, TrainConfig(steps=3, batch_size=4,
                                                     seed=0, lr=0.0))
        for name, value in model.params.items():
            np.testing.assert_array_equal(value.data, before[name])

    def test_identical_runs_produce_identical_traces(self):
        manifest, features = toy_corpus()
        cfg = TrainConfig(steps=5, batch_size=4, seed=3)
        _, trace_a = train(manifest, features, toy_model(), cfg)
        _, trace_b = train(manifest, features, toy_model(), cfg)
        assert trace_a == trace_b

    def test_loss_decreases_on_easy_task(self):
        manifest, features = toy_corpus()
        _, trace = train(manifest, features, toy_model(),
                         TrainConfig(steps=40, batch_size=8, seed=0, lr=1e-3))
        first = np.mean([l for _, l in trace[:5]])
        last = np.mean([l for _, l in trace[-5:]])
        assert last < first

    def test_chunk_accuracy_learns_easy_task(self):
        manifest, features = toy_corpus()
        model = toy_model()
        train(manifest, features, model,
              TrainConfig(steps=60, batch_size=8, seed=0, lr=1e-3))
        assert chunk_accuracy(manifest, features, model) > 0.9

    def test_invalid_config_rejected(self):
        manifest, features = toy_corpus()
        with pytest.raises(ValueError):
            train(manifest, features, toy_model(), TrainConfig(steps=0))


class TestCheckpointFormat:
    def test_records_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        records = {"a": rng.standard_normal((3, 4)).astype(np.float32),
                   "b.c": rng.standard_normal(7).astype(np.float32),
                   "scalar": np.asarray([2.5], dtype=np.float32)}
        path = tmp_path / "r.bin"
        write_records(path, records)
        loaded = read_records(path)
        assert set(loaded) == set(records)
        for name in records:
            np.testing.assert_array_equal(loaded[name], records[name])

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(
        st.text(),
        arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0,
                                        max_side=3),
               elements=st.floats(width=32))))
    def test_records_roundtrip_any_names_and_shapes(self, tmp_path, records):
        path = tmp_path / "r.bin"
        write_records(path, records)
        loaded = read_records(path)
        assert list(loaded) == list(records)
        for name, arr in records.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="magic"):
            read_records(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_records(path, {"a": np.ones(10, dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            read_records(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "v.bin"
        write_records(path, {})
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            read_records(path)


# Mostly valid values, with the float32 edges a config check must see: a
# value just under 1 or beyond 3.4e38 that float32 rounds to 1 or inf, and
# a subnormal that it rounds to 0.
unit_floats = st.floats(0, 1, exclude_max=True)
positive_floats = st.floats(0, 3.5e38, exclude_min=True)


class TestCheckpointRoundtrip:
    def trained(self, tmp_path, steps=4, seed=5):
        manifest, features = toy_corpus()
        model = toy_model()
        ckpt, _ = train(manifest, features, model,
                        TrainConfig(steps=steps, batch_size=4, seed=seed),
                        checkpoint_path=tmp_path / "ck.bin")
        return manifest, features, model, ckpt

    def test_load_restores_everything(self, tmp_path):
        _, _, model, ckpt = self.trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "ck.bin")
        assert loaded.step == 4
        assert loaded.seed == 5
        # float fields come back through float32 storage
        for f in ("n_speakers", "n_blocks", "d_m", "d_k", "d_v", "d_ff",
                  "embed_dim", "loss"):
            assert getattr(loaded.config, f) == getattr(model.config, f)
        for f in ("encoder_dropout", "head_dropout", "am_scale", "am_margin"):
            assert getattr(loaded.config, f) \
                == pytest.approx(getattr(model.config, f), rel=1e-6)
        assert loaded.opt.step == ckpt.opt.step
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
            np.testing.assert_array_equal(loaded.opt.m[name],
                                          ckpt.opt.m[name])
            np.testing.assert_array_equal(loaded.opt.v[name],
                                          ckpt.opt.v[name])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        self.trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "ck.bin")
        save_checkpoint(loaded, tmp_path / "again.bin")
        assert (tmp_path / "ck.bin").read_bytes() \
            == (tmp_path / "again.bin").read_bytes()

    def test_large_seed_survives(self, tmp_path):
        manifest, features = toy_corpus()
        seed = (1 << 62) + 12345
        ckpt, _ = train(manifest, features, toy_model(),
                        TrainConfig(steps=1, batch_size=2, seed=seed),
                        checkpoint_path=tmp_path / "s.bin")
        assert load_checkpoint(tmp_path / "s.bin").seed == seed

    def test_step_beyond_float32_precision_survives(self, tmp_path):
        _, _, _, ckpt = self.trained(tmp_path)
        ckpt.step = ckpt.opt.step = (1 << 24) + 1  # float32 rounds it to 2**24
        save_checkpoint(ckpt, tmp_path / "late.bin")
        loaded = load_checkpoint(tmp_path / "late.bin")
        assert loaded.step == loaded.opt.step == (1 << 24) + 1

    def test_single_float_step_record_still_loads(self, tmp_path):
        """Older checkpoints stored the step as one float32 value."""
        self.trained(tmp_path)
        records = read_records(tmp_path / "ck.bin")
        records["opt.step"] = np.asarray([100000.0], dtype=np.float32)
        write_records(tmp_path / "old.bin", records)
        loaded = load_checkpoint(tmp_path / "old.bin")
        assert loaded.step == loaded.opt.step == 100000

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.builds(
        ModelConfig, n_speakers=st.integers(1, 3), n_blocks=st.integers(1, 2),
        d_m=st.integers(1, 3), d_k=st.integers(1, 3), d_v=st.integers(1, 3),
        d_ff=st.integers(1, 3), embed_dim=st.integers(1, 3),
        loss=st.sampled_from([LOSS_SOFTMAX, LOSS_AM_SOFTMAX]),
        encoder_dropout=unit_floats, head_dropout=unit_floats,
        am_scale=positive_floats, am_margin=st.floats(0, 3.5e38)),
        train_config=st.builds(
            TrainConfig, steps=st.just(1), lr=st.floats(0, 3.5e38),
            eps=positive_floats, beta1=unit_floats, beta2=unit_floats))
    def test_every_valid_config_reloads(self, tmp_path, config, train_config):
        """A config and Adam settings that pass ``validate`` load back
        from a checkpoint, equal to what was saved after float32
        rounding."""
        try:
            config.validate()
            train_config.validate()
        except ValueError:
            assume(False)
        opt = AdamState(lr=train_config.lr, beta1=train_config.beta1,
                        beta2=train_config.beta2, eps=train_config.eps)
        save_checkpoint(Checkpoint(
            config=config, opt=opt, step=0, seed=0,
            params={name: np.zeros(shape, dtype=np.float32)
                    for name, shape in param_shapes(config).items()}),
            tmp_path / "ck.bin")
        loaded = load_checkpoint(tmp_path / "ck.bin")
        assert loaded.config == dataclasses.replace(config, **{
            name: float(np.float32(getattr(config, name))) for name in (
                "encoder_dropout", "head_dropout", "am_scale", "am_margin")})
        for name in ("lr", "beta1", "beta2", "eps"):
            assert getattr(loaded.opt, name) \
                == float(np.float32(getattr(opt, name))), name

    adam_floats = st.one_of(
        st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, 1.0,
                         3.5e38, -3.5e38]), st.floats())

    @settings(max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lr=adam_floats, beta1=adam_floats, beta2=adam_floats,
           eps=adam_floats)
    def test_adam_settings_load_iff_valid(self, tmp_path, lr, beta1, beta2,
                                          eps):
        """``TrainConfig.validate`` accepts Adam settings if and only if a
        checkpoint holding them loads: the converse of
        ``test_every_valid_config_reloads``."""
        try:
            TrainConfig(steps=1, lr=lr, beta1=beta1, beta2=beta2,
                        eps=eps).validate()
            valid = True
        except ValueError:
            valid = False
        config = ModelConfig(n_speakers=1, n_blocks=1, d_m=1, d_k=1, d_v=1,
                             d_ff=1, embed_dim=1)
        with np.errstate(over="ignore"):  # the float32 record may overflow
            save_checkpoint(Checkpoint(
                config=config, step=0, seed=0,
                opt=AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps),
                params={name: np.zeros(shape, dtype=np.float32)
                        for name, shape in param_shapes(config).items()}),
                tmp_path / "ck.bin")
        try:
            load_checkpoint(tmp_path / "ck.bin")
            loads = True
        except CheckpointFormatError:
            loads = False
        assert loads == valid

    def test_model_from_checkpoint_shape_mismatch(self, tmp_path):
        _, _, _, ckpt = self.trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "ck.bin")
        loaded.params["pool.w_c"] = np.zeros((91, 1), dtype=np.float32)
        with pytest.raises(CheckpointFormatError, match="pool.w_c"):
            model_from_checkpoint(loaded)

    def test_model_from_checkpoint_scans_each_array_once(self, tmp_path,
                                                         monkeypatch):
        """``model_from_checkpoint`` scans each float32 copy once and the
        tensors do not scan it again; a NaN put in after loading, or a
        float64 value that overflows float32, is rejected by name."""
        self.trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "ck.bin")
        scanned, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a, *args, **kwargs: (
            scanned.append(np.shape(a)) or isfinite(a, *args, **kwargs)))
        model_from_checkpoint(loaded)
        assert scanned == list(param_shapes(loaded.config).values())
        for value in (np.nan, 1e300):
            bad = loaded.params["head.fc1.b"].astype(np.float64)
            bad[0] = value
            loaded.params["head.fc1.b"] = bad
            with pytest.raises(CheckpointFormatError,
                               match=r"^checkpoint: record 'head.fc1.b' "
                               r"holds a non-finite value$"):
                model_from_checkpoint(loaded)

    def test_missing_parameter_rejected(self, tmp_path):
        _, _, _, ckpt = self.trained(tmp_path)
        loaded = load_checkpoint(tmp_path / "ck.bin")
        del loaded.params["head.fc1.w"]
        with pytest.raises(CheckpointFormatError, match="head.fc1.w"):
            model_from_checkpoint(loaded)


class TestParamTable:
    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.builds(
        ModelConfig, n_speakers=st.integers(1, 4), n_blocks=st.integers(1, 2),
        d_m=st.integers(1, 6), d_k=st.integers(1, 5), d_v=st.integers(1, 5),
        d_ff=st.integers(1, 6), embed_dim=st.integers(1, 5),
        loss=st.sampled_from([LOSS_SOFTMAX, LOSS_AM_SOFTMAX])),
        seed=st.integers(0, 2 ** 32 - 1))
    def test_table_drives_init_and_checkpoint_reload(self, tmp_path, config,
                                                     seed):
        model = init_model(config, seed=seed)
        assert [(name, value.data.shape) for name, value
                in model.params.items()] == list(param_shapes(config).items())
        for convention, dropped in (
                ("all", ()), ("excluding-output", ("out.",)),
                ("embedding-extractor", ("out.", "head.fc3."))):
            assert count_params(config, convention) == sum(
                value.data.size for name, value in model.params.items()
                if not name.startswith(dropped)), convention
        save_checkpoint(Checkpoint(
            config=config, opt=AdamState(), step=0, seed=seed,
            params={name: value.data for name, value in model.params.items()}),
            tmp_path / "ck.bin")
        ckpt = load_checkpoint(tmp_path / "ck.bin")
        reloaded = model_from_checkpoint(ckpt)
        assert list(reloaded.params) == list(model.params)
        for name, value in model.params.items():
            got = reloaded.params[name].data
            assert got.dtype == np.float32 and got.shape == value.data.shape
            assert got.tobytes() == value.data.tobytes(), name
            assert not np.shares_memory(got, ckpt.params[name])


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        manifest, features = toy_corpus()
        seed = 11

        straight = toy_model()
        ckpt20, _ = train(manifest, features, straight,
                          TrainConfig(steps=20, batch_size=4, seed=seed))

        half = toy_model()
        _, _ = train(manifest, features, half,
                     TrainConfig(steps=10, batch_size=4, seed=seed),
                     checkpoint_path=tmp_path / "half.bin")
        loaded = load_checkpoint(tmp_path / "half.bin")
        resumed_model = model_from_checkpoint(loaded)
        resumed, _ = train(manifest, features, resumed_model,
                           TrainConfig(steps=20, batch_size=4,
                                       seed=loaded.seed),
                           opt=loaded.opt)

        for name, arr in ckpt20.params.items():
            np.testing.assert_array_equal(resumed.params[name], arr,
                                          err_msg=name)
        assert resumed.opt.step == ckpt20.opt.step
        for name in ckpt20.opt.m:
            np.testing.assert_array_equal(resumed.opt.m[name],
                                          ckpt20.opt.m[name])
            np.testing.assert_array_equal(resumed.opt.v[name],
                                          ckpt20.opt.v[name])
