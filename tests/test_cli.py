import ast
import dataclasses
import functools
import importlib
import os
import pkgutil
import re
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import saep
import saep.model
import saep.train
from saep.audio import write_wav
from saep.cache import features_for_manifest
from saep.checkpoint import Checkpoint, load_checkpoint, read_records, \
    save_checkpoint, speaker_fingerprint, write_records
from saep.cli import main
from saep.config import _SCHEMA, RunConfigError, load_run_config
from saep.features import TooShortError
from saep.manifest import Manifest, load_manifest, save_manifest
from saep.model import ModelConfig, param_shapes
from saep.optim import ADAM_SETTINGS, AdamState
from saep.records import CheckpointFormatError
from saep.synth import FREQ_GRID, _draw_speakers, synth_corpus
from saep.train import TrainConfig
from saep.verification import load_trials


TRAIN_CONFIG = """\
# tiny model for fast CLI tests
n_blocks = 1
d_k = 8
d_v = 8
d_ff = 16
embed_dim = 12
steps = 2
batch_size = 4
seed = 3
"""


class TestSynth:
    def test_deterministic(self, tmp_path):
        a = synth_corpus(tmp_path / "a", n_speakers=2, utts_per_speaker=2,
                         duration=0.5, seed=9, n_pairs_per_class=2)
        b = synth_corpus(tmp_path / "b", n_speakers=2, utts_per_speaker=2,
                         duration=0.5, seed=9, n_pairs_per_class=2)
        utt_id, _, wav_a = a.manifest.entries[0]
        _, _, wav_b = b.manifest.entries[0]
        assert open(wav_a, "rb").read() == open(wav_b, "rb").read()
        assert [e[:2] for e in a.manifest.entries] \
            == [e[:2] for e in b.manifest.entries]
        assert a.trials == b.trials

    def test_counts_and_balance(self, mini_corpus):
        manifest = load_manifest(mini_corpus.manifest_path)
        assert len(manifest) == 9
        assert manifest.n_speakers == 3
        trials = load_trials(mini_corpus.trials_path)
        assert sum(t.label for t in trials) == 5
        assert sum(1 - t.label for t in trials) == 5

    def test_trials_reference_manifest_utterances(self, mini_corpus):
        ids = {utt_id for utt_id, _, _ in mini_corpus.manifest.entries}
        for t in mini_corpus.trials:
            assert t.enroll_id in ids and t.test_id in ids
            same = t.enroll_id.split("_")[0] == t.test_id.split("_")[0]
            assert same == bool(t.label)

    def test_speaker_triples_are_distinct(self):
        triples = _draw_speakers(np.random.default_rng(0), 30)
        assert len(set(triples)) == 30
        for triple in triples:
            assert len(set(triple)) == 3
            assert all(f in FREQ_GRID for f in triple)

    def test_every_distinct_pair_can_be_drawn(self, tmp_path):
        corpus = synth_corpus(tmp_path, n_speakers=2, utts_per_speaker=2,
                              duration=0.1, seed=3, n_pairs_per_class=4)
        assert len({(t.label, t.enroll_id, t.test_id)
                    for t in corpus.trials}) == 8
        assert sum(t.label for t in corpus.trials) == 4

    def test_cli_synth_writes_wavs(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path / "c"),
                   "--n-speakers", "2", "--utts-per-speaker", "2",
                   "--duration", "0.5", "--seed", "4", "--trial-pairs", "2"])
        assert rc == 0
        assert len(list((tmp_path / "c" / "wav").glob("*.wav"))) == 4
        assert "4 utterances" in capsys.readouterr().out

    def test_moved_corpus_still_trains(self, tmp_path):
        assert main(["synth", "--out-dir", str(tmp_path / "c"),
                     "--n-speakers", "2", "--utts-per-speaker", "2",
                     "--duration", "0.5", "--trial-pairs", "1"]) == 0
        os.rename(tmp_path / "c", tmp_path / "moved")
        manifest = tmp_path / "moved" / "manifest.txt"
        assert str(tmp_path) not in manifest.read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TRAIN_CONFIG)
        assert main(["train", "--config", str(cfg), "--manifest",
                     str(manifest), "--steps", "1",
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        assert load_checkpoint(tmp_path / "m.ckpt").step == 1


_sizes = st.integers(1, 10 ** 6)
_fractions = st.floats(0, 0.99)
_positives = st.floats(1e-30, 1e30)
# A valid value for each of the 18 run-config keys.
VALID_VALUES = dict(
    n_blocks=_sizes, d_k=_sizes, d_v=_sizes, d_ff=_sizes, embed_dim=_sizes,
    encoder_dropout=_fractions, head_dropout=_fractions,
    loss=st.sampled_from(["softmax", "am_softmax"]), am_scale=_positives,
    am_margin=st.floats(0, 1e30), steps=_sizes, batch_size=_sizes,
    seed=st.integers(0, 2 ** 64 - 1), checkpoint_every=st.integers(0, 10 ** 6),
    lr=st.floats(0, 1e30), beta1=_fractions, beta2=_fractions, eps=_positives)


class TestRunConfig:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TRAIN_CONFIG)
        model_cfg, train_cfg, opt = load_run_config(path, 3)
        assert (model_cfg.n_speakers, model_cfg.d_ff) == (3, 16)
        assert train_cfg.steps == 2
        assert opt == AdamState()

    @pytest.mark.parametrize("line,fragment", [
        ("frobnicate = 3", "unknown key"),
        ("d_k = banana", "bad value"),
        ("just words", "key = value"),
        ("n_speakers = 2", "unknown key"),
        ("d_m = 90", "unknown key"),
    ])
    def test_bad_line_reports_position(self, tmp_path, line, fragment):
        path = tmp_path / "bad.cfg"
        path.write_text("n_blocks = 1\n%s\n" % line)
        with pytest.raises(RunConfigError, match="2") as exc:
            load_run_config(path, 3)
        assert fragment in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("d_k = 8\nd_k = 16\n")
        with pytest.raises(RunConfigError, match="duplicate"):
            load_run_config(path, 3)

    def test_build_configs_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_k = 8\nsteps = 5\nseed = 1\n")
        model_cfg, train_cfg, _ = load_run_config(path, 12, steps=9, seed=2)
        assert model_cfg.n_speakers == 12
        assert model_cfg.d_k == 8
        assert (train_cfg.steps, train_cfg.seed) == (9, 2)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_speakers=st.integers(1, 50),
           steps=st.none() | _sizes,
           seed=st.none() | st.integers(0, 2 ** 64 - 1))
    def test_any_valid_file_loads_as_its_dataclasses(
            self, tmp_path, data, n_speakers, steps, seed):
        """Any subset of the keys, in any order, among comments and blank
        lines, gives the configs built from those keys directly, and the
        command-line overrides win over the file."""
        assert set(VALID_VALUES) == set(_SCHEMA)
        keys = data.draw(st.lists(st.sampled_from(sorted(VALID_VALUES)),
                                  unique=True), label="keys")
        values = {key: data.draw(VALID_VALUES[key], label=key)
                  for key in keys}
        lines = []
        for key in keys:
            lines += data.draw(st.lists(st.sampled_from(
                ["", "  ", "# a comment", "# n_speakers = 2"]), max_size=2))
            lines.append(data.draw(st.sampled_from(
                ["%s = %s", "%s=%s", " %s\t=  %s  # why"]))
                % (key, values[key]))
        path = tmp_path / "run.cfg"
        path.write_text("".join(line + "\n" for line in lines))
        model = {k: v for k, v in values.items()
                 if k in ModelConfig.__dataclass_fields__}
        adam = {k: v for k, v in values.items() if k in ADAM_SETTINGS}
        train = {k: v for k, v in values.items()
                 if k not in model and k not in adam}
        train.update({k: v for k, v in (("steps", steps), ("seed", seed))
                      if v is not None})
        assert load_run_config(path, n_speakers, steps=steps, seed=seed) \
            == (ModelConfig(n_speakers=n_speakers, **model).validate(),
                TrainConfig(**train).validate(),
                AdamState(**adam).validate())

    def test_every_key_is_a_field_and_resumes_from_a_checkpoint(
            self, trained):
        """The keys are the fields of the three dataclasses less the two
        the input fixes, and every key a resumed run cannot change is a
        cfg. or opt. record of the checkpoint it resumes."""
        assert set(_SCHEMA) == ({f.name for f in dataclasses.fields(
            ModelConfig)} - {"n_speakers", "d_m"}) | {
            f.name for f in dataclasses.fields(TrainConfig)} \
            | set(ADAM_SETTINGS)
        records = read_records(trained / "model.ckpt")
        assert [key for key in _SCHEMA if "cfg." + key not in records
                and "opt." + key not in records] \
            == ["steps", "batch_size", "checkpoint_every"]


@pytest.fixture(scope="module")
def trained(mini_corpus, tmp_path_factory):
    """Run the train and extract subcommands once for this module."""
    work = tmp_path_factory.mktemp("cli_train")
    cfg = work / "run.cfg"
    cfg.write_text(TRAIN_CONFIG)
    ckpt = work / "model.ckpt"
    loss_log = work / "loss.csv"
    rc = main(["train", "--config", str(cfg),
               "--manifest", mini_corpus.manifest_path,
               "--out", str(ckpt), "--loss-log", str(loss_log)])
    assert rc == 0
    embs = work / "embeddings.bin"
    rc = main(["extract", "--checkpoint", str(ckpt),
               "--manifest", mini_corpus.manifest_path,
               "--out", str(embs), "--permute-check"])
    assert rc == 0
    return work


class TestTrainExtract:
    def test_checkpoint_written(self, trained):
        ckpt = load_checkpoint(trained / "model.ckpt")
        assert ckpt.step == 2
        assert ckpt.config.d_ff == 16

    def test_loss_log_format(self, trained):
        lines = (trained / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 3
        step, loss = lines[1].split(",")
        assert step == "1" and float(loss) > 0.0

    def test_embeddings_cover_manifest(self, trained, mini_corpus):
        records = read_records(trained / "embeddings.bin")
        assert set(records) \
            == {utt_id for utt_id, _, _ in mini_corpus.manifest.entries}
        for arr in records.values():
            assert arr.shape == (12,)

    def test_score_and_eval(self, trained, mini_corpus, capsys):
        scores = trained / "scores.txt"
        rc = main(["score", "--embeddings", str(trained / "embeddings.bin"),
                   "--trials", mini_corpus.trials_path,
                   "--out", str(scores)])
        assert rc == 0
        rc = main(["eval", "--scores", str(scores)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EER=" in out and "threshold=" in out


class TestEvalGolden:
    def test_hand_case_output_line(self, tmp_path, capsys):
        path = tmp_path / "scores.txt"
        path.write_text(
            "0.900000 1 a b\n0.800000 1 c d\n0.200000 1 e f\n"
            "0.700000 0 g h\n0.100000 0 i j\n0.050000 0 k l\n")
        assert main(["eval", "--scores", str(path)]) == 0
        assert capsys.readouterr().out.strip() \
            == "EER=33.33% threshold=0.700000 minDCF=0.3333"

    def test_empty_score_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["eval", "--scores", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCountParams:
    def test_default_breakdown_and_totals(self, capsys):
        assert main(["count-params"]) == 0
        out = capsys.readouterr().out
        assert "encoder" in out
        assert "total (all): 1716996" in out
        assert "total (excluding-output): 1315996" in out
        assert "total (embedding-extractor): 1155596" in out

    def test_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("d_k = 64\nd_v = 64\nd_ff = 1024\n")
        assert main(["count-params", "--config", str(cfg)]) == 0
        assert "total (embedding-extractor): 462348" \
            in capsys.readouterr().out

    def test_config_cannot_set_the_speaker_count(self, tmp_path, capsys):
        """The output width comes from ``--n-speakers`` alone."""
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("n_speakers = 5\n")
        assert main(["count-params", "--config", str(cfg),
                     "--n-speakers", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: %s:1: unknown key 'n_speakers'\n" % cfg
        assert captured.out == ""

    def test_builds_no_model(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("count-params built a model")
        monkeypatch.setattr(saep.model, "init_model", refuse)
        assert main(["count-params"]) == 0
        out = capsys.readouterr().out
        assert "total (all): 1716996" in out
        assert "total (embedding-extractor): 1155596" in out


def child_env():
    """The environment for a child Python that imports this ``saep``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(saep.__file__)),
        os.environ.get("PYTHONPATH")])))


def write_raw_records(path, records):
    """A record file built by hand from (name, extents, data bytes), so that
    its header can claim what ``write_records`` never writes."""
    parts = [b"SAEP", struct.pack("<II", 1, len(records))]
    for name, shape, data in records:
        if isinstance(name, str):
            name = name.encode("utf-8")
        parts += [struct.pack("<I", len(name)), name,
                  struct.pack("<I%dQ" % len(shape), len(shape), *shape), data]
    path.write_bytes(b"".join(parts))


class TestErrors:
    def test_missing_manifest(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "x.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_checkpoint(self, tmp_path, mini_corpus, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        rc = main(["extract", "--checkpoint", str(bad),
                   "--manifest", mini_corpus.manifest_path,
                   "--out", str(tmp_path / "e.bin")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_without_optimizer_records(self, trained, tmp_path,
                                                  mini_corpus, capsys):
        records = read_records(trained / "model.ckpt")
        stripped = tmp_path / "no_opt.ckpt"
        write_records(stripped, {name: arr for name, arr in records.items()
                                 if not name.startswith("opt.")})
        rc = main(["extract", "--checkpoint", str(stripped),
                   "--manifest", mini_corpus.manifest_path,
                   "--out", str(tmp_path / "e.bin")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "missing record 'opt." in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_speakers", [2, 4])
    def test_resume_with_other_speaker_count(self, trained, tmp_path,
                                             mini_corpus, capsys, n_speakers):
        entries = list(mini_corpus.manifest.entries)
        if n_speakers == 2:
            entries = [e for e in entries if e[1] != entries[0][1]]
        else:  # one new speaker, reusing a recording
            entries.append(("new_utt", "new_speaker", entries[0][2]))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join("%s %s %s\n" % e for e in entries))
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", str(manifest), "--steps", "3",
                   "--resume", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "resumed.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "3 speakers" in err
        assert "has %d" % n_speakers in err
        assert "Traceback" not in err
        assert not (tmp_path / "resumed.ckpt").exists()

    def test_utterance_id_with_path_separator(self, tmp_path, mini_corpus,
                                              capsys):
        entries = list(mini_corpus.manifest.entries)
        utt_id, speaker, wav = entries[0]
        entries[0] = ("../" + utt_id, speaker, wav)
        work = tmp_path / "work"
        work.mkdir()
        (work / "run.cfg").write_text(TRAIN_CONFIG)
        (work / "manifest.txt").write_text(
            "".join("%s %s %s\n" % e for e in entries))
        rc = main(["train", "--config", str(work / "run.cfg"),
                   "--manifest", str(work / "manifest.txt"),
                   "--feature-cache", str(work / "cache"),
                   "--out", str(work / "model.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and ":1: " in err and "path separator" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) \
            == ["manifest.txt", "run.cfg", "work"]

    @pytest.mark.parametrize("score", ["abc", "nan", "-inf"])
    def test_score_file_with_bad_score(self, tmp_path, capsys, score):
        path = tmp_path / "scores.txt"
        path.write_text("%s 1 a b\n0.100000 0 c d\n" % score)
        assert main(["eval", "--scores", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and ":1:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("records,fragment", [
        ([("a", (2 ** 20, 2 ** 20), b"")], "claims"),
        ([("a", (2,), bytes(8)), ("a", (2,), bytes(8))], "duplicate"),
        ([("a", (2,), bytes(8)), (b"\xff", (2,), bytes(8))],
         "embeddings.bin: record 1 has a name that is not UTF-8"),
        ([("a", (0, 2 ** 63), b"")], "embeddings.bin: record 'a' has extents"),
    ], ids=["oversized_extents", "duplicate_name", "non_utf8_name",
            "extent_beyond_int64"])
    def test_malformed_embedding_archive(self, tmp_path, mini_corpus, capsys,
                                         records, fragment):
        archive = tmp_path / "embeddings.bin"
        write_raw_records(archive, records)
        rc = main(["score", "--embeddings", str(archive),
                   "--trials", mini_corpus.trials_path,
                   "--out", str(tmp_path / "scores.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("cfg.n_blocks", [1.7]),
        ("cfg.d_k", []),
        ("cfg.loss", [5.0]),
        ("opt.step", [float("nan")]),
        ("opt.step", [-3.0]),
        ("opt.step", [1.0, 70000.0, 0.0, 0.0]),
        ("opt.lr", [float("inf")]),
        ("cfg.n_blocks", [0.0]),
        ("cfg.head_dropout", [1.5]),
    ], ids=["fractional_int", "no_value", "unknown_loss", "nan_step",
            "negative_step", "word_beyond_16_bits", "infinite_float",
            "zero_blocks", "dropout_out_of_range"])
    def test_malformed_checkpoint_scalar(self, trained, tmp_path, mini_corpus,
                                         capsys, key, value):
        records = read_records(trained / "model.ckpt")
        records[key] = np.asarray(value, dtype=np.float32)
        bad = tmp_path / "bad.ckpt"
        write_records(bad, records)
        rc = main(["extract", "--checkpoint", str(bad),
                   "--manifest", mini_corpus.manifest_path,
                   "--out", str(tmp_path / "e.bin")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: %s: record %r" % (bad, key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,fragment", [
        (lambda r: r.pop("head.fc1.w"), "missing parameter 'head.fc1.w'"),
        (lambda r: r["head.fc1.w"].__setitem__((0, 0), np.nan),
         "record 'head.fc1.w' holds a non-finite value"),
        (lambda r: r.__setitem__("pool.w_c", np.zeros((91, 1))),
         "record 'pool.w_c' has shape (91, 1) but the config requires "
         "(90, 1)"),
        (lambda r: r.__setitem__("junk.param", np.zeros(3)),
         "record 'junk.param' is neither a parameter"),
        (lambda r: r.__setitem__("opt.m.head.fc1.b", np.zeros(3)),
         "record 'opt.m.head.fc1.b' has shape (3,) but the config requires "
         "(90,)"),
        (lambda r: r.__setitem__("opt.v.enc9.w_q", np.zeros(3)),
         "record 'opt.v.enc9.w_q' is neither a parameter"),
        (lambda r: r["opt.v.pool.w_c"].__setitem__((1, 0), np.inf),
         "record 'opt.v.pool.w_c' holds a non-finite value"),
        (lambda r: r.pop("opt.m.head.fc2.b"),
         "missing parameter 'opt.m.head.fc2.b'"),
    ], ids=["missing_parameter", "nan_parameter", "wrong_shape",
            "unknown_parameter", "moment_shape", "moment_of_no_parameter",
            "infinite_moment", "missing_moment"])
    def test_malformed_checkpoint_array(self, trained, tmp_path, mini_corpus,
                                        capsys, edit, fragment):
        records = read_records(trained / "model.ckpt")
        edit(records)
        bad = tmp_path / "bad.ckpt"
        write_records(bad, records)
        rc = main(["extract", "--checkpoint", str(bad),
                   "--manifest", mini_corpus.manifest_path,
                   "--out", str(tmp_path / "e.bin")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: %s: %s" % (bad, fragment) in err
        assert "Traceback" not in err
        assert not (tmp_path / "e.bin").exists()

    def test_embedding_archive_with_trailing_bytes(self, trained, tmp_path,
                                                   mini_corpus, capsys):
        archive = tmp_path / "embeddings.bin"
        archive.write_bytes((trained / "embeddings.bin").read_bytes()
                            + bytes(29))
        rc = main(["score", "--embeddings", str(archive),
                   "--trials", mini_corpus.trials_path,
                   "--out", str(tmp_path / "scores.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: %s: 29 bytes left over after the last of 9 records" \
            % archive in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_embedding(self, tmp_path, capsys):
        archive = tmp_path / "embeddings.bin"
        write_records(archive, {"a": np.ones(4, np.float32),
                                "b": np.array([1, np.nan, 0, 0], np.float32)})
        trials = tmp_path / "trials.txt"
        trials.write_text("1 a a\n0 a b\n")
        scores = tmp_path / "scores.txt"
        rc = main(["score", "--embeddings", str(archive),
                   "--trials", str(trials), "--out", str(scores)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: embedding 'b' is not finite" in err
        assert "Traceback" not in err
        assert not scores.exists()

    def test_synth_with_more_trials_than_pairs(self, tmp_path):
        # In a child process with a timeout: drawing distinct pairs that do
        # not exist would never end.
        done = subprocess.run(
            [sys.executable, "-m", "saep", "synth",
             "--out-dir", str(tmp_path / "c"), "--n-speakers", "2",
             "--utts-per-speaker", "2", "--trial-pairs", "10"],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "error: cannot draw 10 trials of each class" in done.stderr
        assert "only 4 distinct target and 8 distinct nontarget pairs" \
            in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("argv,fragment", [
        (["--n-speakers", "41665"], "cannot draw 41665 speakers: the "
         "frequency grid has only 41664 distinct triples"),
        (["--duration", "-1"], "duration -1 s: clip of -16000 samples is "
         "shorter than two analysis frames (560 samples)"),
        (["--duration", "0"], "duration 0 s: clip of 0 samples is shorter "
         "than two analysis frames (560 samples)"),
        (["--duration", "0.01"], "duration 0.01 s: clip of 160 samples is "
         "shorter than two analysis frames (560 samples)"),
        (["--duration", "0.025"], "duration 0.025 s: clip of 400 samples is "
         "shorter than two analysis frames (560 samples)"),
        (["--duration", "nan"], "duration must be finite, got nan"),
        (["--duration", "inf"], "duration must be finite, got inf"),
        (["--duration", "1e12"], "duration 1e+12 s needs 16000000000000000 "
         "samples, more than a 16-bit WAV holds (2147483629)"),
        (["--n-speakers", "0", "--trial-pairs", "0"],
         "n_speakers must be >= 1, got 0"),
        (["--utts-per-speaker", "0", "--trial-pairs", "0"],
         "utts_per_speaker must be >= 1, got 0"),
        (["--trial-pairs", "-4"], "n_pairs_per_class must be >= 0, got -4"),
    ], ids=["more_speakers_than_triples", "negative_duration",
            "zero_duration", "duration_below_one_window",
            "duration_of_one_frame", "nan_duration", "infinite_duration",
            "duration_beyond_a_wav", "no_speakers", "no_utterances",
            "negative_trial_pairs"])
    def test_synth_rejects_impossible_input(self, tmp_path, argv, fragment):
        # In a child process with a timeout: drawing more distinct triples
        # than the grid holds would never end.
        done = subprocess.run(
            [sys.executable, "-m", "saep", "synth",
             "--out-dir", str(tmp_path / "c"), "--n-speakers", "2",
             "--utts-per-speaker", "2", "--trial-pairs", "1", *argv],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == "error: %s\n" % fragment
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("key,value,fragment", [
        ("opt.lr", -1.0, "lr must be finite and >= 0, got -1.0"),
        ("opt.beta1", 1.0, "beta1 must be in [0, 1), got 1.0"),
        ("opt.beta2", -0.5, "beta2 must be in [0, 1), got -0.5"),
        ("opt.eps", 0.0, "eps must be finite and > 0, got 0.0"),
    ], ids=["negative_lr", "beta1_one", "negative_beta2", "zero_eps"])
    def test_resume_with_invalid_adam_setting(self, trained, tmp_path,
                                              mini_corpus, capsys, key,
                                              value, fragment):
        """Each setting would resume and climb the loss, or end in a
        non-finite loss, if the checkpoint reader let it through."""
        records = read_records(trained / "model.ckpt")
        records[key] = np.asarray([value], dtype=np.float32)
        bad = tmp_path / "bad.ckpt"
        write_records(bad, records)
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "resumed.ckpt"
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path, "--steps", "3",
                   "--resume", str(bad), "--feature-cache", str(cache),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: record %r: %s\n" % (bad, key, fragment)
        assert os.listdir(cache) == [] and not out.exists()

    def test_resume_with_renamed_speakers(self, trained, tmp_path,
                                          mini_corpus, capsys):
        entries = list(mini_corpus.manifest.entries)
        renamed = entries[0][1]
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(
            "%s %s %s\n" % (u, "zzz" if s == renamed else s, w)
            for u, s, w in entries))
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", str(manifest), "--steps", "3",
                   "--resume", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "resumed.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "other speaker names" in err
        assert str(trained / "model.ckpt") in err and str(manifest) in err
        assert "Traceback" not in err
        assert not (tmp_path / "resumed.ckpt").exists()

    def test_resume_past_the_run_end(self, trained, tmp_path, mini_corpus,
                                     capsys):
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path, "--steps", "1",
                   "--resume", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "r.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: cannot resume at step 2: the run ends at step 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.ckpt").exists()

    def test_config_cannot_set_the_speaker_count(self, tmp_path,
                                                 mini_corpus, capsys):
        """The manifest fixes the speaker count. A config that claimed fewer
        would fail inside the loss with a traceback, and one that claimed
        more would train a checkpoint its own manifest cannot resume."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_speakers = 2\n" + TRAIN_CONFIG)
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(cfg),
                   "--manifest", mini_corpus.manifest_path,
                   "--feature-cache", str(cache), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s:1: unknown key 'n_speakers'\n" % cfg
        assert os.listdir(cache) == [] and not out.exists()

    def test_resume_past_the_run_end_computes_no_features(
            self, trained, tmp_path, mini_corpus):
        cache = tmp_path / "cache"
        cache.mkdir()
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path, "--steps", "1",
                   "--resume", str(trained / "model.ckpt"),
                   "--feature-cache", str(cache),
                   "--out", str(tmp_path / "r.ckpt")])
        assert rc == 1
        assert os.listdir(cache) == []

    @pytest.mark.parametrize("n_samples,rate,fragment", [
        (100, 16000,
         "clip of 100 samples is shorter than two analysis frames"),
        (16000, 8000, "expected 16000 Hz audio, got 8000 Hz"),
    ], ids=["too_short", "wrong_rate"])
    def test_front_end_error_names_the_wav(self, tmp_path, mini_corpus,
                                           capsys, n_samples, rate, fragment):
        wav = tmp_path / "bad.wav"
        write_wav(wav, np.zeros(n_samples), rate)
        entries = list(mini_corpus.manifest.entries)
        entries[-1] = entries[-1][:2] + (str(wav),)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join("%s %s %s\n" % e for e in entries))
        (tmp_path / "run.cfg").write_text(TRAIN_CONFIG)
        rc = main(["train", "--config", str(tmp_path / "run.cfg"),
                   "--manifest", str(manifest),
                   "--out", str(tmp_path / "model.ckpt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: %s: %s" % (wav, fragment) in err
        assert "Traceback" not in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_resume_without_speaker_fingerprint(self, trained, tmp_path,
                                                mini_corpus):
        assert load_checkpoint(trained / "model.ckpt").speakers \
            == speaker_fingerprint(mini_corpus.manifest.label_map)
        records = read_records(trained / "model.ckpt")
        del records["opt.speakers"]
        old = tmp_path / "old.ckpt"
        write_records(old, records)
        assert load_checkpoint(old).speakers is None
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path, "--steps", "3",
                   "--resume", str(old), "--out", str(tmp_path / "r.ckpt")])
        assert rc == 0
        assert load_checkpoint(tmp_path / "r.ckpt").step == 3

    @pytest.mark.parametrize("records", [
        {"frames": np.zeros((5, 90))},
        {"feats": np.zeros((5, 91))},
        {"feats": np.zeros((0, 90))},
        {"feats": np.zeros((1, 90))},
        {"feats": np.pad(np.full((1, 1), np.nan), ((2, 2), (0, 89)))},
        {"feats": np.pad(np.full((1, 1), -np.inf), ((2, 2), (0, 89)))},
    ], ids=["no_feats_record", "wrong_width", "no_frames", "one_frame",
            "nan_frame", "infinite_frame"])
    def test_malformed_feature_cache_file(self, trained, tmp_path,
                                          mini_corpus, capsys, records):
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / (mini_corpus.manifest.entries[0][0] + ".feats")
        write_records(bad, records)
        rc = main(["extract", "--checkpoint", str(trained / "model.ckpt"),
                   "--manifest", mini_corpus.manifest_path,
                   "--feature-cache", str(cache),
                   "--out", str(tmp_path / "e.bin")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: %s: expected a T x 90 'feats' record" % bad in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_train_rejects_a_non_finite_feature_cache_file(
            self, tmp_path, mini_corpus, capsys, value):
        """A bad cache file is named before any step runs, not reported as
        a non-finite loss once a batch happens to draw from it."""
        cache = tmp_path / "cache"
        cache.mkdir()
        bad = cache / (mini_corpus.manifest.entries[0][0] + ".feats")
        frames = np.zeros((5, 90))
        frames[3, 7] = value
        write_records(bad, {"feats": frames})
        (tmp_path / "run.cfg").write_text(TRAIN_CONFIG)
        loss_log = tmp_path / "loss.csv"
        out = tmp_path / "model.ckpt"
        rc = main(["train", "--config", str(tmp_path / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path,
                   "--feature-cache", str(cache), "--loss-log", str(loss_log),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: %s: expected a T x 90 'feats' record: "
                                "frame 3 holds a non-finite value\n" % bad)
        assert "step" not in captured.out
        assert loss_log.read_text() == "step,loss\n" and not out.exists()

    @pytest.mark.parametrize("line,argv,message", [
        ("d_k = 64", [], "d_k = 64, but the resumed checkpoint has 8"),
        ("lr = 0.5", [], "lr = 0.5, but the resumed checkpoint has %r"
         % float(np.float32(1e-4))),
        ("loss = am_softmax", [],
         "loss = 'am_softmax', but the resumed checkpoint has 'softmax'"),
        ("seed = 99", [], "seed = 99, but the resumed checkpoint has 3"),
        ("", ["--seed", "5"], "seed = 5, but the resumed checkpoint has 3"),
    ], ids=["model_key", "adam_setting", "loss", "seed", "seed_flag"])
    def test_resume_with_a_config_that_disagrees(
            self, trained, tmp_path, mini_corpus, capsys, line, argv,
            message):
        """The checkpoint fixes the model, the Adam settings and the seed;
        a run that sets one of them to another value is refused before any
        feature is computed."""
        key = line.partition("=")[0].strip()
        rows = [row for row in TRAIN_CONFIG.splitlines()
                if row.partition("=")[0].strip() != key] + [line]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(row + "\n" for row in rows))
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "resumed.ckpt"
        rc = main(["train", "--config", str(cfg), *argv,
                   "--manifest", mini_corpus.manifest_path, "--steps", "3",
                   "--resume", str(trained / "model.ckpt"),
                   "--feature-cache", str(cache), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        where = "--seed" if argv else "%s:%d" % (cfg, len(rows))
        assert err == "error: %s: %s\n" % (where, message)
        assert os.listdir(cache) == [] and not out.exists()

    def test_resume_with_a_config_that_agrees_as_float32(
            self, trained, tmp_path, mini_corpus):
        """Values that equal the checkpoint's once stored as float32 are
        the same run, and the checkpoint's own values carry on."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TRAIN_CONFIG + "lr = 1e-4\nencoder_dropout = 0.1\n"
                       "am_scale = 30\nloss = softmax\n")
        out = tmp_path / "resumed.ckpt"
        assert main(["train", "--config", str(cfg), "--seed", "3",
                     "--manifest", mini_corpus.manifest_path, "--steps", "3",
                     "--resume", str(trained / "model.ckpt"),
                     "--out", str(out)]) == 0
        assert read_records(out)["opt.lr"].tobytes() \
            == read_records(trained / "model.ckpt")["opt.lr"].tobytes()
        assert load_checkpoint(out).step == 3

    def test_loss_log_in_a_missing_directory(self, tmp_path, mini_corpus,
                                             capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (tmp_path / "run.cfg").write_text(TRAIN_CONFIG)
        loss_log = tmp_path / "missing" / "loss.csv"
        out = tmp_path / "model.ckpt"
        rc = main(["train", "--config", str(tmp_path / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path,
                   "--feature-cache", str(cache), "--loss-log", str(loss_log),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: [Errno 2] No such file or directory: "
                                "%r\n" % str(loss_log))
        assert captured.out == ""
        assert os.listdir(cache) == [] and not out.exists()

    def test_loss_log_is_written_as_the_run_goes(self, tmp_path, mini_corpus,
                                                 monkeypatch, capsys):
        """Each row is in the file when its step ends, so a run that fails
        at step 2 leaves the row of step 1."""
        (tmp_path / "run.cfg").write_text(TRAIN_CONFIG)
        loss_log = tmp_path / "loss.csv"
        seen = []
        adam_step = saep.train.adam_step

        def failing_second_step(params, state):
            if state.step == 1:
                seen.append(loss_log.read_text())
                raise RuntimeError("stopped at step 2")
            adam_step(params, state)

        monkeypatch.setattr(saep.train, "adam_step", failing_second_step)
        rc = main(["train", "--config", str(tmp_path / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path,
                   "--loss-log", str(loss_log),
                   "--out", str(tmp_path / "model.ckpt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: stopped at step 2\n"
        assert seen == [loss_log.read_text()]
        assert re.fullmatch(r"step,loss\n1,\d+\.\d{6}\n", seen[0])

    def test_resume_keeps_the_loss_log_of_the_steps_before(
            self, tmp_path, mini_corpus):
        """Resuming a 5-step run to step 7 with its own loss log leaves the
        log of an uninterrupted 7-step run, byte for byte; so does resuming
        with a log that already ran past the checkpoint."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TRAIN_CONFIG)
        cache = tmp_path / "cache"
        cache.mkdir()

        def run(steps, name, *argv):
            assert main(["train", "--config", str(cfg), "--steps", str(steps),
                         "--manifest", mini_corpus.manifest_path,
                         "--feature-cache", str(cache),
                         "--loss-log", str(tmp_path / (name + ".csv")),
                         "--out", str(tmp_path / (name + ".ckpt")),
                         *argv]) == 0

        run(7, "straight")
        straight = (tmp_path / "straight.csv").read_bytes()
        run(5, "resumed")
        (tmp_path / "rerun.csv").write_bytes(straight)
        for name in ("resumed", "rerun"):
            run(7, name, "--resume", str(tmp_path / "resumed.ckpt"))
            assert (tmp_path / (name + ".csv")).read_bytes() == straight
            assert (tmp_path / (name + ".ckpt")).read_bytes() \
                == (tmp_path / "straight.ckpt").read_bytes()

    @pytest.mark.parametrize("text,line,fragment", [
        ("step,loss\n1,0.5\n2,x\n", 3,
         "expected a row <step>,<loss>, got '2,x'"),
        ("step,loss\n\n", 2, "expected a row <step>,<loss>, got ''"),
        ("1,0.5\n", 1, "expected the header 'step,loss'"),
        ("", 1, "expected the header 'step,loss'"),
    ], ids=["bad_loss", "blank_row", "no_header", "empty"])
    def test_resume_with_a_malformed_loss_log(
            self, trained, tmp_path, mini_corpus, capsys, text, line,
            fragment):
        """A resumed run reads the log it appends to, and refuses one that
        is not its own format before any feature is computed."""
        loss_log = tmp_path / "loss.csv"
        loss_log.write_text(text)
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "resumed.ckpt"
        rc = main(["train", "--config", str(trained / "run.cfg"),
                   "--manifest", mini_corpus.manifest_path, "--steps", "3",
                   "--resume", str(trained / "model.ckpt"),
                   "--feature-cache", str(cache), "--loss-log", str(loss_log),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err \
            == "error: %s:%d: %s\n" % (loss_log, line, fragment)
        assert loss_log.read_text() == text
        assert os.listdir(cache) == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["extract", "--checkpoint"], ["train", "--steps", "3", "--resume"]],
        ids=["extract", "resume"])
    def test_checkpoint_of_another_frame_width(self, tmp_path, mini_corpus,
                                               capsys, argv):
        """The front end gives 90 values a frame, so a checkpoint of any
        other d_m is refused by name before any feature is computed."""
        config = ModelConfig(n_speakers=3, n_blocks=1, d_m=60, d_k=8, d_v=8,
                             d_ff=16, embed_dim=12)
        ckpt = tmp_path / "narrow.ckpt"
        save_checkpoint(Checkpoint(
            config=config, opt=AdamState(), step=1, seed=3,
            params={name: np.zeros(shape, dtype=np.float32)
                    for name, shape in param_shapes(config).items()}), ckpt)
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "out.bin"
        rc = main(argv + [str(ckpt), "--manifest", mini_corpus.manifest_path,
                          "--feature-cache", str(cache), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: %s: record 'cfg.d_m' is 60, but the front end gives 90 "
            "features a frame\n" % ckpt)
        assert os.listdir(cache) == [] and not out.exists()

    def test_extract_rejects_a_one_frame_clip(self, trained, tmp_path):
        """450 samples give one analysis frame, which cmvn would map to
        all zeros: the front end refuses it and names the WAV."""
        wav = tmp_path / "short.wav"
        write_wav(wav, np.random.default_rng(0).uniform(-0.5, 0.5, 450)
                  .astype(np.float32), 16000)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("short spk000 short.wav\n")
        out = tmp_path / "e.bin"
        done = subprocess.run(
            [sys.executable, "-m", "saep", "extract",
             "--checkpoint", str(trained / "model.ckpt"),
             "--manifest", str(manifest), "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == ("error: %s: clip of 450 samples is shorter "
                               "than two analysis frames (560 samples)\n"
                               % wav)
        assert not out.exists()
        with pytest.raises(TooShortError, match=str(wav)):
            features_for_manifest(load_manifest(manifest))

    @pytest.mark.parametrize("cut,message", [
        (lambda b: b"", "not a PCM WAV file (the header ends early)"),
        (lambda b: b"RIFF", "not a PCM WAV file (the header ends early)"),
        (lambda b: b[:20], "not a PCM WAV file (the header ends early)"),
        (lambda b: b[:-1000], "truncated data chunk: 15000 bytes for the "
                              "8000 samples (16000 bytes) of its header"),
        (lambda b: b[:-1001], "truncated data chunk: 14999 bytes for the "
                              "8000 samples (16000 bytes) of its header"),
    ], ids=["empty", "riff_only", "first_20_bytes", "even_cut", "odd_cut"])
    def test_extract_rejects_a_cut_wav(self, trained, tmp_path, cut, message):
        """A WAV cut inside its header or its data is refused by name, with
        exit 1 and no traceback."""
        wav = tmp_path / "cut.wav"
        write_wav(wav, np.full(8000, 0.25), 16000)
        wav.write_bytes(cut(wav.read_bytes()))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("cut spk000 cut.wav\n")
        out = tmp_path / "e.bin"
        done = subprocess.run(
            [sys.executable, "-m", "saep", "extract",
             "--checkpoint", str(trained / "model.ckpt"),
             "--manifest", str(manifest), "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == "error: %s: %s\n" % (wav, message)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["count-params", "--config", "{bad}"],
        ["extract", "--checkpoint", "{work}/model.ckpt", "--manifest",
         "{bad}", "--out", "{tmp}/e.bin"],
        ["score", "--embeddings", "{work}/embeddings.bin", "--trials",
         "{bad}", "--out", "{tmp}/s.txt"],
        ["eval", "--scores", "{bad}"],
        ["train", "--config", "{work}/run.cfg", "--manifest", "{manifest}",
         "--steps", "3", "--resume", "{work}/model.ckpt", "--loss-log",
         "{bad}", "--out", "{tmp}/r.ckpt"],
    ], ids=["run_config", "manifest", "trial_list", "score_file", "loss_log"])
    def test_text_that_is_not_utf8_names_the_file(
            self, trained, tmp_path, mini_corpus, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 a b\n\xff\n")
        fill = dict(bad=bad, work=trained, tmp=tmp_path,
                    manifest=mini_corpus.manifest_path)
        assert main([arg.format(**fill) for arg in argv]) == 1
        assert capsys.readouterr().err == (
            "error: %s: not UTF-8 text: byte 0xff (invalid start byte)\n"
            % bad)
        assert bad.read_bytes() == b"1 a b\n\xff\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

    @pytest.mark.parametrize("shape", [(3, 3), ()], ids=["matrix", "rank_0"])
    def test_score_non_vector_embeddings(self, tmp_path, capsys, shape):
        archive = tmp_path / "embeddings.bin"
        write_records(archive, {"a": np.ones(shape), "b": np.full(shape, 2.)})
        trials = tmp_path / "trials.txt"
        trials.write_text("1 a b\n")
        rc = main(["score", "--embeddings", str(archive),
                   "--trials", str(trials),
                   "--out", str(tmp_path / "scores.txt")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: embeddings 'a' and 'b' must be vectors" in err
        assert "Traceback" not in err

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("synth", "train", "extract", "score", "eval",
                     "count-params"):
            assert name in out
        assert "--threads" not in out

    @pytest.mark.parametrize("line,key", [
        ("am_scale = nan", "am_scale"),
        ("am_scale = 1e39", "am_scale"),
        ("am_margin = inf", "am_margin"),
        ("encoder_dropout = 0.99999999", "encoder_dropout"),
        ("lr = inf", "lr"),
        ("lr = -1e-3", "lr"),
        ("eps = 1e-50", "eps"),
        ("beta1 = 1.0", "beta1"),
        ("beta2 = 0.99999999", "beta2"),
        ("checkpoint_every = -2", "checkpoint_every"),
        ("seed = 18446744073709551616", "seed"),
    ], ids=["nan_am_scale", "am_scale_beyond_float32", "infinite_am_margin",
            "dropout_rounds_to_one", "infinite_lr", "negative_lr",
            "eps_rounds_to_zero", "beta1_one", "beta2_rounds_to_one",
            "negative_checkpoint_every", "seed_beyond_64_bits"])
    def test_invalid_config_value(self, tmp_path, mini_corpus, capsys, line,
                                  key):
        """Each value would train, or fail only later, if the config check
        let it through. The run stops before it writes a checkpoint."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            row + "\n" for row in TRAIN_CONFIG.splitlines()
            if row.partition("=")[0].strip() != key) + line + "\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(cfg), "--steps", "1",
                   "--manifest", mini_corpus.manifest_path,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: %s must be " % key), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["d_ff", "batch_size"])
    def test_config_too_large_for_memory(self, tmp_path, mini_corpus, capsys,
                                         key):
        """An array beyond the address space fails to allocate at once."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            row + "\n" for row in TRAIN_CONFIG.splitlines()
            if row.partition("=")[0].strip() != key)
            + "%s = %d\n" % (key, 10 ** 15))
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--config", str(cfg), "--manifest",
                   mini_corpus.manifest_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: out of memory: "), err
        assert "Traceback" not in err
        assert not out.exists()


# Runs ``saep`` with its arguments after the first, on all of this process's
# CPUs, on "one" of them, or as if it might use "four", and prints the worker
# count and the BLAS thread count of each training run's pool to stderr.
# Neither import loads numpy.
COUNT_WORKERS = """
import os, sys
from concurrent.futures import ThreadPoolExecutor
from saep import cli
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
elif sys.argv[1] == "four":
    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
init = ThreadPoolExecutor.__init__

def spy(self, max_workers=None, *args, **kwargs):
    from saep.train import _blas_threads
    print("workers", max_workers, "blas", _blas_threads(), file=sys.stderr)
    init(self, max_workers, *args, **kwargs)

ThreadPoolExecutor.__init__ = spy
sys.exit(cli.main(sys.argv[2:]))
"""


class TestThreads:
    def test_one_and_two_threads_write_the_same_files(self, mini_corpus,
                                                      tmp_path):
        """``saep train`` pins BLAS to half of its CPUs and, on two or more,
        runs a step's two slices on two workers; on one CPU it runs them
        one after the other. At one BLAS thread the checkpoints and loss
        logs of one and two workers are byte-identical; a BLAS thread
        count reorders float32 sums, a worker count does not."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TRAIN_CONFIG.replace("batch_size = 4", "batch_size = 5")
                       .replace("steps = 2", "steps = 3"))
        cpus = len(os.sched_getaffinity(0))
        expected = {"all": (min(cpus, 2), max(1, cpus // 2)), "one": (1, 1)}
        if cpus >= 2:  # OpenBLAS takes no more threads than there are CPUs
            expected["four"] = (2, 2)
        files = {}
        for run, (workers, blas) in expected.items():
            out = tmp_path / ("%s.ckpt" % run)
            log = tmp_path / ("%s.csv" % run)
            done = subprocess.run(
                [sys.executable, "-c", COUNT_WORKERS, run, "train",
                 "--config", str(cfg), "--manifest",
                 mini_corpus.manifest_path, "--out", str(out),
                 "--loss-log", str(log)],
                env=child_env(), capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert done.stderr == "workers %d blas %d\n" % (workers, blas)
            files[run] = out.read_bytes(), log.read_bytes()
        assert len(files["all"][1].splitlines()) == 4
        same_blas = [files[run] for run in expected if expected[run][1] == 1]
        assert all(pair == same_blas[0] for pair in same_blas)

    def test_threads_two_over_a_multi_threaded_blas_runs_one_worker(
            self, mini_corpus, tmp_path, monkeypatch, capsys):
        """In a process that loaded numpy before ``main`` ran, as when a
        test calls it, BLAS keeps its thread count, so two worker threads
        would oversubscribe the CPUs and the run takes one worker. The
        BLAS variables of the environment stay as they were."""
        blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
        for var in blas_vars:
            monkeypatch.setenv(var, "3")
        monkeypatch.setattr(saep.train, "_blas_threads", lambda: 2)
        chosen, rule = [], saep.train._workers
        monkeypatch.setattr(saep.train, "_workers",
                            lambda: chosen.append(rule()) or chosen[-1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TRAIN_CONFIG)
        assert main(["train", "--config", str(cfg),
                     "--manifest", mini_corpus.manifest_path,
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        assert chosen == [1]
        assert [os.environ[var] for var in blas_vars] == ["3"] * 3

    def test_blas_threads_reads_the_loaded_library(self):
        done = subprocess.run(
            [sys.executable, "-c", "import numpy, saep.train as t; "
             "print(t._blas_threads())"],
            env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, check=True)
        assert done.stdout == "1\n"


class TestRecordFiles:
    @pytest.mark.parametrize("records,edit,fragment", [
        ([("a", (2,), bytes(8))], lambda b: b"NOPE" + b[4:], "bad magic"),
        ([("a", (2,), bytes(8))], lambda b: b[:-4], "truncated"),
        ([("a", (2,), bytes(8))], lambda b: b[:4] + b"\x63" + b[5:],
         "unsupported format version 99"),
        ([("a", (2,), bytes(8))] * 2, None, "duplicate record 'a'"),
        ([("a", (2 ** 20, 2 ** 20), b"")], None, "claims"),
        ([("a", (2,), bytes(8)), ("b", (1,), bytes(4))], lambda b: b + b"xyz",
         "3 bytes left over after the last of 2 records"),
    ], ids=["bad_magic", "truncated", "version", "duplicate_name",
            "oversized_extents", "trailing_bytes"])
    def test_every_error_names_the_file(self, tmp_path, records, edit,
                                        fragment):
        path = tmp_path / "r.bin"
        write_raw_records(path, records)
        if edit is not None:
            path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointFormatError) as exc:
            read_records(path)
        message = str(exc.value)
        assert message.startswith("%s: " % path) and fragment in message


class TestAtomicWrites:
    """A write that fails halfway leaves the previous file as it was, and
    no temporary file beside it."""

    @staticmethod
    def assert_unchanged(path, before):
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_manifest(self, tmp_path):
        class Unwritable:
            def __str__(self):
                raise OSError("disk full")

        path = tmp_path / "manifest.txt"
        save_manifest(Manifest([("u1", "s1", "a.wav")]), path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            save_manifest(Manifest([("u2", "s1", "b.wav"),
                                    (Unwritable(), "s1", "c.wav")]), path)
        self.assert_unchanged(path, before)

    def test_wav(self, tmp_path, monkeypatch):
        def half_then_fail(wf, data):
            wf.writeframesraw(data[:len(data) // 2])
            raise OSError("disk full")

        path = tmp_path / "a.wav"
        write_wav(path, np.zeros(100), 16000)
        before = path.read_bytes()
        monkeypatch.setattr(wave.Wave_write, "writeframes", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_wav(path, np.full(1000, 0.5), 16000)
        self.assert_unchanged(path, before)


MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(saep.__path__)
                 if name != "__main__")


def _names_in(node):
    """Bare names, and attribute names both bare and as ``.attr``: only the
    latter reach a method, so a local variable cannot keep one alive."""
    attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | attrs | {"." + attr for attr in attrs})


def _public_methods(cls):
    return [item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


@functools.lru_cache(maxsize=None)
def _live_names():
    """Every name the CLI or the benchmark can reach.

    The roots are every word in ``benchmarks/`` (its tracer names functions
    in strings) and the module-level statements of ``src/saep`` that are not
    definitions, such as ``__main__``'s call of ``main``. A top-level
    function, class or assignment is live once live code names it, and a
    public method once live code names it after a dot, on any object; it
    then names what its own code names. Dunder methods run with their
    class. Tests are not roots.
    """
    src = Path(saep.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    roots = set()
    for path in bench.glob("*.py"):
        words = set(re.findall(r"\w+", path.read_text()))
        roots |= words | {"." + word for word in words}
    defs = {}
    for path in src.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(stmt.name, []).append(_names_in(stmt))
            elif isinstance(stmt, ast.ClassDef):
                methods = _public_methods(stmt)
                for item in methods:
                    defs.setdefault("." + item.name, []).append(
                        _names_in(item))
                own = set()
                for part in stmt.bases + stmt.keywords + stmt.decorator_list \
                        + [i for i in stmt.body if i not in methods]:
                    own |= _names_in(part)
                defs.setdefault(stmt.name, []).append(own)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = set().union(*map(_names_in, targets))
                if names != {"__all__"}:
                    for name in names:
                        defs.setdefault(name, []).append(
                            _names_in(stmt.value) if stmt.value else set())
            else:  # runs on import; an import itself names no ast.Name
                roots |= _names_in(stmt)
    live, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            for names in defs.get(name, ()):
                todo.extend(names - live)
    return live


class TestLayering:
    @pytest.mark.parametrize("module", MODULES)
    def test_every_export_exists(self, module):
        mod = importlib.import_module("saep." + module)
        assert [name for name in getattr(mod, "__all__", ())
                if not hasattr(mod, name)] == []

    @pytest.mark.parametrize("module", MODULES)
    def test_every_export_is_reached_outside_tests(self, module):
        """``src/`` holds only what the CLI and the benchmark run: code that
        only tests call belongs under ``tests/``."""
        mod = importlib.import_module("saep." + module)
        exports = getattr(mod, "__all__", ())
        live = _live_names()
        unreached = [name for name in exports if name not in live]
        unreached += [
            cls.name + "." + item.name
            for cls in ast.parse(Path(mod.__file__).read_text()).body
            if isinstance(cls, ast.ClassDef) and cls.name in exports
            for item in _public_methods(cls) if "." + item.name not in live]
        assert unreached == []

    def test_no_unused_imports(self):
        """Every name an import binds in ``src/saep`` or ``tests`` is used,
        or exported through ``__all__``."""
        unused = []
        for path in sorted([*Path(saep.__file__).parent.glob("*.py"),
                            *Path(__file__).parent.glob("*.py")]):
            tree = ast.parse(path.read_text())
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for stmt in tree.body:
                if isinstance(stmt, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in stmt.targets):
                    used |= set(ast.literal_eval(stmt.value))
            unused += ["%s: %s" % (path.name, bound)
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))
                       and getattr(node, "module", None) != "__future__"
                       for alias in node.names
                       for bound in [alias.asname
                                     or alias.name.partition(".")[0]]
                       if bound not in used]
        assert unused == []

    @pytest.mark.parametrize("modules,below", [
        ("saep.verification, saep.records",
         ("saep.model", "saep.tensor", "scipy")),
        ("saep.cache", ("saep.model",)),
        ("saep.features, saep.cache, saep.train, saep.checkpoint, saep.cli",
         ("scipy",)),
        ("saep.cli", ("numpy",)),
    ], ids=["records_and_scoring", "feature_cache", "no_scipy",
            "cli_before_numpy"])
    def test_import_does_not_load(self, modules, below):
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, %s; print(*sys.modules)" % modules],
            env=child_env(), capture_output=True, text=True,
            check=True).stdout.split()
        assert [m for m in loaded if any(
            m == name or m.startswith(name + ".") for name in below)] == []

    def test_only_compute_dtype_rebinds_a_module_global(self):
        """A module global that one thread switches is switched for every
        thread. ``tensor.compute_dtype`` is the one exception: the
        benchmark's single-threaded float64 reference is its one caller."""
        rebinding = []
        for path in sorted(Path(saep.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    rebinding += ["%s.%s" % (path.stem, func.name)
                                  for stmt in ast.walk(func)
                                  if isinstance(stmt, ast.Global)]
        assert rebinding == ["tensor.compute_dtype"]

    def test_only_tensor_names_the_storage_dtype(self):
        """Ops follow their inputs' dtype, so no code outside ``tensor.py``
        reads the storage-dtype global or enters ``compute_dtype``."""
        hidden = {"compute_dtype", "_DTYPE"}
        naming = []
        for path in sorted([*Path(saep.__file__).parent.glob("*.py"),
                            *Path(__file__).parent.glob("*.py")]):
            if path.name != "tensor.py":
                naming += ["%s:%d" % (path.name, node.lineno)
                           for node in ast.walk(ast.parse(path.read_text()))
                           if getattr(node, "id", None) in hidden
                           or getattr(node, "attr", None) in hidden
                           or isinstance(node, ast.alias)
                           and node.name in hidden]
        assert naming == []

    def test_traced_names_that_saep_no_longer_defines(self, monkeypatch):
        """The benchmark traces ``saep`` functions, methods and tensor ops by
        name, and the per-layer figures of a name that resolves to nothing
        read 0. A change that deletes a traced name adds it here."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks"))
        tracing = importlib.import_module("tracing")
        metrics = importlib.import_module("metrics")
        module = importlib.import_module
        missing = {name for name, (mod, attr) in tracing.FUNCTIONS.items()
                   if not hasattr(module(mod), attr)}
        missing |= {name
                    for name, (mod, cls, meth) in tracing.METHODS.items()
                    if meth not in vars(getattr(module(mod), cls))}
        missing |= {"tensor." + op for op in metrics.TENSOR_OPS
                    if not hasattr(module("saep.tensor"), op)}
        assert missing == {
            "model.am_softmax_loss", "verification.det_points",
            "model.scaled_dot_attention", "model.position_ffn",
            "model.classifier_features", "model.head_forward",
            "tensor.matmul", "tensor.softmax_rows", "tensor.sub",
            "tensor.transpose"}
