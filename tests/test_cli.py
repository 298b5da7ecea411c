import importlib
import os
import pkgutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import saep
import saep.model
from saep.audio import write_wav
from saep.checkpoint import load_checkpoint, read_records, write_records, \
    speaker_fingerprint
from saep.cli import main
from saep.config import RunConfigError, build_configs, parse_run_config
from saep.manifest import load_manifest
from saep.records import CheckpointFormatError
from saep.synth import FREQ_GRID, _draw_speakers, synth_corpus
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


class TestRunConfig:
    def test_parse_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TRAIN_CONFIG)
        sections = parse_run_config(path)
        assert sections["model"]["d_ff"] == 16
        assert sections["train"]["steps"] == 2

    @pytest.mark.parametrize("line,fragment", [
        ("frobnicate = 3", "unknown key"),
        ("d_k = banana", "bad value"),
        ("just words", "key = value"),
    ])
    def test_bad_line_reports_position(self, tmp_path, line, fragment):
        path = tmp_path / "bad.cfg"
        path.write_text("d_m = 90\n%s\n" % line)
        with pytest.raises(RunConfigError, match="2") as exc:
            parse_run_config(path)
        assert fragment in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("d_k = 8\nd_k = 16\n")
        with pytest.raises(RunConfigError, match="duplicate"):
            parse_run_config(path)

    def test_build_configs_overrides(self):
        model_cfg, train_cfg = build_configs(
            {"model": {"d_k": 8}, "train": {"steps": 5, "seed": 1}},
            n_speakers=12, steps=9, seed=2)
        assert model_cfg.n_speakers == 12
        assert model_cfg.d_k == 8
        assert (train_cfg.steps, train_cfg.seed) == (9, 2)

    def test_build_configs_needs_speaker_count(self):
        with pytest.raises(RunConfigError, match="n_speakers"):
            build_configs({"model": {}, "train": {}})


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
         "shorter than one 400-sample window"),
        (["--duration", "0"], "duration 0 s: clip of 0 samples is shorter "
         "than one 400-sample window"),
        (["--duration", "0.01"], "duration 0.01 s: clip of 160 samples is "
         "shorter than one 400-sample window"),
        (["--duration", "nan"], "duration must be finite, got nan"),
        (["--duration", "inf"], "duration must be finite, got inf"),
    ], ids=["more_speakers_than_triples", "negative_duration",
            "zero_duration", "duration_below_one_window", "nan_duration",
            "infinite_duration"])
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
        (100, 16000, "clip of 100 samples is shorter than one 400-sample"),
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
    ], ids=["no_feats_record", "wrong_width", "no_frames"])
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

    def test_threads_equals_form_pins_blas(self, monkeypatch, capsys):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert main(["--threads=1", "count-params"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_zero_threads_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "count-params"])
        assert exc.value.code != 0
        assert "--threads" in capsys.readouterr().err

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("synth", "train", "extract", "score", "eval",
                     "count-params"):
            assert name in out

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


class TestLayering:
    @pytest.mark.parametrize("module", sorted(
        name for _, name, _ in pkgutil.iter_modules(saep.__path__)
        if name != "__main__"))
    def test_every_export_exists(self, module):
        mod = importlib.import_module("saep." + module)
        assert [name for name in getattr(mod, "__all__", ())
                if not hasattr(mod, name)] == []

    @pytest.mark.parametrize("modules,below", [
        ("saep.verification, saep.records",
         ("saep.model", "saep.tensor", "scipy")),
        ("saep.cache", ("saep.model",)),
        ("saep.features, saep.cache, saep.train, saep.checkpoint, saep.cli",
         ("scipy",)),
    ], ids=["records_and_scoring", "feature_cache", "no_scipy"])
    def test_import_does_not_load(self, modules, below):
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, %s; print(*sys.modules)" % modules],
            env=child_env(), capture_output=True, text=True,
            check=True).stdout.split()
        assert [m for m in loaded if any(
            m == name or m.startswith(name + ".") for name in below)] == []
