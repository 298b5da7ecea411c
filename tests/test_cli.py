import numpy as np
import pytest

from saep.checkpoint import load_checkpoint, read_records, write_records
from saep.cli import main
from saep.config import RunConfigError, build_configs, parse_run_config
from saep.manifest import load_manifest
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

    def test_cli_synth_writes_wavs(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path / "c"),
                   "--n-speakers", "2", "--utts-per-speaker", "2",
                   "--duration", "0.5", "--seed", "4", "--trial-pairs", "2"])
        assert rc == 0
        assert len(list((tmp_path / "c" / "wav").glob("*.wav"))) == 4
        assert "4 utterances" in capsys.readouterr().out


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
            == "EER=33.33% threshold=0.700000"

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

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("synth", "train", "extract", "score", "eval",
                     "count-params"):
            assert name in out
