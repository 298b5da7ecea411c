"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (visible even under pytest's output capture)."""

import time

import numpy as np
import pytest

from saep import tensor as tz
from saep.cache import features_for_manifest
from saep.checkpoint import load_checkpoint, model_from_checkpoint
from saep.cli import main
from saep.features import FeatureSequence
from saep.manifest import load_manifest
from saep.model import LOSS_AM_SOFTMAX, ModelConfig, SaepModel, \
    count_params, init_model
from saep.tensor import Tensor
from saep.train import TrainConfig, train
from saep.verification import ScoredTrial, compute_eer, load_trials, \
    score_trials

from gradcheck import gradient_check
from reference_ops import chunk_accuracy


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = (" (%s)" % detail) if detail else ""
        print("[acceptance] %s: %s%s" % (name, "PASS" if ok else "FAIL",
                                         suffix))
    assert ok, "%s %s" % (name, detail)


def test_criterion_1_end_to_end_gradients(capsys):
    """Analytic gradients of the full loss match finite differences for a
    tiny model, both losses, 20 seeds, within 1e-2, in under a minute."""
    start = time.monotonic()
    ok = True
    for loss in ("softmax", "am_softmax"):
        for seed in range(20):
            cfg = ModelConfig(n_speakers=3, n_blocks=1, d_m=6, d_k=4,
                              d_v=4, d_ff=8, embed_dim=5,
                              encoder_dropout=0.0, head_dropout=0.0,
                              loss=loss)
            model = init_model(cfg, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            batch = rng.standard_normal((2, 7, 6)).astype(np.float32)
            labels = rng.integers(0, 3, size=2)
            rep = gradient_check(
                lambda: model.forward_loss(batch, labels, train=False),
                [v for _, v in model.params.items()], tol=1e-2,
                labels=list(model.params))
            if not rep.passed:
                ok = False
    elapsed = time.monotonic() - start
    report(capsys, "end-to-end gradient check", ok and elapsed < 60.0,
           "40 configurations, %.1fs" % elapsed)


def test_criterion_2_parameter_reconciliation(capsys):
    """Embedding-extractor parameter counts reconcile with the published
    model sizes, and size ordering across configurations is preserved."""
    published = [
        (dict(d_k=64, d_v=64, d_ff=1024), 0.45e6, 0.35),
        (dict(d_k=64, d_v=64, d_ff=2048), 0.83e6, 0.20),
        (dict(d_k=128, d_v=128, d_ff=2048), 0.88e6, 0.20),
        (dict(), 1.16e6, 0.20),  # default d_k = d_v = 512, d_ff = 2048
    ]
    counts = []
    ok = True
    for overrides, target, tol in published:
        count = count_params(ModelConfig(n_speakers=1000, **overrides),
                             "embedding-extractor")
        counts.append(count)
        if abs(count - target) / target > tol:
            ok = False
    # published ordering: 0.45M < 0.83M < 0.88M < 1.16M
    ok = ok and counts == sorted(counts)
    report(capsys, "parameter-count reconciliation", ok,
           "counts %s" % counts)


def test_criterion_3_permutation_invariance(capsys):
    """Frame order never changes the embedding (default-size model,
    50 random sequences, max abs deviation <= 1e-5)."""
    model = init_model(ModelConfig(n_speakers=50), seed=0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(5, 60))
        frames = rng.standard_normal((t, 90)).astype(np.float32)
        perm = rng.permutation(t)
        a = model.extract_embedding(FeatureSequence(frames, "u"))
        b = model.extract_embedding(FeatureSequence(frames[perm], "u"))
        worst = max(worst, float(np.abs(a.vector - b.vector).max()))
    report(capsys, "permutation invariance", worst <= 1e-5,
           "max deviation %.2e" % worst)


def test_criterion_4_attention_is_convex(capsys):
    """Attention weights are row-stochastic and pooled outputs stay inside
    the per-dimension envelope of the encoder frames (100 random inputs)."""
    model = init_model(ModelConfig(n_speakers=5, d_k=16, d_v=16, d_ff=32),
                       seed=0)
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        t = int(rng.integers(2, 30))
        x = Tensor(rng.standard_normal((t, 90)).astype(np.float32))
        enc_trace, pool_trace = [], []
        h = model.encode(x, trace=enc_trace)
        pooled = model.attention_pool(h, trace=pool_trace)
        for weights in enc_trace + pool_trace:
            if weights.min() < 0.0 \
                    or np.abs(weights.sum(axis=-1) - 1.0).max() > 1e-5:
                ok = False
        if (pooled.data < h.data.min(axis=0) - 1e-5).any() \
                or (pooled.data > h.data.max(axis=0) + 1e-5).any():
            ok = False
    report(capsys, "attention weights convex", ok)


TOY_RUN_CONFIG = """\
n_blocks = 2
d_k = 32
d_v = 32
d_ff = 128
embed_dim = 400
loss = am_softmax
steps = 2000
batch_size = 32
seed = 7
lr = 1e-4
"""


@pytest.mark.slow
def test_criterion_5_toy_end_to_end(capsys, tmp_path):
    """Full pipeline on the synthetic corpus: train-set chunk accuracy
    >= 95%, trial EER < 5%, untrained-model EER near chance, all within
    the wall-clock budget."""
    start = time.monotonic()
    corpus_dir = tmp_path / "corpus"
    cache_dir = tmp_path / "cache"
    assert main(["synth", "--out-dir", str(corpus_dir),
                 "--n-speakers", "10", "--utts-per-speaker", "20",
                 "--duration", "3.0", "--seed", "7"]) == 0
    manifest_path = str(corpus_dir / "manifest.txt")
    manifest = load_manifest(manifest_path)
    features = features_for_manifest(manifest, str(cache_dir))
    trials = load_trials(corpus_dir / "trials.txt")

    # chance-level baseline from an untrained model of the same shape
    cfg = ModelConfig(n_speakers=10, d_k=32, d_v=32, d_ff=128,
                      embed_dim=400, loss="am_softmax")
    untrained = init_model(cfg, seed=7)
    base_embs = {utt_id: untrained.extract_embedding(features[utt_id])
                 for utt_id, _, _ in manifest.entries}
    eer_untrained, _ = compute_eer(score_trials(trials, base_embs))

    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(TOY_RUN_CONFIG)
    ckpt_path = tmp_path / "model.ckpt"
    assert main(["train", "--config", str(run_cfg),
                 "--manifest", manifest_path, "--out", str(ckpt_path),
                 "--feature-cache", str(cache_dir)]) == 0
    model = model_from_checkpoint(load_checkpoint(ckpt_path))
    accuracy = chunk_accuracy(manifest, features, model)

    embs_path = tmp_path / "embeddings.bin"
    scores_path = tmp_path / "scores.txt"
    assert main(["extract", "--checkpoint", str(ckpt_path),
                 "--manifest", manifest_path, "--out", str(embs_path),
                 "--feature-cache", str(cache_dir)]) == 0
    assert main(["score", "--embeddings", str(embs_path),
                 "--trials", str(corpus_dir / "trials.txt"),
                 "--out", str(scores_path)]) == 0
    assert main(["eval", "--scores", str(scores_path)]) == 0
    out = capsys.readouterr().out
    eer = float(out.split("EER=")[-1].split("%")[0]) / 100.0
    elapsed = time.monotonic() - start

    ok = (accuracy >= 0.95 and eer < 0.05
          and 0.35 <= eer_untrained <= 0.65 and elapsed < 900.0)
    report(capsys, "toy end-to-end run", ok,
           "accuracy %.3f, EER %.2f%%, untrained EER %.1f%%, %.0fs"
           % (accuracy, 100 * eer, 100 * eer_untrained, elapsed))


def test_criterion_6_margin_free_am_softmax_is_cross_entropy(capsys):
    """With margin 0, the additive-margin loss equals plain cross-entropy
    on scale * cosine logits (100 random batches, within 1e-6)."""
    rng = np.random.default_rng(2)
    worst = 0.0
    # float64 inputs isolate the algebraic identity from float32
    # rounding noise between the two evaluation orders
    for _ in range(100):
        n, d, c = (int(rng.integers(1, 9)), int(rng.integers(2, 12)),
                   int(rng.integers(2, 8)))
        feats = rng.standard_normal((n, d))
        weight = Tensor(rng.standard_normal((d, c)))
        labels = rng.integers(0, c, size=n)
        model = SaepModel(ModelConfig(c, loss=LOSS_AM_SOFTMAX,
                                      am_scale=30.0, am_margin=0.0),
                          {"out.w": weight})
        am = tz.cross_entropy(model.output_logits(Tensor(feats), labels),
                              labels).item()
        fn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        wn = weight.data / np.linalg.norm(weight.data, axis=0,
                                          keepdims=True)
        ce = tz.cross_entropy(Tensor(30.0 * (fn @ wn)), labels).item()
        worst = max(worst, abs(am - ce))
    report(capsys, "margin-free AM-softmax equals cross-entropy",
           worst <= 1e-6, "worst gap %.2e" % worst)


def test_criterion_7_eer_behaviour(capsys):
    """EER: exact on the hand-worked case, ~50% on iid scores, and
    invariant under strictly monotone score transforms."""
    def trials_from(targets, nontargets):
        out = [ScoredTrial(float(s), 1, "e", "t") for s in targets]
        out += [ScoredTrial(float(s), 0, "e", "t") for s in nontargets]
        return out

    eer_hand, thr = compute_eer(trials_from([0.9, 0.8, 0.2],
                                            [0.7, 0.1, 0.05]))
    ok = abs(eer_hand - 1.0 / 3.0) < 1e-12 and abs(thr - 0.7) < 1e-12

    rng = np.random.default_rng(3)
    eer_iid, _ = compute_eer(trials_from(rng.standard_normal(10000),
                                         rng.standard_normal(10000)))
    ok = ok and abs(eer_iid - 0.5) <= 0.02

    worst_gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        targets = rng.standard_normal(30) + 1.0
        nontargets = rng.standard_normal(30)
        eer_a, _ = compute_eer(trials_from(targets, nontargets))
        eer_b, _ = compute_eer(trials_from(np.expm1(targets),
                                           np.expm1(nontargets)))
        worst_gap = max(worst_gap, abs(eer_a - eer_b))
    ok = ok and worst_gap < 1e-9
    report(capsys, "EER computation", ok,
           "hand %.4f, iid %.3f, transform gap %.1e"
           % (eer_hand, eer_iid, worst_gap))


def test_criterion_8_bit_exact_resume(capsys, tmp_path, mini_corpus):
    """Training 10 steps, checkpointing, and resuming for 10 more yields
    bit-identical parameters to an uninterrupted 20-step run on a small
    synthetic corpus."""
    manifest = mini_corpus.manifest
    features = features_for_manifest(manifest, None)

    def fresh_model():
        return init_model(ModelConfig(n_speakers=3, n_blocks=1, d_k=8,
                                      d_v=8, d_ff=16, embed_dim=12), seed=2)

    ckpt20, _ = train(manifest, features, fresh_model(),
                      TrainConfig(steps=20, batch_size=4, seed=13))
    train(manifest, features, fresh_model(),
          TrainConfig(steps=10, batch_size=4, seed=13),
          checkpoint_path=tmp_path / "half.ckpt")
    loaded = load_checkpoint(tmp_path / "half.ckpt")
    resumed, _ = train(manifest, features, model_from_checkpoint(loaded),
                       TrainConfig(steps=20, batch_size=4, seed=loaded.seed),
                       opt=loaded.opt)
    ok = all(np.array_equal(resumed.params[name], ckpt20.params[name])
             for name in ckpt20.params)
    ok = ok and all(
        np.array_equal(resumed.opt.m[name], ckpt20.opt.m[name])
        and np.array_equal(resumed.opt.v[name], ckpt20.opt.v[name])
        for name in ckpt20.opt.m)
    report(capsys, "bit-exact resume", ok)
