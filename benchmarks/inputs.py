"""Seeded input generators for the three workloads.

Run as a child process of ``run.py`` (``python3 inputs.py WORKLOAD SEED DIR
[--tiny]``) so that neither the time nor the memory it takes counts towards
the measured run. The same seed always writes the same files. The program
under test later sees only these WAVs, manifests, checkpoints, archives and
trial lists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from saep import checkpoint, manifest, model, optim, verification
from saep.cache import features_for_manifest
from saep.synth import synth_corpus

# The README toy configuration.
TOY_MODEL = dict(n_blocks=2, d_k=32, d_v=32, d_ff=128, embed_dim=400,
                 loss="am_softmax")

ENROLL_SPEAKERS = 8
MIN_S, MAX_S = 2.0, 20.0

# VoxCeleb1 test list: 40 speakers, 4,874 utterances, 37,720 trials.
SCORE_SPEAKERS, SCORE_UTTS, SCORE_TRIALS, SCORE_DIM = 40, 4874, 37720, 400
# Within-speaker spread around unit-variance centroids; gives an EER of
# roughly 8%, so target and nontarget scores overlap as in real lists.
SCORE_NOISE = 2.5


def paths(work: str) -> dict:
    """Where each generated file lives under the work directory."""
    return {
        "corpus": os.path.join(work, "corpus"),
        "manifest": os.path.join(work, "corpus", "manifest.txt"),
        "durations": os.path.join(work, "corpus", "durations.json"),
        "cache": os.path.join(work, "cache"),
        "model": os.path.join(work, "model.ckpt"),
        "embeddings": os.path.join(work, "embeddings.bin"),
        "trials": os.path.join(work, "trials.txt"),
    }


def train_toy(work: str, seed: int, tiny: bool) -> None:
    """The synthetic 10 x 20 corpus of 3 s clips, with a warm feature
    cache."""
    p = paths(work)
    n_spk, n_utt = (3, 3) if tiny else (10, 20)
    corpus = synth_corpus(p["corpus"], n_speakers=n_spk,
                          utts_per_speaker=n_utt, duration=3.0, seed=seed,
                          n_pairs_per_class=1)
    features_for_manifest(corpus.manifest, p["cache"])


def enroll_durations(rng: np.random.Generator, n: int) -> np.ndarray:
    """The midpoints of ``n`` equal strata of [MIN_S, MAX_S], in shuffled
    order: every seed covers the range the same way, so latency
    percentiles do not move with the seed."""
    return rng.permutation(MIN_S + (MAX_S - MIN_S) * (np.arange(n) + 0.5) / n)


def enroll_cold(work: str, seed: int, tiny: bool) -> None:
    """Utterances of 2 s to 20 s and an untrained toy-config checkpoint."""
    p = paths(work)
    rng = np.random.default_rng(seed)
    n = 3 if tiny else 24
    durations = enroll_durations(rng, n)
    if tiny:
        durations = np.round(durations / 5.0, 3)
    entries, seconds = [], {}
    for i, duration in enumerate(durations):
        # One single-utterance corpus per clip: synth_corpus draws a fresh
        # harmonic speaker for each and renders the exact duration.
        sub = synth_corpus(os.path.join(p["corpus"], "u%03d" % i),
                           n_speakers=1, utts_per_speaker=1,
                           duration=float(duration),
                           seed=int(rng.integers(2 ** 31)),
                           n_pairs_per_class=0)
        utt_id = "utt%03d" % i
        entries.append((utt_id, "spk%02d" % (i % ENROLL_SPEAKERS),
                        sub.manifest.entries[0][2]))
        seconds[utt_id] = float(duration)
    manifest.save_manifest(manifest.Manifest(entries=entries), p["manifest"])
    with open(p["durations"], "w", encoding="utf-8") as fh:
        json.dump(seconds, fh)
    config = model.ModelConfig(n_speakers=ENROLL_SPEAKERS, **TOY_MODEL)
    net = model.init_model(config, seed=seed)
    checkpoint.save_checkpoint(checkpoint.Checkpoint(
        config=config,
        params={name: value.data for name, value in net.params.items()},
        opt=optim.AdamState(), step=0, seed=seed), p["model"])


def score_large(work: str, seed: int, tiny: bool) -> None:
    """Clustered embeddings and a half-target trial list."""
    p = paths(work)
    rng = np.random.default_rng(seed)
    n_spk, n_utt, n_trials = ((5, 200, 1000) if tiny else
                              (SCORE_SPEAKERS, SCORE_UTTS, SCORE_TRIALS))
    centroids = rng.normal(size=(n_spk, SCORE_DIM))
    speaker = np.sort(rng.permutation(np.arange(n_utt) % n_spk))
    vectors = (centroids[speaker] + SCORE_NOISE
               * rng.normal(size=(n_utt, SCORE_DIM))).astype(np.float32)
    ids = ["spk%02d-utt%05d" % (s, i) for i, s in enumerate(speaker)]
    checkpoint.write_records(p["embeddings"], dict(zip(ids, vectors)))
    members = [np.flatnonzero(speaker == s) for s in range(n_spk)]
    trials = []
    for k in range(n_trials):
        if k % 2 == 0:
            a, b = rng.choice(members[rng.integers(n_spk)], size=2,
                              replace=False)
            label = 1
        else:
            sa, sb = rng.choice(n_spk, size=2, replace=False)
            a, b = rng.choice(members[sa]), rng.choice(members[sb])
            label = 0
        trials.append(verification.Trial(label, ids[a], ids[b]))
    verification.save_trials(trials, p["trials"])


GENERATORS = {"train_toy": train_toy, "enroll_cold": enroll_cold,
              "score_large": score_large}


def generate(workload: str, work: str, seed: int, tiny: bool) -> None:
    os.makedirs(work, exist_ok=True)
    GENERATORS[workload](work, seed, tiny)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("work_dir")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.work_dir, args.seed, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
