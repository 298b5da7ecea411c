"""Command line front end for the full pipeline.

Subcommands: synth, train, extract, score, eval, count-params. Each
subcommand imports what it needs, so that ``train`` can pin BLAS to its
workers' share of the CPUs before numpy loads; the others keep the
library's BLAS threads.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saep",
        description="Self-attention speaker embeddings: synthesize a toy "
                    "corpus, train, extract embeddings, score trials, and "
                    "compute EER.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic harmonic corpus")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--n-speakers", type=int, default=10,
                   help="number of synthetic speakers (default 10)")
    p.add_argument("--utts-per-speaker", type=int, default=20,
                   help="utterances per speaker (default 20)")
    p.add_argument("--duration", type=float, default=3.0,
                   help="utterance length in seconds (default 3.0)")
    p.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    p.add_argument("--trial-pairs", type=int, default=500,
                   help="target and nontarget pairs each (default 500)")

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--config", default=None,
                   help="key=value run config file (defaults apply if omitted)")
    p.add_argument("--manifest", required=True, help="training manifest")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--loss-log", default=None,
                   help="CSV loss trace path (step,loss)")
    p.add_argument("--steps", type=int, default=None,
                   help="override the configured step count")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed")
    p.add_argument("--resume", default=None,
                   help="checkpoint to resume from")
    p.add_argument("--feature-cache", default=None,
                   help="directory for cached features")

    p = sub.add_parser("extract", help="extract one embedding per utterance")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="embedding archive path")
    p.add_argument("--feature-cache", default=None)
    p.add_argument("--permute-check", action="store_true",
                   help="verify frame-permutation invariance per utterance")

    p = sub.add_parser("score", help="cosine-score a trial list")
    p.add_argument("--embeddings", required=True, help="embedding archive")
    p.add_argument("--trials", required=True, help="trial list file")
    p.add_argument("--out", required=True, help="score file path")

    p = sub.add_parser("eval",
                       help="compute EER and minDCF from a score file")
    p.add_argument("--scores", required=True)

    p = sub.add_parser("count-params", help="parameter count breakdown")
    p.add_argument("--config", default=None,
                   help="key=value run config file (defaults if omitted)")
    p.add_argument("--n-speakers", type=int, default=1000,
                   help="output-layer width used for the 'all' total "
                        "(default 1000)")
    return parser


def _cmd_synth(args) -> int:
    from .synth import synth_corpus
    corpus = synth_corpus(args.out_dir, n_speakers=args.n_speakers,
                          utts_per_speaker=args.utts_per_speaker,
                          duration=args.duration, seed=args.seed,
                          n_pairs_per_class=args.trial_pairs)
    print("wrote %d utterances, manifest %s, %d trials %s"
          % (len(corpus.manifest), corpus.manifest_path,
             len(corpus.trials), corpus.trials_path))
    return 0


_LOSS_LOG_HEADER = "step,loss"


def _loss_log_through(path, step: int) -> str:
    """The header and the rows up to ``step`` of the loss log at ``path``,
    as they stand in the file; only the header if there is no file."""
    from .records import text_lines
    try:
        lines = [line.rstrip("\n") for _, line in text_lines(path)]
    except FileNotFoundError:
        lines = [_LOSS_LOG_HEADER]
    if lines[:1] != [_LOSS_LOG_HEADER]:
        raise ValueError("%s:1: expected the header %r"
                         % (path, _LOSS_LOG_HEADER))
    kept = lines[:1]
    for number, line in enumerate(lines[1:], 2):
        row_step, _, loss = line.partition(",")
        try:
            row_step, _ = int(row_step), float(loss)
        except ValueError:
            raise ValueError("%s:%d: expected a row <step>,<loss>, got %r"
                             % (path, number, line)) from None
        if row_step <= step:
            kept.append(line)
    return "".join(line + "\n" for line in kept)


def _cmd_train(args) -> int:
    if "numpy" not in sys.modules:
        # BLAS reads these when numpy loads: an equal share of this
        # process's CPUs for each of the 2 (train.MICRO_BATCHES) workers.
        share = str(max(1, len(os.sched_getaffinity(0)) // 2))
        os.environ.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            share))
    from .cache import features_for_manifest
    from .checkpoint import load_checkpoint, model_from_checkpoint, \
        speaker_fingerprint
    from .config import load_run_config
    from .manifest import load_manifest
    from .model import init_model
    from .train import check_resume_step, train

    manifest = load_manifest(args.manifest)
    ckpt = None if args.resume is None else load_checkpoint(args.resume)
    model_config, train_config, opt = load_run_config(
        args.config, manifest.n_speakers, steps=args.steps, seed=args.seed,
        resume=ckpt)
    if ckpt is not None:
        check_resume_step(ckpt.step, train_config)
        if ckpt.config.n_speakers != manifest.n_speakers:
            raise ValueError(
                "checkpoint %s has %d speakers but manifest %s has %d"
                % (args.resume, ckpt.config.n_speakers, args.manifest,
                   manifest.n_speakers))
        if ckpt.speakers not in (None,
                                 speaker_fingerprint(manifest.label_map)):
            raise ValueError(
                "checkpoint %s was trained on other speaker names than "
                "manifest %s has" % (args.resume, args.manifest))
        model = model_from_checkpoint(ckpt)
    else:
        model = init_model(model_config, seed=train_config.seed)
    kept = _LOSS_LOG_HEADER + "\n"
    if ckpt is not None and args.loss_log:
        # A resumed run keeps the rows of the steps its checkpoint holds.
        kept = _loss_log_through(args.loss_log, ckpt.step)
    # Line-buffered, so each row is in the file as its step ends.
    with open(args.loss_log or os.devnull, "w", buffering=1,
              encoding="utf-8") as loss_log:
        loss_log.write(kept)
        features = features_for_manifest(manifest, args.feature_cache)

        def log(step, loss):
            loss_log.write("%d,%.6f\n" % (step, loss))
            if step % 50 == 0 or step == 1:
                print("step %d loss %.4f" % (step, loss), flush=True)

        train(manifest, features, model, train_config, opt=opt,
              checkpoint_path=args.out, log=log)
    print("wrote checkpoint %s" % args.out)
    return 0


def _cmd_extract(args) -> int:
    import numpy as np

    from .cache import features_for_manifest
    from .checkpoint import load_checkpoint, model_from_checkpoint
    from .features import FeatureSequence
    from .manifest import load_manifest
    from .records import write_records

    manifest = load_manifest(args.manifest)
    model = model_from_checkpoint(load_checkpoint(args.checkpoint))
    features = features_for_manifest(manifest, args.feature_cache)
    records = {}
    rng = np.random.default_rng(0)
    for utt_id, _, _ in manifest.entries:
        feats = features[utt_id]
        emb = model.extract_embedding(feats)
        if args.permute_check:
            perm = rng.permutation(feats.frames.shape[0])
            emb_p = model.extract_embedding(
                FeatureSequence(feats.frames[perm], utt_id))
            worst = float(np.abs(emb.vector - emb_p.vector).max())
            if worst > 1e-5:
                print("permute-check failed for %s: max deviation %.3g"
                      % (utt_id, worst), file=sys.stderr)
                return 1
        records[utt_id] = emb.vector
    write_records(args.out, records)
    print("wrote %d embeddings to %s" % (len(records), args.out))
    return 0


def _cmd_score(args) -> int:
    from .records import read_records
    from .verification import SpeakerEmbedding, load_trials, save_scores, \
        score_trials

    trials = load_trials(args.trials)
    embeddings = {name: SpeakerEmbedding(vector=arr, utterance_id=name)
                  for name, arr in read_records(args.embeddings).items()}
    scored = score_trials(trials, embeddings)
    save_scores(scored, args.out)
    print("wrote %d scores to %s" % (len(scored), args.out))
    return 0


def _cmd_eval(args) -> int:
    from .verification import evaluate, load_scores
    eer, threshold, min_dcf = evaluate(load_scores(args.scores))
    print("EER=%.2f%% threshold=%.6f minDCF=%.4f"
          % (100.0 * eer, threshold, min_dcf))
    return 0


def _cmd_count_params(args) -> int:
    from .config import load_run_config
    from .model import count_params, param_breakdown
    model_config, _, _ = load_run_config(args.config, args.n_speakers)
    breakdown = param_breakdown(model_config)
    print("component        parameters")
    for component in ("encoder", "pooling", "head", "output"):
        print("%-16s %10d" % (component, breakdown[component]))
    for convention in ("all", "excluding-output", "embedding-extractor"):
        print("total (%s): %d" % (convention,
                                  count_params(model_config, convention)))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "count-params": _cmd_count_params,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
    except MemoryError as exc:
        print("error: out of memory: %s" % exc, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
