"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is rendered from these tables
(``benchmark_json``); the smoke test checks that the two agree.

Three sets of metrics exist:

* ``END_TO_END``: the figures compared between commits. Every workload
  reports each of them (untraced run). An "op" is one training step
  (train_toy), one enrolled utterance (enroll_cold) or one score-then-eval
  cycle over the whole trial list (score_large).
* ``REPORT``: the workload-specific end-to-end figures, under the names
  users of each workload think in. The runner prints them, with units, in
  every untraced run; the ``END_TO_END`` figures are derived from them.
* ``PER_LAYER``: figures of single ``saep`` modules from the traced run.
  ``_ms`` figures are milliseconds per timed op for calls made during ops
  plus milliseconds per set-up repetition for calls made during set-up;
  counts are normalised the same way. They are inclusive times (a call's
  whole duration), except the ``tensor.*`` ops, which are leaves, and
  ``tensor.backward_sweep_ms`` and ``verification.compute_eer_ms``, which
  are self times. ``moves`` names the end-to-end figure (a ``REPORT`` name)
  and workload each layer figure should move when its layer gets faster.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    ("train_toy",
     "toy-config training steps with periodic checkpoints: tensor fwd/bwd, "
     "model, optim, train, checkpoint writes; skips the audio front end and "
     "verification"),
    ("enroll_cold",
     "2-20 s utterances enrolled with an empty feature cache: audio, "
     "features, cache writes and quadratic no-grad attention; skips "
     "backward, optim and verification"),
    ("score_large",
     "VoxCeleb1-sized trial list (37,720 trials, 4,874 embeddings): record "
     "reading and verification scoring and EER only; no numeric layer"),
]

# Long enough that a run spans several of the multi-second phases in which
# a shared machine runs faster or slower, and holds a dozen score_large
# cycles.
RUN_SECONDS = 35

# name, unit, better, bound (share of the parent's median). On a shared
# 2-core machine the speed of the CPU drifts with the load of other
# tenants, for all three workloads at once: a pure-Python loop that fits in
# L1 reads 1.17-1.82 ms across 3 s windows, with no steal time, and ten
# runs of one workload spread by 0.03-0.25 of their median whichever
# percentile (10th to 90th) or mean of the ops is taken. So the timing
# bounds are the widest allowed. With one caller in a closed loop,
# throughput is the inverse of the mean op time and is not compared again;
# the workloads' own throughputs are printed in every report. Memory does
# not drift.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Workload-specific names for the same figures: (name, unit).
REPORT: Dict[str, List[Tuple[str, str]]] = {
    "train_toy": [
        ("setup_s", "s"), ("train_steps_per_s", "1/s"),
        ("train_step_p50_ms", "ms"), ("train_step_p90_ms", "ms"),
        ("peak_rss_mb", "MB"), ("ops_failed_ratio", "ratio"),
    ],
    "enroll_cold": [
        ("setup_s", "s"), ("enroll_x_realtime", "s/s"),
        ("enroll_utt_p50_ms", "ms"), ("enroll_utt_p90_ms", "ms"),
        ("peak_rss_mb", "MB"), ("ops_failed_ratio", "ratio"),
    ],
    "score_large": [
        ("setup_s", "s"), ("score_trials_per_s", "1/s"),
        ("eval_trials_per_s", "1/s"), ("peak_rss_mb", "MB"),
        ("ops_failed_ratio", "ratio"),
    ],
}

TENSOR_OPS = ["matmul", "softmax_rows", "layer_norm", "dropout", "add", "sub",
              "mul", "relu", "transpose", "reshape", "l2_normalize",
              "cross_entropy"]

_STEP = ["train_step_p50_ms@train_toy", "enroll_x_realtime@enroll_cold"]
_MODEL = ["train_step_p50_ms@train_toy", "enroll_utt_p90_ms@enroll_cold"]
_TRAIN = ["train_steps_per_s@train_toy"]
_CKPT = ["train_step_p90_ms@train_toy", "setup_s@enroll_cold",
         "setup_s@score_large"]
_CACHE = ["setup_s@train_toy", "enroll_x_realtime@enroll_cold"]
_FRONT = ["enroll_x_realtime@enroll_cold", "enroll_utt_p50_ms@enroll_cold"]
_SETUP = ["setup_s@train_toy"]
_VERIF = ["score_trials_per_s@score_large", "eval_trials_per_s@score_large"]
_TRACE = ["train_step_p50_ms@train_toy"]


def _per_layer() -> List[Tuple[str, str, str, List[str]]]:
    rows = []
    for op in TENSOR_OPS:
        rows += [("tensor.%s.fwd_ms" % op, "ms", "lower", _STEP),
                 ("tensor.%s.bwd_ms" % op, "ms", "lower", _STEP),
                 ("tensor.%s.calls" % op, "count", "lower", _STEP),
                 ("tensor.%s.out_bytes" % op, "bytes", "lower", _STEP)]
    rows.append(("tensor.backward_sweep_ms", "ms", "lower", _STEP))
    for name in ("forward_loss", "encoder_block", "scaled_dot_attention",
                 "position_ffn", "attention_pool", "classifier_features",
                 "am_softmax_loss", "extract_embedding", "head_forward"):
        rows.append(("model.%s_ms" % name, "ms", "lower", _MODEL))
    rows += [("optim.adam_step_ms", "ms", "lower", _TRAIN),
             ("train.make_batch_ms", "ms", "lower", _TRAIN),
             ("features.chunk_ms", "ms", "lower", _TRAIN)]
    rows += [("checkpoint.save_checkpoint_ms", "ms", "lower", _CKPT),
             ("checkpoint.bytes_written", "bytes", "lower", _CKPT),
             ("checkpoint.write_records_ms", "ms", "lower", _CKPT),
             ("checkpoint.read_records_ms", "ms", "lower", _CKPT),
             ("checkpoint.load_checkpoint_ms", "ms", "lower", _CKPT)]
    rows += [("cache.save_feature_cache_ms", "ms", "lower", _CACHE),
             ("cache.load_feature_cache_ms", "ms", "lower", _CACHE),
             ("cache.files_read", "count", "lower", _CACHE),
             ("cache.files_written", "count", "lower", _CACHE),
             ("cache.hit_ratio", "ratio", "higher", _CACHE)]
    rows += [("audio.load_audio_ms", "ms", "lower", _FRONT),
             ("audio.bytes_read", "bytes", "lower", _FRONT),
             ("features.mfcc_ms", "ms", "lower", _FRONT),
             ("features.append_deltas_ms", "ms", "lower", _FRONT),
             ("features.cmvn_ms", "ms", "lower", _FRONT),
             ("features.frames", "count", "lower", _FRONT)]
    rows.append(("manifest.load_manifest_ms", "ms", "lower", _SETUP))
    for name in ("score_trials", "save_scores", "load_scores", "load_trials",
                 "det_points", "compute_eer"):
        rows.append(("verification.%s_ms" % name, "ms", "lower", _VERIF))
    # Traced op p50 minus the untraced op p50 of the same run, and the share
    # of traced op time spent inside non-model layer calls.
    rows += [("trace.overhead_ms", "ms", "lower", _TRACE),
             ("trace.coverage", "ratio", "higher", _TRACE)]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }

