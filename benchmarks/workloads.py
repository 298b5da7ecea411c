"""The three closed-loop workloads: set-up, timed ops, correctness checks.

One caller in one process sends the next op once the previous one has
returned. The program is driven only through the public functions of its
modules. Set-up is repeated and timed on its own, so work moved into
set-up shows; checks run after the timed region.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from saep import (cache, checkpoint, manifest, model, tensor, train,
                  verification)
from saep.features import FeatureSequence

import checks
import inputs
from tracing import FLUSH_ROOT, OP_ROOT, SETUP_ROOT, Tracer

# About 1.5 s of set-up per run, so the median set-up spans more than one
# of the few-second phases in which a shared machine runs faster or slower.
SETUP_REPS = {"train_toy": 100, "enroll_cold": 250, "score_large": 12}
# Utterances whose embeddings are re-checked with shuffled frames.
PERMUTATION_SAMPLE = 3


@dataclass
class Context:
    work: str
    seed: int
    seconds: float
    tiny: bool
    tracer: Optional[Tracer]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float]
    op_ms: List[float]          # untraced ops after warm-up
    traced_op_ms: List[float]   # traced ops; empty in an untraced run
    attempted: int
    failed: int
    peak_rss_mb: float
    report: Dict[str, float]
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def end_to_end(self) -> Dict[str, float]:
        """The figures compared between commits (``metrics.END_TO_END``)."""
        return {
            "setup_s": percentile(self.setup_s, 50),
            "op_p50_ms": percentile(self.op_ms, 50),
            "op_p90_ms": percentile(self.op_ms, 90),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _blocks(ctx: Context, block: Callable[[int, "OpTimer"], None]):
    """Run ``block(index, timer)`` once untimed to warm up, then again until
    ``ctx.seconds`` have passed. In a traced run, odd blocks are traced and
    even ones are not, so both kinds run under the same conditions; their
    op times give the tracing overhead. Returns the timers by traced-ness."""
    timers = {False: OpTimer(), True: OpTimer(ctx.tracer)}
    block(0, OpTimer())
    start = time.perf_counter()
    index = 1
    while True:
        traced = ctx.tracer is not None and index % 2 == 1
        if traced:
            ctx.tracer.install()
        try:
            block(index, timers[traced])
        finally:
            if traced:
                ctx.tracer.uninstall()
        index += 1
        if (time.perf_counter() - start >= ctx.seconds
                and (ctx.tracer is None or index > 2)):
            return timers


class OpTimer:
    """Times closed-loop ops; with a tracer, each op is also a root span."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.ms: List[float] = []
        self._sid = -1
        self._t0 = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self._sid = self.tracer.begin(OP_ROOT)
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        elapsed = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._sid)
        self.ms.append(elapsed * 1e3)


class Failures:
    """Counts failed ops; prints the first traceback to stderr."""

    def __init__(self):
        self.count = 0

    def record(self, what: str) -> None:
        if self.count == 0:
            print("op failed: %s" % what, file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.count += 1


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat_setup(ctx: Context, reps: int, fn: Callable):
    """Run ``fn`` ``reps`` times, timing each; returns the times and the
    last result. A traced run traces every repetition."""
    tracer = ctx.tracer
    times, out = [], None
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(reps):
            sid = tracer.begin(SETUP_ROOT) if tracer is not None else -1
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(sid)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, out


def _run_checks(named: List[Tuple[str, Callable[[], None]]]):
    results = []
    for name, fn in named:
        try:
            fn()
            results.append((name, True, ""))
        except checks.CheckFailed as exc:
            results.append((name, False, str(exc)))
    return results


def _params(net) -> Dict[str, np.ndarray]:
    return {name: value.data for name, value in net.params.items()}


# -- train_toy --------------------------------------------------------------

class _TimeUp(Exception):
    """Raised from the step callback to end the timed loop."""


def train_toy(ctx: Context) -> Outcome:
    p = inputs.paths(ctx.work)
    batch_size, every = (4, 2) if ctx.tiny else (32, 5)

    def setup():
        corpus = manifest.load_manifest(p["manifest"])
        feats = cache.features_for_manifest(corpus, p["cache"])
        config = model.ModelConfig(n_speakers=corpus.n_speakers,
                                   **inputs.TOY_MODEL)
        return corpus, feats, model.init_model(config, seed=ctx.seed)

    setup_s, (corpus, feats, net) = _repeat_setup(
        ctx, SETUP_REPS["train_toy"], setup)

    ckpt_path = os.path.join(ctx.work, "train.ckpt")
    config = train.TrainConfig(steps=10 ** 9, batch_size=batch_size,
                               seed=ctx.seed, checkpoint_every=every)
    # Steps run in blocks of ``every``, each ending with a periodic
    # checkpoint whose write lands in the next block's first step. The
    # first block warms up untimed; in a traced run, blocks then alternate
    # between traced and untraced (see ``_blocks``).
    timers = {False: OpTimer(), True: OpTimer(ctx.tracer)}
    losses: List[float] = []
    state = {"timer": OpTimer(), "traced": False, "start": None,
             "stop_at": None, "snapshot": None}

    def log(step: int, loss: float) -> None:
        state["timer"].stop()
        losses.append(loss)
        if step == state["stop_at"]:
            raise _TimeUp
        if step % every == 0:
            now = time.perf_counter()
            if state["start"] is None:
                state["start"] = now
            elif now - state["start"] >= ctx.seconds and (
                    ctx.tracer is None or step >= 3 * every):
                # Stop after one more step, which carries this save.
                state["snapshot"] = {k: v.copy()
                                     for k, v in _params(net).items()}
                state["stop_at"] = step + 1
            traced = ctx.tracer is not None and (step // every) % 2 == 1
            if traced != state["traced"]:
                if traced:
                    ctx.tracer.install()
                else:
                    ctx.tracer.uninstall()
                state["traced"] = traced
            state["timer"] = timers[traced]
        state["timer"].start()

    failures = Failures()
    state["timer"].start()
    try:
        train.train(corpus, feats, net, config, checkpoint_path=ckpt_path,
                    log=log)
    except _TimeUp:
        pass
    except Exception:  # the step that raised counts as a failed op
        failures.record("training step %d" % (len(losses) + 1))
    finally:
        if ctx.tracer is not None:
            while ctx.tracer.stack:
                ctx.tracer.end(ctx.tracer.stack[-1])
            ctx.tracer.uninstall()
    peak = _peak_rss_mb()

    last = state["stop_at"]

    def float64_reference():
        rng = np.random.default_rng((ctx.seed, 1))
        batch, labels = train.make_batch(corpus, feats, batch_size, rng)
        with tensor.compute_dtype(np.float64):
            ref = model.init_model(net.config, seed=ctx.seed)
            want = ref.forward_loss(batch, labels, train=True, rng=rng).item()
        checks.close("step-1 loss vs float64 evaluation", losses[0], want)

    def checkpoint_reload():
        checks.require(last is not None, "no periodic checkpoint was taken")
        ck = checkpoint.load_checkpoint(ckpt_path)
        checks.require(ck.step == last - 1, "checkpoint is at step %d, "
                       "expected %d" % (ck.step, last - 1))
        checks.params_equal("reloaded checkpoint", ck.params,
                            state["snapshot"])

    def last_step_reference():
        # Recompute the final step from the last checkpoint: the same batch
        # and dropout masks (each step's RNG is derived from (seed, step)),
        # the program's gradients, and an independent float64 Adam update.
        ck = checkpoint.load_checkpoint(ckpt_path)
        replay = checkpoint.model_from_checkpoint(ck)
        rng = np.random.default_rng((ctx.seed, last))
        batch, labels = train.make_batch(corpus, feats, batch_size, rng)
        loss = replay.forward_loss(batch, labels, train=True, rng=rng)
        checks.close("final loss vs recomputation from the checkpoint",
                     losses[-1], loss.item(), rtol=1e-5)
        loss.backward()
        want = checks.adam_reference(
            ck.params, {n: v.grad for n, v in replay.params.items()}, ck.opt)
        for name, value in _params(net).items():
            # 1e-6 is 1% of the learning rate, far above float32 rounding
            # of the parameters.
            checks.close("final %s vs float64 Adam step" % name, value,
                         want[name], rtol=0.0, atol=1e-6)

    named = [("train_completed", lambda: checks.require(
                 failures.count == 0 and last is not None,
                 "training stopped before its timed loop ended")),
             ("losses_finite", lambda: checks.losses_finite(losses))]
    if failures.count == 0 and last is not None:
        named += [("loss_matches_float64_reference", float64_reference),
                  ("last_checkpoint_reloads_equal", checkpoint_reload),
                  ("last_step_matches_reference", last_step_reference)]

    step_ms = timers[False].ms
    busy = sum(step_ms) / 1e3
    report = {
        "train_steps_per_s": len(step_ms) / busy if busy else 0.0,
        "train_step_p50_ms": percentile(step_ms, 50),
        "train_step_p90_ms": percentile(step_ms, 90),
        "final_loss": losses[-1] if losses else float("nan"),
    }
    return Outcome(
        setup_s=setup_s, op_ms=step_ms, traced_op_ms=timers[True].ms,
        attempted=len(losses) + failures.count, failed=failures.count,
        peak_rss_mb=peak, report=report,
        checks=_run_checks(named))


# -- enroll_cold ------------------------------------------------------------

def enroll_cold(ctx: Context) -> Outcome:
    p = inputs.paths(ctx.work)
    # The benchmark's own list of clips; reading it is not program set-up.
    corpus = manifest.load_manifest(p["manifest"])
    with open(p["durations"], encoding="utf-8") as fh:
        audio_s = json.load(fh)

    def setup():
        return checkpoint.model_from_checkpoint(
            checkpoint.load_checkpoint(p["model"]))

    setup_s, net = _repeat_setup(ctx, SETUP_REPS["enroll_cold"], setup)
    archive = os.path.join(ctx.work, "embeddings.bin")
    failures = Failures()

    def one_pass(index: int, timer: OpTimer):
        """Enroll every clip into a new, empty cache directory, then write
        the embedding archive."""
        cache_dir = os.path.join(ctx.work, "cache", "pass%04d" % index)
        feats_of, vectors = {}, {}
        t0 = time.perf_counter()
        for entry in corpus.entries:
            utt_id = entry[0]
            timer.start()
            try:
                fs = cache.features_for_manifest(
                    manifest.Manifest(entries=[entry]), cache_dir)[utt_id]
                vectors[utt_id] = net.extract_embedding(fs).vector
                feats_of[utt_id] = fs.frames
            except Exception:
                failures.record("enrolling %s" % utt_id)
            finally:
                timer.stop()
        sid = timer.tracer.begin(FLUSH_ROOT) if timer.tracer else -1
        try:
            checkpoint.write_records(archive, vectors)
        except Exception:
            failures.record("writing the embedding archive")
        if timer.tracer is not None:
            timer.tracer.end(sid)
        return {"wall_s": time.perf_counter() - t0,
                "audio_s": sum(audio_s[u] for u in vectors),
                "feats": feats_of, "vectors": vectors, "cache_dir": cache_dir}

    passes = {}

    def block(index: int, timer: OpTimer) -> None:
        passes[index] = one_pass(index, timer)
        passes[index]["traced"] = timer.tracer is not None
        if index > 0:
            # Keep only what the checks need, so neither memory nor disk use
            # grows with the number of passes.
            previous = passes[index - 1]
            shutil.rmtree(previous.pop("cache_dir"), ignore_errors=True)
            previous.pop("feats")
            if index > 1:
                previous.pop("vectors")

    timers = _blocks(ctx, block)
    peak = _peak_rss_mb()
    first, final = passes[0], passes[max(passes)]
    feats_of, vectors = final["feats"], final["vectors"]
    embed_dim = net.config.embed_dim

    def embeddings_well_formed():
        checks.require(sorted(vectors) == sorted(audio_s),
                       "%d of %d clips enrolled" % (len(vectors),
                                                    len(audio_s)))
        for utt_id, vec in vectors.items():
            checks.require(vec.shape == (embed_dim,),
                           "%s: shape %s" % (utt_id, vec.shape))
            checks.require(bool(np.all(np.isfinite(vec))),
                           "%s: non-finite embedding" % utt_id)

    def cache_reloads_equal():
        cache_dir = final["cache_dir"]
        checks.require(bool(os.listdir(cache_dir)), "nothing was cached")
        again = cache.features_for_manifest(
            manifest.Manifest(entries=list(corpus.entries)), cache_dir)
        for utt_id, frames in feats_of.items():
            checks.close("cached features of %s" % utt_id,
                         again[utt_id].frames, frames, rtol=0.0)

    def archive_reloads_equal():
        stored = checkpoint.read_records(archive)
        checks.params_equal("embedding archive", stored, vectors)

    def passes_agree():
        checks.params_equal("first vs last pass", vectors, first["vectors"],
                            rtol=checks.F32_RTOL)

    def permutation_invariance():
        rng = np.random.default_rng(ctx.seed)
        for utt_id, _, _ in corpus.entries[:PERMUTATION_SAMPLE]:
            frames = feats_of[utt_id]
            shuffled = frames[rng.permutation(len(frames))]
            got = net.extract_embedding(FeatureSequence(shuffled, utt_id))
            checks.close("%s with shuffled frames" % utt_id, got.vector,
                         vectors[utt_id], atol=1e-6)

    named = [("embeddings_finite_with_shape", embeddings_well_formed),
             ("cached_features_reload_equal", cache_reloads_equal),
             ("archive_reloads_equal", archive_reloads_equal),
             ("passes_agree", passes_agree),
             ("frame_permutation_invariance", permutation_invariance)]
    outcome_checks = _run_checks(named)

    untraced = [run for run in passes.values()
                if run is not first and not run["traced"]]
    busy = sum(run["wall_s"] for run in untraced)
    audio = sum(run["audio_s"] for run in untraced)
    utt_ms = timers[False].ms
    report = {
        "enroll_x_realtime": audio / busy if busy else 0.0,
        "enroll_utt_p50_ms": percentile(utt_ms, 50),
        "enroll_utt_p90_ms": percentile(utt_ms, 90),
        "passes": len(untraced),
    }
    return Outcome(
        setup_s=setup_s, op_ms=utt_ms, traced_op_ms=timers[True].ms,
        attempted=len(passes) * len(corpus.entries), failed=failures.count,
        peak_rss_mb=peak, report=report,
        checks=outcome_checks)


# -- score_large ------------------------------------------------------------

def score_large(ctx: Context) -> Outcome:
    p = inputs.paths(ctx.work)

    def setup():
        records = checkpoint.read_records(p["embeddings"])
        embeddings = {name: model.SpeakerEmbedding(vector=vec,
                                                   utterance_id=name)
                      for name, vec in records.items()}
        return embeddings, verification.load_trials(p["trials"])

    setup_s, (embeddings, trials) = _repeat_setup(
        ctx, SETUP_REPS["score_large"], setup)
    scores_path = os.path.join(ctx.work, "scores.txt")
    failures = Failures()
    score_ms: List[float] = []
    eval_ms: List[float] = []
    last = {}

    def cycle(index: int, timer: OpTimer) -> None:
        """One scoring pass and one eval pass over the whole trial list."""
        timer.start()
        t0 = time.perf_counter()
        try:
            last["scored"] = verification.score_trials(trials, embeddings)
            verification.save_scores(last["scored"], scores_path)
        except Exception:
            failures.record("scoring pass")
        t1 = time.perf_counter()
        try:
            last["loaded"] = verification.load_scores(scores_path)
            last["eer"] = verification.compute_eer(last["loaded"])
        except Exception:
            failures.record("eval pass")
        t2 = time.perf_counter()
        timer.stop()
        if index > 0 and timer.tracer is None:
            score_ms.append((t1 - t0) * 1e3)
            eval_ms.append((t2 - t1) * 1e3)

    timers = _blocks(ctx, cycle)
    peak = _peak_rss_mb()

    labels = np.asarray([t.label for t in trials])
    vectors = {name: e.vector for name, e in embeddings.items()}
    expected = checks.cosine_reference(vectors,
                                       [t.enroll_id for t in trials],
                                       [t.test_id for t in trials])

    def same_trials(scores):
        checks.require(len(scores) == len(trials), "%d scores for %d trials"
                       % (len(scores), len(trials)))
        checks.require(all(s.label == t.label and s.enroll_id == t.enroll_id
                           and s.test_id == t.test_id
                           for s, t in zip(scores, trials)),
                       "scores are not in trial-list order")

    def scores_match_cosine():
        same_trials(last["scored"])
        checks.close("scores vs float64 matrix cosine",
                     [s.score for s in last["scored"]], expected, rtol=0.0,
                     atol=1e-5)

    def saved_scores_match():
        same_trials(last["loaded"])
        checks.close("saved scores vs float64 matrix cosine",
                     [s.score for s in last["loaded"]], expected, rtol=0.0,
                     atol=1e-5)

    def eer_matches_sort():
        want = checks.eer_reference(
            np.asarray([s.score for s in last["loaded"]]), labels)
        checks.close("EER and threshold vs sort-based reference",
                     last["eer"], want, rtol=0.0, atol=1e-7)

    if failures.count:
        named = [("passes_completed", lambda: checks.require(
            False, "%d passes failed" % failures.count))]
    else:
        named = [("scores_match_matrix_cosine", scores_match_cosine),
                 ("saved_scores_match", saved_scores_match),
                 ("eer_matches_sort_reference", eer_matches_sort)]

    cycles_ms = timers[False].ms
    report = {
        "score_trials_per_s": 1e3 * len(trials) / percentile(score_ms, 50),
        "eval_trials_per_s": 1e3 * len(trials) / percentile(eval_ms, 50),
        "eer": last.get("eer", (float("nan"),))[0],
        "trials": len(trials),
    }
    return Outcome(
        setup_s=setup_s, op_ms=cycles_ms, traced_op_ms=timers[True].ms,
        attempted=2 * (1 + len(cycles_ms) + len(timers[True].ms)),
        failed=failures.count,
        peak_rss_mb=peak, report=report, checks=_run_checks(named))


WORKLOADS = {"train_toy": train_toy, "enroll_cold": enroll_cold,
             "score_large": score_large}
