"""Cosine trial scoring and equal-error-rate computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["SpeakerEmbedding", "Trial", "ScoredTrial", "TrialListError",
           "ZeroNormError", "cosine_score", "score_trials", "compute_eer",
           "det_points", "load_trials", "save_trials", "load_scores",
           "save_scores"]


class TrialListError(ValueError):
    """Malformed trial list or score file, or an unresolvable id."""


class ZeroNormError(ValueError):
    """Cosine scoring is undefined for a zero-norm embedding."""


@dataclass
class SpeakerEmbedding:
    vector: np.ndarray  # embed_dim float32
    utterance_id: str


@dataclass
class Trial:
    label: int  # 1 = target (same speaker), 0 = nontarget
    enroll_id: str
    test_id: str


@dataclass
class ScoredTrial:
    score: float
    label: int
    enroll_id: str
    test_id: str


def _cosine(a: SpeakerEmbedding, b: SpeakerEmbedding,
            norms: Dict[int, float]) -> float:
    """Float64 cosine of two vectors of one width. ``norms`` holds the
    L2 norm of each embedding seen so far, by ``id``, so it must not
    outlive them."""
    va = np.asarray(a.vector, dtype=np.float64)
    vb = np.asarray(b.vector, dtype=np.float64)
    if va.ndim != 1 or va.shape != vb.shape:
        raise ValueError("embeddings %r and %r must be vectors of one width, "
                         "got shapes %s and %s" % (a.utterance_id,
                                                   b.utterance_id,
                                                   va.shape, vb.shape))
    for emb, vector in ((a, va), (b, vb)):
        if id(emb) not in norms:
            norms[id(emb)] = np.linalg.norm(vector)
            if norms[id(emb)] == 0.0:
                raise ZeroNormError("embedding %r has zero norm"
                                    % emb.utterance_id)
    return float(np.dot(va, vb) / (norms[id(a)] * norms[id(b)]))


def cosine_score(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    return _cosine(a, b, {})


def score_trials(trials: List[Trial],
                 embeddings: Dict[str, SpeakerEmbedding]) -> List[ScoredTrial]:
    norms: Dict[int, float] = {}  # each taken once, when first needed
    scored = []
    for trial in trials:
        for utt_id in (trial.enroll_id, trial.test_id):
            if utt_id not in embeddings:
                raise TrialListError("no embedding for utterance %r" % utt_id)
        scored.append(ScoredTrial(
            score=_cosine(embeddings[trial.enroll_id],
                          embeddings[trial.test_id], norms),
            label=trial.label,
            enroll_id=trial.enroll_id,
            test_id=trial.test_id))
    return scored


def _det(scores: List[ScoredTrial]) -> Tuple[np.ndarray, ...]:
    """Thresholds with their FAR and FRR, as arrays: every distinct score
    plus one threshold above the maximum, which closes the staircase at
    (0, 1). Each count is the number of sorted scores below a threshold."""
    values = np.asarray([s.score for s in scores], dtype=np.float64)
    labels = np.asarray([s.label for s in scores])
    targets = np.sort(values[labels == 1])
    nontargets = np.sort(values[labels == 0])
    if len(targets) == 0 or len(nontargets) == 0:
        raise TrialListError("need at least one target and one nontarget "
                             "trial (got %d/%d)"
                             % (len(targets), len(nontargets)))
    thresholds = np.unique(np.concatenate([targets, nontargets]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    n_non, n_tgt = len(nontargets), len(targets)
    far = (n_non - np.searchsorted(nontargets, thresholds, "left")) / n_non
    frr = np.searchsorted(targets, thresholds, "left") / n_tgt
    return thresholds, far, frr


def det_points(scores: List[ScoredTrial]) -> List[Tuple[float, float, float]]:
    """(threshold, FAR, FRR) at every distinct score threshold.

    Decisions accept when score >= threshold, so a nontarget exactly at the
    threshold counts as a false accept and a target below it as a false
    reject. FAR is non-increasing and FRR non-decreasing in the threshold.
    """
    thresholds, far, frr = _det(scores)
    return list(zip(thresholds.tolist(), far.tolist(), frr.tolist()))


def compute_eer(scores: List[ScoredTrial]) -> Tuple[float, float]:
    """Equal error rate and its threshold, by linear interpolation between
    the adjacent operating points where FAR - FRR changes sign."""
    t, far, frr = _det(scores)
    d = far - frr
    cross = d == 0.0
    cross[:-1] |= (d[:-1] > 0.0) & (d[1:] < 0.0)
    # d starts at 1 (every trial accepted) and ends at -1 (every trial
    # rejected), so a crossing always exists.
    i = int(np.flatnonzero(cross)[0])
    if d[i] == 0.0:
        return float(far[i]), float(t[i])
    alpha = d[i] / (d[i] - d[i + 1])
    eer = 0.5 * ((far[i] + alpha * (far[i + 1] - far[i]))
                 + (frr[i] + alpha * (frr[i + 1] - frr[i])))
    return float(eer), float(t[i] + alpha * (t[i + 1] - t[i]))


# -- text formats ----------------------------------------------------------

def _read_rows(path, n_fields: int, usage: str,
               what: str) -> Iterator[Tuple[int, List[str]]]:
    """Yield (line number, fields) for each non-blank line of a text file of
    ``n_fields`` whitespace-separated fields ending in
    ``<0|1> <enroll_id> <test_id>``."""
    empty = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != n_fields or parts[-3] not in ("0", "1"):
                raise TrialListError("%s:%d: expected %r, got %r"
                                     % (path, lineno, usage, line.strip()))
            empty = False
            yield lineno, parts
    if empty:
        raise TrialListError("%s: %s is empty" % (path, what))


def load_trials(path) -> List[Trial]:
    return [Trial(label=int(label), enroll_id=enroll_id, test_id=test_id)
            for _, (label, enroll_id, test_id) in _read_rows(
                path, 3, "<0|1> <enroll_id> <test_id>", "trial list")]


def save_trials(trials: List[Trial], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write("%d %s %s\n" % (t.label, t.enroll_id, t.test_id))


def save_scores(scores: List[ScoredTrial], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in scores:
            fh.write("%.6f %d %s %s\n" % (s.score, s.label,
                                          s.enroll_id, s.test_id))


def load_scores(path) -> List[ScoredTrial]:
    scores = []
    for lineno, (score, label, enroll_id, test_id) in _read_rows(
            path, 4, "<score> <0|1> <enroll_id> <test_id>", "score file"):
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise TrialListError("%s:%d: score must be a finite number, "
                                 "got %r" % (path, lineno, score))
        scores.append(ScoredTrial(score=value, label=int(label),
                                  enroll_id=enroll_id, test_id=test_id))
    return scores
