"""Cosine trial scoring, equal error rate and minimum detection cost."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .records import atomic_write, text_lines

__all__ = ["SpeakerEmbedding", "Trial", "ScoredTrial", "TrialListError",
           "ZeroNormError", "NonFiniteError", "score_trials", "compute_eer",
           "evaluate", "load_trials", "save_trials", "load_scores",
           "save_scores"]

# Rows gathered per block: two float64 blocks of 512 x 400 take 3.2 MB.
_CHUNK = 512
# minDCF operating point: target prior, with C_miss = C_fa = 1.
P_TARGET = 0.01


class TrialListError(ValueError):
    """Malformed trial list or score file, or an unresolvable id."""


class ZeroNormError(ValueError):
    """Cosine scoring is undefined for a zero-norm embedding."""


class NonFiniteError(ValueError):
    """Cosine scoring is undefined for an embedding with a NaN or infinite
    value."""


@dataclass
class SpeakerEmbedding:
    vector: np.ndarray  # embed_dim float32
    utterance_id: str


@dataclass(slots=True)
class Trial:
    label: int  # 1 = target (same speaker), 0 = nontarget
    enroll_id: str
    test_id: str


@dataclass(slots=True)
class ScoredTrial:
    score: float
    label: int
    enroll_id: str
    test_id: str


def _dots(vectors: List[np.ndarray], widths: np.ndarray, left: np.ndarray,
          right: np.ndarray) -> np.ndarray:
    """Float64 dot of ``vectors[left[k]]`` and ``vectors[right[k]]`` for
    every k, where both have width ``widths[left[k]]``. Each width's pairs
    are taken in place, ``_CHUNK`` at a time, each side gathered and upcast
    into one of two blocks allocated once per width."""
    width = widths[left]
    dots = np.empty(len(left))
    for w in np.unique(width).tolist():
        pairs = np.flatnonzero(width == w)
        blocks = np.empty(_CHUNK * w), np.empty(_CHUNK * w)
        for s in range(0, len(pairs), _CHUNK):
            k = pairs[s:s + _CHUNK]
            a, b = (np.concatenate([vectors[c] for c in side[k].tolist()],
                                   out=block[:len(k) * w]).reshape(len(k), w)
                    for side, block in zip((left, right), blocks))
            dots[k] = np.einsum("ij,ij->i", a, b)
    return dots


def _raise_fault(embeddings, ids, vectors, norms, a: int, b: int) -> None:
    """Raise the first fault of the pair (a, b), in pair-by-pair order."""
    for c in (a, b):
        if embeddings[c] is None:
            raise TrialListError("no embedding for utterance %r" % ids[c])
    if vectors[a].ndim != 1 or vectors[a].shape != vectors[b].shape:
        raise ValueError("embeddings %r and %r must be vectors of one width, "
                         "got shapes %s and %s"
                         % (embeddings[a].utterance_id,
                            embeddings[b].utterance_id,
                            vectors[a].shape, vectors[b].shape))
    for c in (a, b):
        if norms[c] == 0.0:
            raise ZeroNormError("embedding %r has zero norm"
                                % embeddings[c].utterance_id)
        if not np.isfinite(norms[c]):
            raise NonFiniteError("embedding %r is not finite (its norm is "
                                 "%s)" % (embeddings[c].utterance_id,
                                          norms[c]))


def score_trials(trials: List[Trial],
                 embeddings: Dict[str, SpeakerEmbedding]) -> List[ScoredTrial]:
    """Float64 cosine of each trial's enroll and test embeddings. The first
    faulty trial raises what a trial-by-trial check would raise first: a
    missing id (enroll before test), a non-vector or width mismatch, then a
    zero or non-finite norm (enroll before test)."""
    enroll = [t.enroll_id for t in trials]
    test = [t.test_id for t in trials]
    column: Dict[str, int] = {}  # trial id -> index into the column lists

    def resolve(ids: List[str]) -> np.ndarray:
        return np.fromiter((column.setdefault(utt_id, len(column))
                            for utt_id in ids), np.intp, len(ids))

    left, right = resolve(enroll), resolve(test)
    ids = list(column)
    found = [embeddings.get(utt_id) for utt_id in ids]
    vectors = [np.asarray(e.vector) if e is not None else np.empty((0, 0))
               for e in found]
    # A missing id or non-vector gets width -1 and a NaN norm, so every
    # trial that uses one is flagged below.
    widths = np.array([v.shape[0] if v.ndim == 1 else -1 for v in vectors],
                      dtype=np.intp)
    columns = np.flatnonzero(widths >= 0)
    norms = np.full(len(vectors), np.nan)
    norms[columns] = np.sqrt(_dots(vectors, widths, columns, columns))
    bad = ~np.isfinite(norms) | (norms == 0.0)
    fault = (widths[left] != widths[right]) | bad[left] | bad[right]
    if fault.any():
        k = int(np.argmax(fault))
        _raise_fault(found, ids, vectors, norms, left[k], right[k])
    scores = _dots(vectors, widths, left, right) / (norms[left] * norms[right])
    return list(map(ScoredTrial, scores.tolist(),
                    [t.label for t in trials], enroll, test))


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


def _eer(t: np.ndarray, far: np.ndarray,
         frr: np.ndarray) -> Tuple[float, float]:
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


def compute_eer(scores: List[ScoredTrial]) -> Tuple[float, float]:
    """Equal error rate and its threshold, by linear interpolation between
    the adjacent operating points where FAR - FRR changes sign."""
    return _eer(*_det(scores))


def evaluate(scores: List[ScoredTrial]) -> Tuple[float, float, float]:
    """EER, its threshold and minDCF, from one set of operating points.

    minDCF is the least detection cost P_TARGET·FRR + (1 − P_TARGET)·FAR
    (C_miss = C_fa = 1) over the operating points, divided by
    min(P_TARGET, 1 − P_TARGET), the cost of the better fixed decision."""
    t, far, frr = _det(scores)
    cost = P_TARGET * frr + (1.0 - P_TARGET) * far
    min_dcf = float(cost.min()) / min(P_TARGET, 1.0 - P_TARGET)
    return (*_eer(t, far, frr), min_dcf)


# -- text formats ----------------------------------------------------------

def _read_rows(path, n_fields: int, usage: str,
               what: str) -> Iterator[Tuple[int, List[str]]]:
    """Yield (line number, fields) for each non-blank line of a text file of
    ``n_fields`` whitespace-separated fields ending in
    ``<0|1> <enroll_id> <test_id>``."""
    empty = True
    for lineno, line in text_lines(path, TrialListError):
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
    return [Trial(int(label), enroll_id, test_id)
            for _, (label, enroll_id, test_id) in _read_rows(
                path, 3, "<0|1> <enroll_id> <test_id>", "trial list")]


def save_trials(trials: List[Trial], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for t in trials:
            fh.write("%d %s %s\n" % (t.label, t.enroll_id, t.test_id))


def save_scores(scores: List[ScoredTrial], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
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
        scores.append(ScoredTrial(value, int(label), enroll_id, test_id))
    return scores
