"""Correctness checks, run after the timed region of each workload.

Each check raises ``CheckFailed`` with a reason. The references here are
written independently of the code under test (matrix-form cosine, a
sort-based EER) or come from the program run another way (float64
arithmetic, a replay from the saved checkpoint).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

# float32 results computed in another summation order, or in float64,
# agree to this relative tolerance.
F32_RTOL = 1e-4


class CheckFailed(AssertionError):
    """A workload produced output that disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def losses_finite(losses: Sequence[float]) -> None:
    bad = [i for i, v in enumerate(losses, 1) if not np.isfinite(v)]
    require(not bad, "non-finite loss at steps %s" % bad[:5])


def close(name: str, got, want, rtol: float = F32_RTOL,
          atol: float = 0.0) -> None:
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    require(got.shape == want.shape,
            "%s: shape %s, expected %s" % (name, got.shape, want.shape))
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if err.size and err.max() > 0:
        i = int(np.argmax(err))
        raise CheckFailed("%s: element %d is %.9g, expected %.9g"
                          % (name, i, got.flat[i], want.flat[i]))


def params_equal(name: str, got: Dict[str, np.ndarray],
                 want: Dict[str, np.ndarray], rtol: float = 0.0) -> None:
    require(sorted(got) == sorted(want),
            "%s: parameter names differ" % name)
    for key in want:
        close("%s[%s]" % (name, key), got[key], want[key], rtol=rtol,
              atol=0.0)


def adam_reference(params: Dict[str, np.ndarray],
                   grads: Dict[str, np.ndarray], opt) -> Dict[str, np.ndarray]:
    """Parameters after one bias-corrected Adam step from the moments and
    step count in ``opt``, in float64."""
    t = opt.step + 1
    b1, b2 = float(opt.beta1), float(opt.beta2)
    out = {}
    for name, value in params.items():
        g = np.asarray(grads[name], np.float64)
        m = b1 * np.asarray(opt.m[name], np.float64) + (1 - b1) * g
        v = b2 * np.asarray(opt.v[name], np.float64) + (1 - b2) * g * g
        step = (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                      + float(opt.eps))
        out[name] = np.asarray(value, np.float64) - float(opt.lr) * step
    return out


def cosine_reference(vectors: Dict[str, np.ndarray], enroll: Sequence[str],
                     test: Sequence[str]) -> np.ndarray:
    """Float64 cosine of each (enroll, test) pair in matrix form."""
    names = sorted(vectors)
    index = {n: i for i, n in enumerate(names)}
    mat = np.stack([np.asarray(vectors[n], np.float64) for n in names])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    a = mat[[index[n] for n in enroll]]
    b = mat[[index[n] for n in test]]
    return np.einsum("ij,ij->i", a, b)


def eer_reference(scores: np.ndarray, labels: np.ndarray):
    """EER and threshold by sorting, with the program's conventions: accept
    when score >= threshold, operating points at every distinct score plus
    one above the maximum, linear interpolation at the first sign change
    of FAR - FRR."""
    scores = np.asarray(scores, np.float64)
    targets = np.sort(scores[labels == 1])
    nontargets = np.sort(scores[labels == 0])
    require(len(targets) > 0 and len(nontargets) > 0,
            "trial list needs targets and nontargets")
    thresholds = np.unique(scores)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = ((len(nontargets) - np.searchsorted(nontargets, thresholds, "left"))
           / len(nontargets))
    frr = np.searchsorted(targets, thresholds, "left") / len(targets)
    diff = far - frr
    crossing = (diff[:-1] > 0) & (diff[1:] < 0)
    candidates = np.flatnonzero(np.append(crossing, False) | (diff == 0))
    require(len(candidates) > 0, "no FAR/FRR crossing")
    i = int(candidates[0])
    if diff[i] == 0:
        return float(far[i]), float(thresholds[i])
    alpha = diff[i] / (diff[i] - diff[i + 1])
    eer = 0.5 * ((far[i] + alpha * (far[i + 1] - far[i]))
                 + (frr[i] + alpha * (frr[i + 1] - frr[i])))
    return float(eer), float(thresholds[i] + alpha
                             * (thresholds[i + 1] - thresholds[i]))
