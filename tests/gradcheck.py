"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from saep.tensor import Tensor

__all__ = ["GradCheckReport", "gradient_check"]


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep."""

    passed: bool
    worst_error: float
    worst_location: Optional[Tuple[str, int]]  # (tensor label, flat index)
    worst_analytic: float = 0.0
    worst_numeric: float = 0.0
    failures: List[Tuple[str, int, float]] = field(default_factory=list)
    nonsmooth: List[Tuple[str, int]] = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        if self.worst_location is None:
            return "gradient check %s (no elements)" % status
        label, idx = self.worst_location
        return ("gradient check %s: worst |err|=%.3g at %s[%d] "
                "(analytic=%.6g numeric=%.6g)"
                % (status, self.worst_error, label, idx,
                   self.worst_analytic, self.worst_numeric))


def gradient_check(f: Callable[[], Tensor],
                   tensors: Sequence[Tensor],
                   tol: float = 1e-2,
                   step: float = 1e-3,
                   abs_tol: float = 1e-4,
                   labels: Optional[Sequence[str]] = None) -> GradCheckReport:
    """Compare reverse-mode gradients of a scalar function against central
    finite differences.

    ``f`` must recompute its scalar output from the current contents of
    ``tensors`` on every call. The sweep casts ``tensors`` to float64, and
    every op computes in its inputs' dtype, so the difference quotient is
    not drowned in float32 quantization noise; the original float32
    contents are restored afterwards. An element passes when the analytic
    and numeric values agree within relative tolerance ``tol`` or absolute
    tolerance ``abs_tol``.

    A central difference is only meaningful where the function is locally
    linear at the step scale, and the network is piecewise linear (ReLU,
    normalization of a zero vector). Elements that fail at the base step
    are therefore retried with geometrically shrinking steps: if the
    quotient converges to the analytic value the element passes; if it
    stabilizes on a different value the backward pass is wrong and the
    element fails; if it never stabilizes the point is non-smooth and the
    element is reported in ``nonsmooth`` without failing the check.
    """
    if labels is None:
        labels = ["t%d" % i for i in range(len(tensors))]
    saved = [t.data for t in tensors]
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    worst_err = 0.0
    worst_loc = None
    worst_a = worst_n = 0.0
    failures: List[Tuple[str, int, float]] = []
    nonsmooth: List[Tuple[str, int]] = []

    def close(a: float, b: float) -> bool:
        err = abs(a - b)
        return err <= abs_tol or err <= tol * max(abs(a), abs(b))

    try:
        for t in tensors:
            t.data = t.data.astype(np.float64)
        out = f()
        if out.data.size != 1:
            raise ValueError(
                "gradient_check requires a scalar-valued function")
        out.backward()
        analytic = [np.zeros_like(t.data) if t.grad is None
                    else t.grad.copy() for t in tensors]
        # The finite-difference evaluations below record no graph.
        for t in tensors:
            t.grad = None
            t.requires_grad = False

        def fd(flat, i, h):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(f().data)
            flat[i] = orig - h
            lm = float(f().data)
            flat[i] = orig
            return (lp - lm) / (2.0 * h)

        for t, grad, label in zip(tensors, analytic, labels):
            flat = t.data.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                a = float(gflat[i])
                numeric = fd(flat, i, float(step))
                if close(a, numeric):
                    err = abs(a - numeric)
                    score = min(err / max(abs(a), abs(numeric), 1e-30),
                                err / abs_tol)
                    if score > worst_err:
                        worst_err = score
                        worst_loc = (label, i)
                        worst_a, worst_n = a, numeric
                    continue
                # Refine until the quotient converges or gives up.
                estimates = [numeric]
                h = float(step)
                matched = False
                for _ in range(5):
                    h /= 8.0
                    estimates.append(fd(flat, i, h))
                    if close(a, estimates[-1]):
                        matched = True
                        break
                if matched:
                    continue
                # One-sided slopes that disagree mean the point sits
                # on a kink (e.g. a ReLU at exactly zero), where a
                # central difference is meaningless.
                orig = flat[i]
                base = float(f().data)
                flat[i] = orig + h
                lp = float(f().data)
                flat[i] = orig - h
                lm = float(f().data)
                flat[i] = orig
                fwd = (lp - base) / h
                bwd = (base - lm) / h
                if not close(fwd, bwd):
                    nonsmooth.append((label, i))
                    continue
                if close(estimates[-1], estimates[-2]):
                    rel = (abs(a - estimates[-1])
                           / max(abs(a), abs(estimates[-1]), 1e-30))
                    failures.append((label, i, rel))
                    if rel > worst_err:
                        worst_err = rel
                        worst_loc = (label, i)
                        worst_a, worst_n = a, estimates[-1]
                else:
                    nonsmooth.append((label, i))
    finally:
        for t, original in zip(tensors, saved):
            t.data = original
            t.grad = None
            t.requires_grad = True
    return GradCheckReport(passed=not failures,
                           worst_error=worst_err,
                           worst_location=worst_loc,
                           worst_analytic=worst_a,
                           worst_numeric=worst_n,
                           failures=failures,
                           nonsmooth=nonsmooth)
