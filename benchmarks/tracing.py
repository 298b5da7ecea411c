"""In-memory spans around calls into ``saep`` modules, from outside the code.

``Tracer.install`` replaces each instrumented function, method and tensor op
with a wrapper that records a span (name, start, end, parent, run id) and
``uninstall`` restores the originals; the program's sources are untouched.
Functions are replaced wherever a ``saep`` module holds a reference to
them, so calls made through ``from .x import f`` bindings are seen too; the
benchmark itself calls through module attributes. Each tensor op that
records a backward closure gets that closure wrapped as well, so the
backward sweep is split into per-op spans.

The workload opens one root span per set-up repetition (``bench.setup``)
and per timed op (``bench.op``); every layer span is a descendant of one of
them, which is how layer time is attributed to set-up or to ops.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

from metrics import PER_LAYER, TENSOR_OPS

SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"
FLUSH_ROOT = "bench.flush"  # op-phase work outside any single op

# span name -> (defining module, attribute)
FUNCTIONS = {
    "audio.load_audio": ("saep.audio", "load_audio"),
    "features.mfcc": ("saep.features", "mfcc"),
    "features.append_deltas": ("saep.features", "append_deltas"),
    "features.cmvn": ("saep.features", "cmvn"),
    "features.chunk": ("saep.features", "chunk"),
    "cache.save_feature_cache": ("saep.cache", "save_feature_cache"),
    "cache.load_feature_cache": ("saep.cache", "load_feature_cache"),
    "manifest.load_manifest": ("saep.manifest", "load_manifest"),
    "checkpoint.write_records": ("saep.checkpoint", "write_records"),
    "checkpoint.read_records": ("saep.checkpoint", "read_records"),
    "checkpoint.save_checkpoint": ("saep.checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("saep.checkpoint", "load_checkpoint"),
    "optim.adam_step": ("saep.optim", "adam_step"),
    "train.make_batch": ("saep.train", "make_batch"),
    "model.am_softmax_loss": ("saep.model", "am_softmax_loss"),
    "verification.score_trials": ("saep.verification", "score_trials"),
    "verification.save_scores": ("saep.verification", "save_scores"),
    "verification.load_scores": ("saep.verification", "load_scores"),
    "verification.load_trials": ("saep.verification", "load_trials"),
    "verification.det_points": ("saep.verification", "det_points"),
    "verification.compute_eer": ("saep.verification", "compute_eer"),
}

# span name -> (module, class, method)
METHODS = {
    "model.%s" % m: ("saep.model", "SaepModel", m)
    for m in ("forward_loss", "encoder_block", "scaled_dot_attention",
              "position_ffn", "attention_pool", "classifier_features",
              "extract_embedding", "head_forward")
}
METHODS["tensor.backward"] = ("saep.tensor", "Tensor", "backward")

# Metrics reported as self time rather than inclusive time.
SELF_TIMED = {"tensor.backward", "verification.compute_eer"}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counters taken after a call returns, outside its span: name -> f(args, out).
COUNTERS: Dict[str, Callable] = {
    "audio.load_audio": lambda a, out: {"audio.bytes_read": _file_size(a[0])},
    "features.mfcc": lambda a, out: {"features.frames": len(out)},
    "cache.save_feature_cache": lambda a, out: {"cache.files_written": 1},
    "cache.load_feature_cache": lambda a, out: {"cache.files_read": 1},
    "checkpoint.write_records": lambda a, out: {
        "checkpoint.bytes_written": _file_size(a[0])},
}


class Tracer:
    """Collects spans in parallel lists; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.stack: List[int] = []
        self.counts: Dict[tuple, float] = defaultdict(float)
        self._installed = None

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, values: Dict[str, float]) -> None:
        root = self.names[self.stack[0]] if self.stack else OP_ROOT
        for name, value in values.items():
            self.counts[(root == SETUP_ROOT, name)] += value

    # -- instrumentation ---------------------------------------------------

    def _wrap_function(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if counter is not None:
                tracer.count(counter(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_tensor_op(self, op: str, fn: Callable) -> Callable:
        tracer = self
        fwd, bwd = "tensor." + op, "tensor.%s.bwd" % op

        def traced(*args, **kwargs):
            sid = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if any(out is a for a in args):  # e.g. dropout in eval mode
                tracer.count({fwd + ".calls": 1})
                return out
            tracer.count({fwd + ".calls": 1,
                          fwd + ".out_bytes": out.data.nbytes})
            closure = getattr(out, "_backward", None)
            if closure is not None:
                def timed_backward(g, _closure=closure):
                    s = tracer.begin(bwd)
                    try:
                        _closure(g)
                    finally:
                        tracer.end(s)
                out._backward = timed_backward
            return out

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list:
        """(holder, attribute, original, wrapper) for every instrumented
        callable that exists in this version of the program."""
        plan = []
        saep_modules = [m for n, m in list(sys.modules.items())
                        if m is not None
                        and (n == "saep" or n.startswith("saep."))]

        def everywhere(original, wrapper):
            for mod in saep_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, original, wrapper))

        for name, (mod_name, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if fn is not None:
                everywhere(fn, self._wrap_function(name, fn))
        tensor = importlib.import_module("saep.tensor")
        for op in TENSOR_OPS:
            fn = getattr(tensor, op, None)
            if fn is not None:
                everywhere(fn, self._wrap_tensor_op(op, fn))
        for name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__.get(meth)
            if isinstance(raw, staticmethod):
                plan.append((cls, meth, raw, staticmethod(
                    self._wrap_function(name, raw.__func__))))
            elif raw is not None:
                plan.append((cls, meth, raw, self._wrap_function(name, raw)))
        return plan

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._plan()
        for holder, attr, _, wrapper in self._installed:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._installed or []):
            setattr(holder, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start_ns": self.starts[sid], "end_ns": self.ends[sid],
                    "parent": self.parents[sid]}) + "\n")

    def _tree(self):
        """Duration, self time and root span of every span."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_ns = list(dur)
        root = list(range(n))
        for i in range(n):  # parents always precede their children
            p = self.parents[i]
            if p >= 0:
                self_ns[p] -= dur[i]
                root[i] = root[p]
        return dur, self_ns, [self.names[r] for r in root]

    def layer_metrics(self) -> Dict[str, float]:
        """Every ``PER_LAYER`` figure except the ``trace.*`` ones."""
        dur, self_ns, root = self._tree()
        roots = [self.names[i] for i, p in enumerate(self.parents) if p < 0]
        units = {True: max(1, roots.count(SETUP_ROOT)),
                 False: max(1, roots.count(OP_ROOT))}
        totals: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            ns = self_ns[i] if name in SELF_TIMED else dur[i]
            totals[name] += ns / 1e6 / units[root[i] == SETUP_ROOT]
        for (setup, name), value in self.counts.items():
            totals[name] += value / units[setup]

        out: Dict[str, float] = {}
        for metric, _, _, _ in PER_LAYER:
            if metric.startswith("trace."):
                continue
            if metric == "tensor.backward_sweep_ms":
                out[metric] = totals["tensor.backward"]
            elif metric == "cache.hit_ratio":
                hits = self._raw("cache.files_read")
                lookups = hits + self._raw("cache.files_written")
                out[metric] = hits / lookups if lookups else 0.0
            elif metric.endswith(".fwd_ms"):
                out[metric] = totals[metric[:-len(".fwd_ms")]]
            elif metric.endswith("_ms"):
                out[metric] = totals[metric[:-len("_ms")]]
            else:
                out[metric] = totals[metric]
        return out

    def _raw(self, name: str) -> float:
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def op_coverage(self) -> float:
        """Share of timed-op wall time spent in the self time of layer
        spans other than ``model.*`` glue and the backward sweep."""
        dur, self_ns, root = self._tree()
        op_ns = glue_ns = 0
        for i, name in enumerate(self.names):
            if name == OP_ROOT:
                op_ns += dur[i]
                glue_ns += self_ns[i]
            elif root[i] == OP_ROOT and (name.startswith("model.")
                                         or name == "tensor.backward"):
                glue_ns += self_ns[i]
        return 1.0 - glue_ns / op_ns if op_ns else 0.0
