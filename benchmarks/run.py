#!/usr/bin/env python3
"""Benchmark of the saep pipeline: training, cold enrollment and scoring.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload train_toy --seed 1 --seconds 30 \
        --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Each run generates its inputs from ``--seed`` in a child process, times the
program's set-up several times, runs one closed loop of ops for
``--seconds`` seconds with BLAS pinned to one thread, checks the outputs,
and prints a report followed, on the last line, by one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other block of ops runs with in-memory spans around each call into
a ``saep`` layer, and the metrics are the per-layer ones plus the tracing
overhead against the untraced blocks (see ``metrics.py``). The full
result, with the environment, goes to ``.bench_results/`` and the spans of
a traced run to ``.bench_results/spans-*.jsonl``. ``--workload all`` runs
every workload, each in its own process, and prints every end-to-end
figure by name with its unit.

The run exits with 1 when a check fails or an op fails, and with 2 when
the checkout has no ``src/saep``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_toy", "enroll_cold", "score_large")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "platform": platform.platform(),
    }


def _run_one(args) -> int:
    import metrics
    import workloads
    from tracing import Tracer
    from workloads import percentile

    run_id = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace,
                                os.getpid())
    work = os.path.join(WORK, run_id)
    os.makedirs(work)
    tracer = Tracer(run_id) if args.trace else None
    try:
        generate = [sys.executable, os.path.join(HERE, "inputs.py"),
                    args.workload, str(args.seed), work]
        if args.tiny:
            generate.append("--tiny")
        subprocess.run(generate, check=True, env=os.environ.copy())
        ctx = workloads.Context(work=work, seed=args.seed,
                                seconds=args.seconds, tiny=args.tiny,
                                tracer=tracer)
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment(args.workload, args.seed)
    e2e = out.end_to_end()
    report = dict(out.report)
    report.update(setup_s=e2e["setup_s"], peak_rss_mb=out.peak_rss_mb,
                  ops_failed_ratio=out.failed / max(1, out.attempted))
    units = dict(metrics.REPORT[args.workload])
    print("env %s" % json.dumps(env, sort_keys=True))
    print("samples: %d set-ups, %d ops" % (len(out.setup_s),
                                           len(out.traced_op_ms
                                               or out.op_ms)))
    print("op latency: p50 %.3f ms, p90 %.3f ms over %d untraced ops"
          % (percentile(out.op_ms, 50), percentile(out.op_ms, 90),
             len(out.op_ms)))
    for name, unit in metrics.REPORT[args.workload]:
        print("%-22s %14.6g %s" % (name, report[name], unit))
    for name, value in sorted(out.report.items()):
        if name not in units:
            print("%-22s %14.6g" % (name, value))
    for name, passed, detail in out.checks:
        print("check %-36s %s%s" % (name, "ok" if passed else "FAILED",
                                    ": " + detail if detail else ""))

    if tracer is None:
        values = e2e
        chosen = [(n, u) for n, u, _, _ in metrics.END_TO_END]
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_ms"] = (percentile(out.traced_op_ms, 50)
                                       - percentile(out.op_ms, 50))
        values["trace.coverage"] = tracer.op_coverage()
        chosen = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
        print("tracing overhead: op p50 %.3f ms traced vs %.3f ms untraced"
              % (percentile(out.traced_op_ms, 50),
                 percentile(out.op_ms, 50)))
        if args.workload == "train_toy":
            # Share of a traced step spent in tensor ops (forward and
            # backward), the Adam step and batch making.
            accounted = sum(v for n, v in values.items() if n.startswith(
                "tensor.") and n.endswith(("fwd_ms", "bwd_ms")))
            accounted += (values["optim.adam_step_ms"]
                          + values["train.make_batch_ms"])
            mean_step = sum(out.traced_op_ms) / len(out.traced_op_ms)
            print("step time in tensor ops, adam_step and make_batch: "
                  "%.1f%%" % (100.0 * accounted / mean_step))
    correct = all(passed for _, passed, _ in out.checks) and out.failed == 0
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in chosen}}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, run_id)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "report": report,
                   "checks": out.checks, "setup_s": out.setup_s,
                   "op_ms": out.op_ms, "traced_op_ms": out.traced_op_ms},
                  fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, "spans-%s.jsonl" % run_id))
    print(json.dumps(result))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process; one summary of all figures."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("== %s" % name)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print("== summary")
    for metric, value in combined["metrics"].items():
        print("%-32s %14.6g %s" % (metric, value["value"], value["unit"]))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "saep", "__init__.py")):
        print("error: no saep sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads, here and in every child process.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
