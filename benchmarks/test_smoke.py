"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the root of the repository:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from saep import cache, verification  # noqa: E402

RUN = os.path.join(HERE, "run.py")
WORKLOADS = [name for name, _ in metrics.WORKLOADS]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_lists_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {n: u for n, u, *_ in table} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    for name, unit in metrics.REPORT[workload]:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_runs_every_workload():
    proc = _run("--workload", "all", "--seed", "2", "--seconds", "0.2",
                "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {"%s.%s" % (w, n) for w in WORKLOADS
            for n, *_ in metrics.END_TO_END} == set(result["metrics"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train_toy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny(workload, tmp_path, seed=3):
    work = str(tmp_path / workload)
    inputs.generate(workload, work, seed, True)
    ctx = workloads.Context(work=work, seed=seed, seconds=0.2, tiny=True,
                            tracer=None)
    return workloads.WORKLOADS[workload](ctx)


def _failed(outcome):
    return {name for name, passed, _ in outcome.checks if not passed}


def test_checks_pass_on_clean_output(tmp_path):
    for workload in WORKLOADS:
        assert _failed(_tiny(workload, tmp_path)) == set(), workload


def test_one_perturbed_score_fails_the_check(tmp_path, monkeypatch):
    score_trials = verification.score_trials

    def perturbed(trials, embeddings):
        scored = score_trials(trials, embeddings)
        scored[7].score += 1e-3
        return scored

    monkeypatch.setattr(verification, "score_trials", perturbed)
    assert "scores_match_matrix_cosine" in _failed(
        _tiny("score_large", tmp_path))


def test_a_wrong_eer_fails_the_check(tmp_path, monkeypatch):
    compute_eer = verification.compute_eer

    def shifted(scores):
        eer, threshold = compute_eer(scores)
        return eer + 1e-4, threshold

    monkeypatch.setattr(verification, "compute_eer", shifted)
    assert _failed(_tiny("score_large", tmp_path)) == {
        "eer_matches_sort_reference"}


def test_a_corrupted_feature_cache_fails_the_check(tmp_path, monkeypatch):
    load = cache.load_feature_cache

    def corrupted(path, utterance_id):
        feats = load(path, utterance_id)
        feats.frames[0, 0] += 1.0
        return feats

    monkeypatch.setattr(cache, "load_feature_cache", corrupted)
    assert "cached_features_reload_equal" in _failed(
        _tiny("enroll_cold", tmp_path))


def test_a_wrong_loss_fails_the_check(tmp_path, monkeypatch):
    original = workloads.model.SaepModel.forward_loss

    def biased(self, batch, labels, train=True, rng=None):
        loss = original(self, batch, labels, train=train, rng=rng)
        return loss * 1.01 if loss.data.dtype == np.float32 else loss

    monkeypatch.setattr(workloads.model.SaepModel, "forward_loss", biased)
    assert "loss_matches_float64_reference" in _failed(
        _tiny("train_toy", tmp_path))


def test_eer_reference_agrees_with_the_program():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=500)
    scores = np.round(rng.normal(size=500) + labels, 2)  # with ties
    scored = [verification.ScoredTrial(float(s), int(y), "a", "b")
              for s, y in zip(scores, labels)]
    assert checks.eer_reference(scores, labels) == pytest.approx(
        verification.compute_eer(scored), abs=1e-12)
