"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in BENCH["workloads"])
    assert [m["name"] for m in BENCH["per_layer"]] == list(spans.UNITS)
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 3])
def test_smoke_run_passes_every_check(workload, seed):
    result = result_of(run_bench("--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", "0", "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_run_reports_every_layer_metric(workload):
    proc = run_bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                     "--seconds", "1", "--trace", "1", "--size", "smoke")
    result = result_of(proc)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert "prediction" in proc.stdout


def test_reference_mismatch_counts_as_failure(tmp_path):
    """A changed reference digest makes the default-seed run fail."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["smoke"]["csv-experiment"]["report.json"] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    proc = run_bench("--workload", "csv-experiment", "--seed", str(DEFAULT_SEED),
                     "--seconds", "1", "--size", "smoke", cwd=tmp_path)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED csv-experiment/experiment: CheckFailed: reference" in proc.stderr


def test_layer_count_mismatch_counts_as_failure(tmp_path):
    """A traced default-seed run fails when an invariant count differs."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["smoke"]["signal-forest"]["counts"]["symgen.features_raw"] -= 1
    refs_path.write_text(json.dumps(refs))
    proc = run_bench("--workload", "signal-forest", "--seed", str(DEFAULT_SEED),
                     "--seconds", "1", "--trace", "1", "--size", "smoke", cwd=tmp_path)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED signal-forest/layer-counts: CheckFailed: reference" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "large-n", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


# ---------------------------------------------------------------------------
# checks catch wrong outputs
# ---------------------------------------------------------------------------

def test_fixed_size_check_rejects_a_wrong_winner():
    y = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0])
    order = np.argsort(y)
    doc = {"n": 6, "i": 2, "winner": "prefix", "tie": False}
    for side, block in (("prefix", order[:2]), ("suffix", order[4:])):
        left = sorted(int(j) for j in block)
        right = [j for j in range(6) if j not in left]
        loss = sum(float(((y[s] - y[s].mean()) ** 2).sum()) for s in (left, right))
        doc[side] = {"left_indices": left, "right_indices": right, "loss": loss}
    with pytest.raises(checks.CheckFailed, match="winner"):
        checks.check_fixed_size(doc, y, 2)
    doc["winner"] = "suffix"
    checks.check_fixed_size(doc, y, 2)


def test_varying_size_check_rejects_a_non_minimal_split():
    y = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2])
    left_sse, right_sse = checks._sse_prefixes(np.sort(y))
    checks.check_varying_size(3, (0, 1, 2), float(left_sse[2] + right_sse[2]), y)
    with pytest.raises(checks.CheckFailed, match="minimum"):
        checks.check_varying_size(2, (0, 1), float(left_sse[1] + right_sse[1]), y)


def test_tree_check_rejects_a_wrong_leaf_mean():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 10.0, 12.0])
    doc = {"n_features": 1, "nodes": [{"coordinate": 0, "threshold": 1.0},
                                      {"mean": 1.5}, {"mean": 11.0}]}
    checks.check_tree(doc, x, y, depth=1)
    doc["nodes"][2]["mean"] = 11.5
    with pytest.raises(checks.CheckFailed, match="leaf mean"):
        checks.check_tree(doc, x, y, depth=1)


def test_selection_score_check_rejects_a_wrong_aip():
    entry = {"selections": [[0, 1, 2], [0, 3, 4]], "aip": 0.5}
    checks.check_selection_scores(entry, {0, 1}, q=5, k=3, where="t")
    entry["aip"] = 0.6
    with pytest.raises(checks.CheckFailed, match="aip"):
        checks.check_selection_scores(entry, {0, 1}, q=5, k=3, where="t")


def test_t0_rank_form_matches_the_pairwise_definition():
    rng = np.random.default_rng(5)
    n = 30
    u = rng.integers(0, 4, size=n).astype(float)  # tie-heavy feature
    y = rng.standard_normal(n)
    total = sum(abs(y[i] - y[j]) for i in range(n) for j in range(n)
                if i != j and ((u[i] >= u[j] and y[i] < y[j]) or (u[i] < u[j] and y[i] >= y[j])))
    assert checks.t0_rank_form(u, y) == pytest.approx(2 * total / (n * (n - 1)), rel=1e-12)


def test_top_k_check_rejects_a_skipped_best_column():
    checks.check_top_k([0, 1], [0.9, 0.8, 0.1], False, "t")
    checks.check_top_k([2, 1], [0.9, 0.8, 0.1], True, "t")
    with pytest.raises(checks.CheckFailed, match="top-2"):
        checks.check_top_k([1, 2], [0.9, 0.8, 0.1], False, "t")


def test_feature_names_evaluate_to_their_columns():
    x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    np.testing.assert_allclose(checks.evaluate_feature("cube(x1*x3)", x), (x[:, 0] * x[:, 2]) ** 3)
    np.testing.assert_allclose(checks.evaluate_feature("(x2+cube(x1))", x), x[:, 1] + x[:, 0] ** 3)
    with pytest.raises(checks.CheckFailed, match="grammar"):
        checks.evaluate_feature("sin(x1)", x)


def test_artifacts_compare_floats_within_tolerance_and_digests_exactly():
    checks.compare_artifacts({"s": [1.0 + 1e-12], "d": "ab"}, {"s": [1.0], "d": "ab"}, "t")
    with pytest.raises(checks.CheckFailed):
        checks.compare_artifacts({"s": [1.001], "d": "ab"}, {"s": [1.0], "d": "ab"}, "t")
    with pytest.raises(checks.CheckFailed):
        checks.compare_artifacts({"s": [1.0], "d": "ac"}, {"s": [1.0], "d": "ab"}, "t")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_and_busy_ratio_with_parallel_children():
    S = spans.Span
    run = [
        S(1, None, 0, "evalsel.runner", 1, 0.0, 10.0),
        S(2, 1, 0, "evalsel.repeat", 2, 1.0, 6.0),
        S(3, 1, 0, "evalsel.repeat", 3, 2.0, 9.0),
        S(4, 2, 0, "tree.grow_tree", 2, 1.0, 5.0),
    ]
    own = spans.self_times(run)
    assert own == {1: 2.0, 2: 1.0, 3: 7.0, 4: 4.0}
    metrics = spans.run_metrics(run, collections.Counter())
    assert metrics["evalsel.runner.workers"] == 2
    assert metrics["evalsel.runner.busy_ratio"] == pytest.approx(12.0 / 20.0)
    assert metrics["evalsel.runner.self_s"] == pytest.approx(2.0)
    shares = spans.layer_shares(run)
    assert shares["tree"] == pytest.approx(4.0 / 14.0)
