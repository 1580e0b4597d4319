"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them on success).

Criteria cover: layer-count combinatorics, oracle-partition golden values,
the fixed-size optimum's prefix/suffix form against exhaustive enumeration,
the signed preference-probability table with a Monte-Carlo cross-check,
split-loss properties, concordant-divergence identities, the candidate-table
inclusion rates, the noise trend of the selection experiment, and the
ranking-gap trend of deeper trees on larger samples. Posterior-contraction
behavior of ensemble samplers is out of scope and intentionally untested.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from symrank.cli import main
from symrank.core import derive_rng, var
from symrank.evalsel import (
    CandidatesExperimentConfig,
    SignalExperimentConfig,
    TreeParams,
    run_candidates_experiment,
    run_signal_experiment,
    synth_3var,
)
from symrank.monotonic import piecewise_monotone, preference_probability
from symrank.partition import (
    brute_force_best_2partition,
    oracle_fixed_size,
    oracle_varying_size,
)
from symrank.stats import (
    batched_scores,
    bayes_permutation,
    ranking_metric_T,
    t0_divergence,
)
from symrank.symgen import build_operator_set, expand_binary, expand_unary, raw_binary_count
from symrank.tree import best_split, grow_tree, induced_permutation

MASTER_SEED = 20250809


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def test_01_combinatorics(tmp_path):
    with criterion(1, "layer combinatorics", 1.0):
        rng = derive_rng(MASTER_SEED, 1)
        x = rng.uniform(size=(10, 3))
        y = 2 * x[:, 0] ** 3 + 5 * x[:, 2] + 10
        path = tmp_path / "d3.csv"
        path.write_text("x1,x2,x3,y\n" + "".join(
            f"{a},{b},{c},{t}\n" for (a, b, c), t in zip(x, y)))
        for arch, counts in (("bu", [12, 24]), ("ub", [6, 42])):
            out = tmp_path / f"gen_{arch}"
            assert main(["gen-features", "--input", str(path), "--response", "y",
                         "--arch", arch, "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert [c["distinct"] for c in manifest["layer_counts"]] == counts
            assert manifest["q"] == counts[-1]
        ops = build_operator_set(["id", "cube"], ["+", "*"])
        base2 = [var(j) for j in range(2)]
        assert raw_binary_count(2, ops) == 8
        layer1 = expand_binary(base2, ops)
        assert len(layer1) == 6
        assert len(expand_unary(layer1, ops)) == 12


def test_02_oracle_partition_golden():
    with criterion(2, "oracle partition golden values", 1.0):
        fig2a = [5, 2.1, 1, 2, 4]
        fig2b = [5, 3.9, 1, 2, 4]

        r = oracle_fixed_size(fig2a, 2)
        assert r.winner == "suffix"
        assert r.suffix.left == (0, 4)  # {y1, y5}
        assert r.suffix.right == (1, 2, 3)  # {y2, y3, y4}
        assert abs(r.suffix.total_sse - 1.24) <= 1e-12

        r = oracle_fixed_size(fig2b, 2)
        assert r.winner == "prefix"
        assert r.prefix.left == (2, 3)  # {y3, y4}
        assert r.prefix.right == (0, 1, 4)  # {y1, y2, y5}
        assert abs(r.prefix.total_sse - 1.24) <= 1e-12

        i_a, p_a = oracle_varying_size(fig2a)
        assert (i_a, len(p_a.left), len(p_a.right)) == (3, 3, 2)
        i_b, p_b = oracle_varying_size(fig2b)
        assert (i_b, len(p_b.left), len(p_b.right)) == (2, 2, 3)


def _subset_sums(y):
    n = len(y)
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        sums[mask] = sums[mask ^ lsb] + y[lsb.bit_length() - 1]
    return sums


def test_03_fixed_size_optimum_form():
    with criterion(3, "fixed-size optimum is a sorted prefix or suffix", 30.0):
        rng = derive_rng(MASTER_SEED, 3)
        popcounts = {}
        for trial in range(1000):
            n = int(rng.integers(5, 13))
            y = rng.normal(size=n)
            order = np.argsort(y)
            sums = _subset_sums(y)
            if n not in popcounts:
                popcounts[n] = np.array(
                    [bin(m).count("1") for m in range(1 << n)])
            pc = popcounts[n]
            total1, total2 = y.sum(), float(np.sum((y - y.mean()) ** 2) + n * y.mean() ** 2)
            masks = np.arange(1 << n)
            for i in range(2, n - 1):
                sel = masks[pc == i]
                s = sums[sel]
                losses = total2 - s**2 / i - (total1 - s) ** 2 / (n - i)
                best_mask = int(sel[np.argmin(losses)])
                members = {j for j in range(n) if best_mask >> j & 1}
                prefix_i = {int(j) for j in order[:i]}
                suffix_i = {int(j) for j in order[n - i:]}
                assert members in (prefix_i, suffix_i), (y.tolist(), i)
                oracle = oracle_fixed_size(y, i)
                best_loss = float(losses.min())
                assert abs(best_loss - oracle.best.total_sse) \
                    <= 1e-12 * max(1.0, abs(best_loss))
            if trial % 50 == 0:  # spot-check the enumeration operation itself
                i = int(rng.integers(2, n - 1))
                bf = brute_force_best_2partition(y, i)
                assert set(bf.left) in (
                    {int(j) for j in order[:i]}, {int(j) for j in order[n - i:]},
                    {int(j) for j in order[:n - i]}, {int(j) for j in order[i:]})
                assert abs(bf.total_sse - oracle_fixed_size(y, i).best.total_sse) \
                    <= 1e-12 * max(1.0, bf.total_sse)


def test_04_preference_probability_table():
    with criterion(4, "signed preference probability table", 5.0):
        t1 = piecewise_monotone((0, 1), [], ["x + 1.2"], ["increasing"])
        t2 = piecewise_monotone(
            (0, 1), [0.5], ["-4*x**2 + 4*x", "-4*x**2 + 4*x"],
            ["increasing", "decreasing"])
        expected = {-1.0: 0.0, 0.5: -1.0, 1.1: 0.0, 1.5: 0.5, 1.9: 0.5, 3.0: 0.0}
        reports = {}
        for c, p in expected.items():
            reports[c] = preference_probability(t1, t2, c)
            assert abs(reports[c].p_value - p) <= 1e-12, (c, reports[c].p_value)
        # Monte-Carlo cross-check of the interval masses at 10^4 samples
        xs = derive_rng(MASTER_SEED, 4).uniform(size=10_000)
        for c, rep in reports.items():
            sign = np.zeros(xs.size)
            for iv in rep.intervals_pref_1:
                sign += (xs >= iv.lo) & (xs < iv.hi)
            for iv in rep.intervals_pref_2:
                sign -= (xs >= iv.lo) & (xs < iv.hi)
            se = sign.std(ddof=1) / math.sqrt(xs.size)
            assert abs(sign.mean() - rep.p_value) <= 3 * max(se, 1e-9), c


def _sse(v):
    return float(np.sum((v - v.mean()) ** 2))


def test_05_split_properties():
    with criterion(5, "split-loss decomposition and monotone invariance", 30.0):
        rng = derive_rng(MASTER_SEED, 5)
        # children SSE sum never exceeds the parent; the gap is exactly the
        # between-group term, so equality holds iff the side means coincide
        for _ in range(10_000):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            m = int(rng.integers(1, n))
            left, right = y[:m], y[m:]
            parent = _sse(y)
            children = _sse(left) + _sse(right)
            gap = parent - children
            between = m * (left.mean() - y.mean()) ** 2 \
                + (n - m) * (right.mean() - y.mean()) ** 2
            scale = max(1.0, parent)
            assert gap >= -1e-12 * scale
            assert abs(gap - between) <= 1e-9 * scale
            if abs(left.mean() - right.mean()) <= 1e-12:
                assert abs(gap) <= 1e-12 * scale
        # equality case constructed exactly
        y_eq = np.array([1.0, 5.0, 1.0, 5.0])
        assert _sse(y_eq) == pytest.approx(_sse(y_eq[:2]) + _sse(y_eq[2:]) + 0.0)

        transforms = [np.exp, lambda v: v**3, lambda v: 2 * v + 1, np.arctan]
        for _ in range(1000):
            n = int(rng.integers(5, 20))
            q = int(rng.integers(1, 4))
            z = rng.normal(size=(n, q))
            y = rng.normal(size=n)
            rule = best_split(z, y)
            maps = [transforms[int(rng.integers(len(transforms)))]
                    for _ in range(q)]
            z2 = np.column_stack([maps[k](z[:, k]) for k in range(q)])
            rule2 = best_split(z2, y)
            assert rule2.coordinate == rule.coordinate
            assert np.array_equal(z[:, rule.coordinate] <= rule.threshold,
                                  z2[:, rule2.coordinate] <= rule2.threshold)


def t0_by_ordered_pairs(u, y):
    """The divergence by its definition, over every ordered pair (i, j)."""
    du = u[:, None] - u[None, :]
    dy = y[:, None] - y[None, :]
    hits = ((du >= 0) & (dy < 0)) | ((du < 0) & (dy >= 0))
    n = u.shape[0]
    return 2.0 * float(np.abs(dy)[hits].sum()) / (n * (n - 1))


def test_06_divergence_identities():
    with criterion(6, "concordant divergence identities", 60.0):
        rng = derive_rng(MASTER_SEED, 6)
        # concordance zero is exact
        for _ in range(50):
            n = int(rng.integers(2, 30))
            y = np.sort(rng.normal(size=n))
            u = np.arange(n, dtype=float)
            assert t0_divergence(u, y) == 0.0
            assert t0_divergence(np.exp(u), y) == 0.0
        # reversal identity and fast-path agreement on 1000 instances
        for _ in range(1000):
            n = int(rng.integers(2, 41))
            u = rng.normal(size=n)
            y = rng.normal(size=n)
            while np.unique(u).size < n or np.unique(y).size < n:
                u, y = rng.normal(size=n), rng.normal(size=n)
            ref = t0_divergence(u, y)
            rev = t0_divergence(-u, y)
            dy = np.abs(y[:, None] - y[None, :])
            target = 2.0 * float(dy.sum() / 2.0) * 2.0 / (n * (n - 1))
            assert abs(ref + rev - target) <= 1e-12 * max(1.0, target)
            pairs = t0_by_ordered_pairs(u, y)
            assert abs(batched_scores("t0", u[:, None], y)[0] - pairs) <= 1e-12 * max(1.0, pairs)
        # independent feature keeps the divergence bounded away from zero
        for n in (20, 50, 200):
            y = rng.normal(size=n)
            draws = np.array([t0_divergence(rng.normal(size=n), y)
                              for _ in range(200)])
            mean = draws.mean()
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert mean - 2 * se > 0, n


def test_07_candidate_table_inclusion():
    with criterion(7, "candidate-table truth inclusion >= 90%", 120.0):
        blocks = {
            "sin4": ("sin(4*x)", ("x", "sin(4*x+0.2)", "sin(4*x+0.1)", "sin(4*x)")),
            "sin5": ("sin(5*x)", ("x", "sin(4*x)", "sin(6*x)", "sin(5*x)")),
        }
        for name, (truth, candidates) in blocks.items():
            cfg = CandidatesExperimentConfig(
                truth=truth, candidates=candidates, n=500, noise_var=0.1,
                repeats=50, n_selected=1, methods=("t0", "pearson", "kendall"),
                seed=MASTER_SEED)
            report = run_candidates_experiment(cfg)
            for m in report.runs[0]["methods"]:
                assert m["truth_inclusion"] >= 0.9, (name, m["method"],
                                                     m["truth_inclusion"])


def test_08_selection_experiment_trends():
    with criterion(8, "selection quality trends with noise", 300.0):
        cfg = SignalExperimentConfig(
            n=100, noise_vars=(0.0, 0.01, 0.1), architectures=("bu", "ub"),
            methods=("t0", "tree-importance"), repeats=50, n_selected=3,
            seed=MASTER_SEED, tree=TreeParams(n_trees=20, depth=3))
        report = run_signal_experiment(cfg)
        by_key = {(r["architecture"], r["noise_var"], m["method"]): m
                  for r in report.runs for m in r["methods"]}
        for arch in ("bu", "ub"):
            for method in ("t0", "tree-importance"):
                medians = [by_key[(arch, nv, method)]["pr_auc_median"]
                           for nv in (0.0, 0.01, 0.1)]
                assert medians[0] >= medians[1] >= medians[2], (arch, method, medians)
            for nv in (0.0, 0.01):
                aip = by_key[(arch, nv, "t0")]["aip"]
                assert aip >= 0.9, (arch, nv, aip)


def test_09_ranking_gap_trend():
    with criterion(9, "tree ranking gap shrinks with sample size", 120.0):
        noise_var = 0.1
        medians = []
        for n_idx, n in enumerate((50, 200, 800)):
            depth = math.ceil(math.log2(n)) - 2
            gaps = []
            for s in range(20):
                ds = synth_3var(n, noise_var, rng=derive_rng(MASTER_SEED, 9, n_idx, s))
                mu = 2 * ds.x[:, 0] ** 3 + 5 * ds.x[:, 2] + 10
                t_bayes = ranking_metric_T(bayes_permutation(mu), mu)
                tree = grow_tree(ds.x, ds.y, depth)
                t_tree = ranking_metric_T(induced_permutation(tree, ds.x), mu)
                assert t_bayes >= t_tree - 1e-12
                gaps.append(t_bayes - t_tree)
            medians.append(float(np.median(gaps)))
        assert medians[0] >= medians[1] >= medians[2], medians
