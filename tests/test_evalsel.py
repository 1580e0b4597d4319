import json
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symrank import cli, evalsel
from symrank.core import TIE_RTOL, Dataset, FeatureMatrix, build_dataset, derive_rng, var
from symrank.errors import (
    ConfigError,
    DimensionMismatch,
    KTooLarge,
    LengthMismatch,
    NonFiniteData,
    NoPositives,
    SizeMismatch,
    SizeOutOfRange,
    TiesInResponse,
)
from symrank.evalsel import (
    CandidatesExperimentConfig,
    CsvExperimentConfig,
    SignalExperimentConfig,
    TreeParams,
    average_inclusion_probability,
    pr_auc,
    run_candidates_experiment,
    run_csv_experiment,
    run_signal_experiment,
    score_features,
    select_top,
    synth_3var,
)
from symrank.stats import t0_divergence
from symrank.symgen import unary_from_expr
from symrank.tree import ensemble_importance


def synth_candidates(n: int, truth, candidates, noise_var: float, seed: int = 0,
                     rng: np.random.Generator | None = None
                     ) -> tuple[Dataset, FeatureMatrix]:
    """Univariate standard-normal input; y = truth(x) + noise; candidate
    transforms evaluated into a FeatureMatrix. The oracle for one repeat of
    ``evalsel._candidate_chunk``.

    ``truth`` and each candidate may be a UnaryOp or an expression string in
    x (e.g. "sin(4*x+0.2)").
    """
    if rng is None:
        rng = derive_rng(seed)
    x = rng.standard_normal((n, 1))
    eps = rng.standard_normal(n)
    truth_op = evalsel._as_unary(truth)
    y = np.asarray(truth_op.fn(x[:, 0]), dtype=float) + np.sqrt(noise_var) * eps
    ds = build_dataset(x, y)
    ops = [evalsel._as_unary(cand) for cand in candidates]
    z = np.column_stack([np.asarray(op.fn(x[:, 0]), dtype=float) for op in ops])
    z.setflags(write=False)
    return ds, FeatureMatrix(z, evalsel._candidate_exprs(ops))


def feature_matrix(z):
    z = np.asarray(z, dtype=float)
    return FeatureMatrix(z, tuple(var(j) for j in range(z.shape[1])))


def single_positive_auc(q, in_top, n_selected):
    """Closed-form PR-AUC for one positive among q with binarized top-k scores.

    In-top: anchor (0,1) to (1, 1/k), then a zero-width drop to prevalence.
    Out-of-top: zero-width drop from the anchor to (0, 0), then to (1, 1/q).
    """
    if in_top:
        return (1.0 + 1.0 / n_selected) / 2.0
    return (0.0 + 1.0 / q) / 2.0


class TestScoreFeatures:
    def test_t0_comonotone_is_best(self):
        rng = derive_rng(71)
        y = np.sort(rng.normal(size=30))
        z = np.column_stack([np.arange(30.0), rng.normal(size=30)])
        scores = score_features(feature_matrix(z), y, "t0")
        assert top(scores, 1, "t0").tolist() == [0]  # lower is better
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_pearson_on_response_copy(self):
        rng = derive_rng(72)
        y = rng.normal(size=25)
        z = np.column_stack([y, rng.normal(size=25)])
        scores = score_features(feature_matrix(z), y, "pearson")
        assert top(scores, 1, "pearson").tolist() == [0]  # higher is better
        assert scores[0] == pytest.approx(1.0)

    def test_t0_noise_column_bounded_away_from_zero(self):
        rng = derive_rng(73)
        n, draws = 40, 100
        y = rng.normal(size=n)
        vals = []
        for _ in range(draws):
            z = rng.normal(size=(n, 1))
            vals.append(score_features(feature_matrix(z), y, "t0")[0])
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(draws)
        assert mean - 2 * se > 0

    def test_zero_variance_sentinels(self):
        rng = derive_rng(74)
        y = rng.normal(size=20)
        # the mean of a 0.1 constant rounds away from 0.1
        z = np.column_stack([np.full(20, 3.0), rng.normal(size=20), np.full(20, 0.1)])
        fm = feature_matrix(z)
        for j in (0, 2):
            assert score_features(fm, y, "pearson")[j] == 0.0
            assert score_features(fm, y, "spearman")[j] == 0.0
            assert score_features(fm, y, "kendall")[j] == 0.0
            assert score_features(fm, y, "chatterjee")[j] == -1.0
            assert np.isfinite(score_features(fm, y, "t0")[j])

    def test_rank_methods_scale_to_1e5_rows(self):
        # an O(n^2) kernel would need ~80 GB per n x n temporary here; the
        # batched scorers take ~0.4 s and ~26 MB on a 2-CPU Xeon
        rng = derive_rng(76)
        n = 100_000
        x = rng.uniform(size=n)
        z = np.column_stack([x, x**3, np.round(rng.normal(size=n), 1), np.full(n, 0.1)])
        fm = feature_matrix(z)
        y = 2.0 * x + rng.normal(size=n)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            scores = {m: score_features(fm, y, m)
                      for m in ("t0", "pearson", "spearman", "kendall", "chatterjee")}
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 20.0
        assert peak < 200e6
        for m in ("t0", "spearman", "kendall", "chatterjee"):
            assert scores[m][0] == scores[m][1]
        assert scores["pearson"][3] == scores["kendall"][3] == 0.0

    def test_tree_importance_direction(self):
        rng = derive_rng(75)
        z = rng.normal(size=(60, 3))
        y = z[:, 1] ** 3 + 0.05 * rng.normal(size=60)
        scores = score_features(feature_matrix(z), y, "tree-importance",
                                seed=5, tree_params=TreeParams(n_trees=10, depth=3))
        assert top(scores, 1, "tree-importance").tolist() == [1]  # higher is better
        assert int(np.argmax(scores)) == 1
        with pytest.raises(LengthMismatch, match="3 columns in 2 response groups"):
            score_features(feature_matrix(z), np.column_stack([y, y]), "tree-importance")
        with pytest.raises(LengthMismatch, match="2 seeds for 1 responses"):
            score_features(feature_matrix(z), y, "tree-importance", seed=[5, 6])

    # seeds on both sides of 2**63: a float64 seed list rounds the two large ones
    @pytest.mark.parametrize("seeds", [[2**64 - 1, 2**63 + 5, 7], [7, 2**63 + 5, 2**64 - 1]])
    def test_grouped_tree_importance_matches_one_call_per_group(self, seeds):
        rng = derive_rng(78)
        n, q = 40, 3
        z = rng.normal(size=(n, len(seeds) * q))
        ys = np.column_stack([z[:, i * q] ** 3 + 0.5 * rng.normal(size=n)
                              for i in range(len(seeds))])
        params = TreeParams(n_trees=6, depth=3)
        grouped = score_features(feature_matrix(z), ys, "tree-importance", seed=seeds,
                                 tree_params=params)
        assert grouped.shape == (len(seeds), q)
        for i, seed in enumerate(seeds):
            one = score_features(feature_matrix(z[:, i * q:(i + 1) * q]), ys[:, i],
                                 "tree-importance", seed=seed, tree_params=params)
            assert grouped[i].tobytes() == one.tobytes()
        # one int seeds every group alike
        same = score_features(feature_matrix(z), ys, "tree-importance", seed=seeds[0],
                              tree_params=params)
        assert same[0].tobytes() == grouped[0].tobytes()


def top(scores, k, method):
    return select_top(scores, k, method)[0]


def row_pick(scores, method, k):
    """One row's top k and boundary tie by a full sort and the scalar tie
    rule, t0 lower-better and every other method higher-better: the oracle
    for :func:`select_top`."""
    ascending = scores if method == "t0" else -scores
    ranked = np.sort(ascending)
    tie = k < len(ranked) and abs(ranked[k - 1] - ranked[k]) <= TIE_RTOL * max(
        abs(ranked[k - 1]), abs(ranked[k]), 1.0)
    return [int(j) for j in np.argsort(ascending, kind="stable")[:k]], bool(tie)


class TestSelectTop:
    def test_lower_better(self):
        assert top(np.array([0.1, 0.0, 5.0]), 2, "t0").tolist() == [1, 0]

    def test_k_equals_q(self):
        selection, tie = select_top(np.array([0.3, 0.1, 0.1]), 3, "t0")
        assert sorted(selection.tolist()) == [0, 1, 2]
        assert not tie  # no (k+1)-th score to tie with

    def test_ties_take_lowest_indices(self):
        assert top(np.array([0.5, 0.5, 0.5, 0.9]), 2, "pearson").tolist() == [3, 0]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            select_top(np.array([0.1]), 2, "t0")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # order[:k] would select nothing for 0 and all but the worst for -1
        with pytest.raises(SizeOutOfRange):
            select_top(np.array([0.1, 0.0, 5.0]), k, "t0")

    def test_boundary_tie_flag(self):
        assert select_top(np.array([0.0, 1.0, 1.0, 2.0]), 2, "t0")[1]
        assert not select_top(np.array([0.0, 1.0, 1.5, 2.0]), 2, "t0")[1]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 5), q=st.integers(1, 8), k=st.integers(1, 8),
           levels=st.integers(1, 4), method=st.sampled_from(["t0", "pearson"]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_matches_each_row(self, rows, q, k, levels, method, seed):
        # few distinct levels make ties at the boundary common; the 1e-13
        # nudges tie within TIE_RTOL without being equal
        k = min(k, q)
        rng = np.random.default_rng(seed)
        nudges = 1.0 + 1e-13 * rng.integers(0, 2, size=(rows, q))
        scores = rng.integers(0, levels, size=(rows, q)) * nudges
        selection, tie = select_top(scores, k, method)
        assert selection.shape == (rows, k) and tie.shape == (rows,)
        for r in range(rows):
            assert (selection[r].tolist(), bool(tie[r])) == row_pick(scores[r], method, k)
            one, one_tie = select_top(scores[r], k, method)
            assert one.tolist() == selection[r].tolist() and one_tie == tie[r]


def row_pr_auc(ground_truth, selected):
    """One selection's PR curve and AUC from its sorted points and the
    generic trapezoid sum: the oracle for :func:`pr_auc`."""
    truth = np.asarray(ground_truth, dtype=bool)
    positives, q = int(truth.sum()), truth.shape[0]
    tp = int(truth[np.asarray(selected, dtype=int)].sum())
    points = [(0.0, 1.0), (tp / positives, tp / len(selected)), (1.0, positives / q)]
    points.sort(key=lambda rp: (rp[0], -rp[1]))
    auc = sum((r2 - r1) * (p1 + p2) / 2.0
              for (r1, p1), (r2, p2) in zip(points, points[1:]))
    return points, float(min(max(auc, 0.0), 1.0))


def set_aip(selections, correct_labels, n_selected):
    """The mean over repeats of each selection's share of correct columns,
    by Python sets: the oracle for :func:`average_inclusion_probability`."""
    correct = set(int(j) for j in np.flatnonzero(np.asarray(correct_labels, dtype=bool)))
    return float(np.mean([len(set(sel) & correct) / n_selected for sel in selections]))


@st.composite
def labelled_blocks(draw):
    """Labels over q columns with at least one positive, and an (R, k) block
    of distinct selections. Each row ranks the columns by a random key
    shifted by -1, 0 or 1 on the positives: -1 picks them first, so recall
    1 comes up often, and 1 picks them last, so recall 0 does."""
    q = draw(st.integers(1, 9))
    k = draw(st.integers(1, q))
    shift = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = np.zeros(q, dtype=bool)
    truth[rng.choice(q, size=draw(st.integers(1, q)), replace=False)] = True
    key = rng.random((len(shift), q)) + shift[:, None] * truth
    return truth, np.argsort(key, axis=1)[:, :k]


class TestPrAuc:
    def test_perfect_separation(self):
        truth = np.array([True, True, False, False, False, False])
        points, auc = pr_auc(truth, top(np.array([0.0, 0.1, 5.0, 6.0, 7.0, 8.0]), 2, "t0"))
        assert auc == pytest.approx(1.0)
        assert points.shape == (3, 2)
        assert points[0].tolist() == [0.0, 1.0] and points[-1][0] == 1.0

    def test_single_positive_closed_forms(self):
        q, k = 24, 3
        truth = np.zeros(q, dtype=bool)
        truth[5] = True
        scores = np.arange(q, dtype=float)
        # positive ranked first
        s = scores.copy()
        s[5] = 100.0
        assert pr_auc(truth, top(s, k, "pearson"))[1] == pytest.approx(
            single_positive_auc(q, True, k))
        # positive ranked last
        s = scores.copy()
        s[5] = -100.0
        assert pr_auc(truth, top(s, k, "pearson"))[1] == pytest.approx(
            single_positive_auc(q, False, k))

    def test_random_scores_match_mixture_mean(self):
        rng = derive_rng(76)
        q, k, trials = 24, 3, 4000
        truth = np.zeros(q, dtype=bool)
        truth[0] = True
        selections = top(rng.uniform(size=(trials, q)), k, "pearson")
        curves, aucs = pr_auc(truth, selections)
        assert curves.shape == (trials, 3, 2) and aucs.shape == (trials,)
        expected = (k / q) * single_positive_auc(q, True, k) \
            + (1 - k / q) * single_positive_auc(q, False, k)
        se = aucs.std(ddof=1) / np.sqrt(trials)
        assert abs(aucs.mean() - expected) <= 3 * se

    def test_invariant_under_increasing_score_transform(self):
        rng = derive_rng(77)
        truth = rng.uniform(size=10) < 0.3
        if not truth.any():
            truth[0] = True
        raw = rng.normal(size=10)
        base = pr_auc(truth, top(raw, 3, "pearson"))[1]
        for g in (np.exp, lambda v: v**3, lambda v: 10 * v - 4):
            transformed = pr_auc(truth, top(g(raw), 3, "pearson"))[1]
            assert transformed == pytest.approx(base)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            pr_auc(np.zeros(4, dtype=bool), [0, 1])
        with pytest.raises(NoPositives):
            pr_auc(np.zeros(4, dtype=bool), [[0, 1], [2, 3]])

    @settings(max_examples=300, deadline=None)
    @given(block=labelled_blocks())
    # recall 0, recall 1 below k = q, and k = q
    @example(block=(np.array([True, False, False]), np.array([[1, 2], [0, 1]])))
    @example(block=(np.array([True, False, True]), np.array([[2, 0, 1], [1, 0, 2]])))
    def test_block_matches_the_row_oracles(self, block):
        truth, selections = block
        k = selections.shape[1]
        curves, aucs = pr_auc(truth, selections)
        rows = [row_pr_auc(truth, sel) for sel in selections.tolist()]
        assert curves.tolist() == [[list(pt) for pt in curve] for curve, _ in rows]
        assert aucs.tolist() == [auc for _, auc in rows]
        for sel, (curve, auc) in zip(selections, rows):
            one_curve, one_auc = pr_auc(truth, sel)
            assert one_curve.tolist() == [list(pt) for pt in curve] and one_auc == auc
        assert (average_inclusion_probability(selections, truth, k)
                == set_aip(selections.tolist(), truth, k))


class TestAIP:
    def test_all_correct(self):
        labels = [True, True, True, False]
        sels = np.array([[0, 1, 2]] * 50)
        assert average_inclusion_probability(sels, labels, 3) == 1.0

    def test_none_correct(self):
        labels = [True, True, True, False]
        sels = np.array([[3, 3, 3]] * 10)  # degenerate but sized correctly
        assert average_inclusion_probability(sels, labels, 3) == pytest.approx(0.0)

    def test_half_and_half(self):
        labels = [True, True, True, False, False, False]
        sels = np.array([[0, 1, 2]] * 25 + [[3, 4, 5]] * 25)
        assert average_inclusion_probability(sels, labels, 3) == pytest.approx(0.5)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            average_inclusion_probability(np.array([[0, 1]]), [True, True], 3)
        with pytest.raises(SizeMismatch):  # ragged rows
            average_inclusion_probability([[0, 1], [1]], [True, True], 2)
        with pytest.raises(SizeMismatch):  # one selection, not a block of them
            average_inclusion_probability(np.array([0, 1]), [True, True], 2)

    def test_uniform_random_selector_matches_prevalence(self):
        rng = derive_rng(78)
        q, k, c, repeats = 20, 4, 7, 4000
        labels = np.zeros(q, dtype=bool)
        labels[:c] = True
        sels = np.array([rng.choice(q, size=k, replace=False) for _ in range(repeats)])
        aip = average_inclusion_probability(sels, labels, k)
        per_repeat = [len(set(s) & set(range(c))) / k for s in sels]
        se = np.std(per_repeat, ddof=1) / np.sqrt(repeats)
        assert abs(aip - c / q) <= 3 * se


class TestGenerators:
    def test_synth_3var_noiseless_signal(self):
        ds = synth_3var(50, 0.0, seed=3)
        expected = 2 * ds.x[:, 0] ** 3 + 5 * ds.x[:, 2] + 10
        assert np.allclose(ds.y, expected)

    def test_synth_3var_single_row(self):
        ds = synth_3var(1, 0.5, seed=4)
        assert ds.n == 1 and ds.d == 3

    def test_synth_3var_reproducible(self):
        a = synth_3var(20, 0.1, seed=9)
        b = synth_3var(20, 0.1, seed=9)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_common_inputs_across_noise_levels(self):
        from symrank.core import derive_rng as dr
        a = synth_3var(20, 0.0, rng=dr(5, 1))
        b = synth_3var(20, 0.1, rng=dr(5, 1))
        assert np.array_equal(a.x, b.x)

    def test_synth_candidates_noiseless_identity(self):
        ds, fm = synth_candidates(10, "x", ["x"], 0.0, seed=6)
        assert np.allclose(ds.y, ds.x[:, 0])
        assert np.allclose(fm.z[:, 0], ds.x[:, 0])

    def test_synth_candidates_table_setup(self):
        ds, fm = synth_candidates(
            100, "sin(4*x)", ["x", "sin(4*x+0.2)", "sin(4*x+0.1)", "sin(4*x)"],
            0.1, seed=7)
        assert fm.q == 4
        assert np.allclose(fm.z[:, 3], np.sin(4 * ds.x[:, 0]))
        # the true transform is the most rank-concordant with y
        t0s = [t0_divergence(fm.z[:, j], ds.y) for j in range(4)]
        assert int(np.argmin(t0s)) == 3


# transforms for candidate chunks: the builtin functions, powers, division
# and constants; "2" ties every response and "1/(x-x)" leaves the reals
CANDIDATE_EXPRS = ("x", "sin(4*x+0.2)", "cos(3*x)", "exp(x)", "exp(-x**2)", "x**3",
                   "x**2", "x**0.5", "1/(1+x**2)", "x/3", "-x+0.5", "sin(x)*cos(x)",
                   "2", "1/(x-x)")


def synth_or_error(*args, **kwargs):
    try:
        return synth_candidates(*args, **kwargs)
    except (NonFiniteData, TiesInResponse) as exc:
        return type(exc)


class TestCandidateChunks:
    @given(n=st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 33, 64, 100]) | st.integers(1, 80),
           truth=st.sampled_from(CANDIDATE_EXPRS),
           candidates=st.lists(st.sampled_from(CANDIDATE_EXPRS), min_size=1, max_size=5),
           noise_var=st.sampled_from([0.0, 0.01, 0.1, 2.0]),
           seed=st.integers(0, 2**32), repeats=st.integers(1, 9), size=st.integers(1, 4))
    @example(n=1, truth="x", candidates=["x"], noise_var=0.1, seed=0, repeats=5, size=2)
    @example(n=9, truth="2", candidates=["x"], noise_var=0.0, seed=1, repeats=3, size=3)
    @settings(max_examples=150, deadline=None)
    def test_chunks_are_bit_identical_to_synth_candidates(self, n, truth, candidates,
                                                          noise_var, seed, repeats, size):
        # chunks of `size` repeats, the last one short when size does not divide
        truth_op = unary_from_expr(truth)
        ops = [unary_from_expr(c) for c in candidates]
        q = len(ops)
        with np.errstate(all="ignore"):
            for lo in range(0, repeats, size):
                reps = range(lo, min(lo + size, repeats))
                built = [synth_or_error(n, truth_op, ops, noise_var, rng=derive_rng(seed, r))
                         for r in reps]
                failed = [b for b in built if isinstance(b, type)]
                if failed:
                    with pytest.raises(failed[0]):
                        evalsel._candidate_chunk(n, truth_op, ops, noise_var, seed, reps)
                    continue
                rows, ys = evalsel._candidate_chunk(n, truth_op, ops, noise_var, seed, reps)
                assert rows.shape == (len(reps), q, n) and rows.flags.c_contiguous
                assert ys.shape == (len(reps), n)
                for i, (ds, fm) in enumerate(built):
                    assert ys[i].tobytes() == ds.y.tobytes()
                    assert rows[i].tobytes() == np.ascontiguousarray(fm.z.T).tobytes()


class TestExperimentHarness:
    def test_signal_experiment_shape_and_determinism(self):
        cfg = SignalExperimentConfig(
            n=30, noise_vars=(0.0, 0.1), architectures=("bu",),
            methods=("t0", "kendall"), repeats=3, n_selected=3, seed=11)
        a = run_signal_experiment(cfg)
        b = run_signal_experiment(cfg)
        assert a.primary_document() == b.primary_document()
        assert len(a.runs) == 2
        run = a.runs[0]
        assert run["q"] == 24 and len(run["correct_columns"]) == 12
        for m in run["methods"]:
            assert 0.0 <= m["aip"] <= 1.0
            assert len(m["selections"]) == 3
            assert all(0.0 <= v <= 1.0 for v in m["pr_auc"])

    def test_candidates_experiment_inclusion(self):
        # the truth is matched by its parsed name, which has no spaces
        cfg = CandidatesExperimentConfig(
            truth="sin(4 * x)", candidates=("x", "sin(4*x)"),
            n=80, noise_var=0.05, repeats=5, n_selected=1,
            methods=("t0", "pearson"), seed=13)
        rep = run_candidates_experiment(cfg)
        (run,) = rep.runs
        assert run["truth_column"] == 1
        for m in run["methods"]:
            assert set(m["inclusion"]) == {"x", "sin(4*x)"}
            assert m["truth_inclusion"] == m["inclusion"]["sin(4*x)"]
            assert m["aip"] == m["truth_inclusion"]  # n_selected = 1

    def test_repeats_must_expand_to_the_same_features(self):
        # exp applied four times overflows on some draws only, and overflowing
        # columns are dropped: repeat 0 keeps 12 columns, repeat 2 keeps 13
        cfg = SignalExperimentConfig(
            n=4, noise_vars=(0.0,), architectures=("uuuu",), unary_ops=("id", "exp"),
            binary_ops=("+",), methods=("t0",), repeats=6, n_selected=2, seed=0)
        with pytest.raises(DimensionMismatch, match="uuuu/0: repeat 2"):
            run_signal_experiment(cfg)

    def test_truth_must_be_a_candidate(self):
        with pytest.raises(ConfigError, match=r"config key 'truth': 'cos\(x\)' is not among"):
            CandidatesExperimentConfig(truth="cos(x)", candidates=("x",), n=10, repeats=1,
                                       seed=1)

    @pytest.mark.parametrize("run, cfg", [
        (run_signal_experiment, SignalExperimentConfig(n=20, repeats=0)),
        (run_candidates_experiment,
         CandidatesExperimentConfig(truth="x", candidates=("x",), n=20, repeats=0)),
        (partial(run_csv_experiment, synth_3var(20, 0.1)), CsvExperimentConfig(repeats=-1)),
    ], ids=["signal", "candidates", "csv"])
    def test_no_repeats_rejected(self, run, cfg):
        # the runner checks it, as select_top checks k
        with pytest.raises(SizeOutOfRange, match=f"repeats={cfg.repeats} runs no repeat"):
            run(cfg)


# a small valid config of each mode, as built directly and as the CLI reads it
LIBRARY_CONFIGS = {
    "signal": (SignalExperimentConfig, {"n": 20, "noise_vars": (0.0,), "architectures": ("bu",),
                                        "methods": ("t0",), "repeats": 2, "seed": 1}),
    "candidates": (CandidatesExperimentConfig, {"truth": "x", "candidates": ("x", "sin(4*x)"),
                                                "n": 20, "repeats": 2, "methods": ("t0",),
                                                "seed": 1}),
    "csv": (CsvExperimentConfig, {"architectures": ("bu",), "methods": ("t0",), "seed": 1}),
}


class TestConfigRules:
    """Each rule a config type checks when it is built: the CLI's semantic
    cases (tests/test_cli.py) raise the same ConfigError on the library path."""

    @pytest.mark.parametrize("mode, change", [
        ("candidates", {"truth": "cos(x)"}),
        # repeated run labels and candidate expressions
        ("signal", {"noise_vars": (0.1, 0.1)}),
        ("signal", {"noise_vars": (0.1, 0.1000001)}),
        ("signal", {"architectures": ("bu", "ub", "bu")}),
        ("csv", {"architectures": ("bu", "bu")}),
        ("candidates", {"candidates": ("x", "sin(4*x)", "x", "sin(4*x)")}),
        ("candidates", {"candidates": ("x", "sin(4*x)", "sin(4 * x)")}),
        ("candidates", {"truth": "x", "candidates": ("x", "x"), "n": 30, "repeats": 4}),
        # unknown and repeated methods
        ("signal", {"methods": ("lasso",)}),
        ("candidates", {"methods": ("t0", 3)}),
        ("csv", {"methods": ("kendall", "t0", "kendall")}),
        # operators, architectures and expressions that do not build
        ("signal", {"unary_ops": ("tan",)}),
        ("csv", {"binary_ops": ("+", "+")}),
        ("signal", {"architectures": ("bx",)}),
        ("candidates", {"truth": "x +"}),
        ("candidates", {"candidates": ("x", "tan(x)")}),
    ])
    def test_library_error_is_the_cli_error(self, mode, change, tmp_path, capsys,
                                            monkeypatch):
        cls, valid = LIBRARY_CONFIGS[mode]
        fields = {**valid, **change}
        with pytest.raises(ConfigError) as built:
            cls(**fields)
        monkeypatch.setattr(cli, "load_csv", None)  # the CLI fails before reading a CSV
        raw = {"mode": mode, **{k: list(v) if isinstance(v, tuple) else v
                                for k, v in fields.items()}}
        if mode == "csv":
            raw.update(input="data.csv", response="y")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {built.value}"]


def per_repeat_entry(method, picks, cell, n_selected):
    """One method's report entry from its (selection, tie) per repeat,
    scored one repeat at a time by the row oracles, with its cell's extras."""
    selections, labels = [sel for sel, _ in picks], cell.labels
    entry = {"method": method, "direction": "lower" if method == "t0" else "higher",
             "selections": selections,
             "boundary_tie_repeats": int(sum(tie for _, tie in picks))}
    if labels is not None:
        prs = [row_pr_auc(labels, sel) for sel in selections]
        entry["aip"] = set_aip(selections, labels, n_selected)
        entry["pr_auc"] = [auc for _, auc in prs]
        entry["pr_auc_median"] = float(np.median(entry["pr_auc"]))
        entry["pr_curves"] = [[list(pt) for pt in curve] for curve, _ in prs]
    return {**entry, **cell.extras(np.array(selections))}


def per_repeat_cells(cells, methods, repeats, n_selected, seed, tree):
    """The experiment loop building, scoring and selecting one repeat per
    call: the oracle for the chunked ``evalsel._run_cells``."""
    runs = []
    for cell in cells:
        picks = [[] for _ in methods]
        for r in range(repeats):
            rows, ys = cell.data(range(r, r + 1))
            fm = FeatureMatrix(np.array(rows[0].T), cell.exprs)
            for mi, method in enumerate(methods):
                scores = score_features(fm, ys[0], method, tree_params=tree,
                                        seed=evalsel._method_seed(seed, *cell.seed_key, r, mi))
                picks[mi].append(row_pick(scores, method, n_selected))
        runs.append({**cell.run, "methods": [per_repeat_entry(method, picks[mi], cell, n_selected)
                                             for mi, method in enumerate(methods)]})
    return runs, {f"{c.key}/{m}": 0.0 for c in cells for m in methods}


class TestChunkedRepeats:
    @pytest.mark.parametrize("run, cfg, n, q", [
        (run_signal_experiment,
         SignalExperimentConfig(n=100, noise_vars=(0.0, 0.1), methods=evalsel.SCORE_METHODS,
                                repeats=8, seed=4, tree=TreeParams(n_trees=3, depth=2)),
         100, 24),
        (run_candidates_experiment,
         CandidatesExperimentConfig(truth="sin(4*x)",
                                    candidates=("x", "x**3", "sin(4*x+0.2)", "sin(4*x)"),
                                    repeats=10, methods=evalsel.SCORE_METHODS[:5], seed=2),
         500, 4),
        # tree importance listed between rank methods, which score before it
        (run_candidates_experiment,
         CandidatesExperimentConfig(truth="sin(4*x)",
                                    candidates=("x", "x**3", "sin(4*x+0.2)", "sin(4*x)"),
                                    repeats=10, seed=2, tree=TreeParams(n_trees=3, depth=2),
                                    methods=("kendall", "tree-importance", "t0", "pearson")),
         500, 4),
        # one fixed matrix per architecture: only tree importance's seeds vary
        (partial(run_csv_experiment, synth_3var(100, 0.1, seed=6)),
         CsvExperimentConfig(methods=evalsel.SCORE_METHODS, repeats=8, seed=9,
                             tree=TreeParams(n_trees=3, depth=2), active_variables=(0, "x3")),
         100, 24),
    ])
    def test_report_bytes_match_the_per_repeat_loop(self, run, cfg, n, q, monkeypatch):
        # the first cell's repeats split into full chunks and a shorter last one
        size = evalsel.CHUNK_VALUES // (n * q)
        assert 1 < size < cfg.repeats and cfg.repeats % size
        chunked = run(cfg)
        monkeypatch.setattr(evalsel, "_run_cells", per_repeat_cells)
        oracle = run(cfg)
        assert chunked.runtimes.keys() == oracle.runtimes.keys()
        assert (json.dumps(chunked.primary_document(), sort_keys=True)
                == json.dumps(oracle.primary_document(), sort_keys=True))

    def test_rank_methods_score_a_chunk_per_call(self, monkeypatch):
        calls = []
        score = evalsel.score_features

        def counted(fm, y, method, **kwargs):
            calls.append((method, fm.q, np.shape(y)))
            return score(fm, y, method, **kwargs)

        monkeypatch.setattr(evalsel, "score_features", counted)
        n = evalsel.CHUNK_VALUES // 8  # four repeats of (n, 2) fill a chunk
        cfg = CandidatesExperimentConfig(truth="x", candidates=("x", "x**2"), n=n,
                                         repeats=9, methods=("kendall", "tree-importance"),
                                         seed=1, tree=TreeParams(n_trees=2, depth=1))
        run_candidates_experiment(cfg)
        # one call per chunk and method, in chunk order, the rank method first
        assert calls == [(method, q, (n, g)) for q, g in [(8, 4), (8, 4), (2, 1)]
                         for method in ("kendall", "tree-importance")]

    @pytest.mark.parametrize("methods", [("t0", "tree-importance"),
                                         ("tree-importance", "kendall"),
                                         ("t0", "tree-importance", "kendall")])
    def test_tree_importance_reads_views_of_the_chunk(self, monkeypatch, methods):
        # each repeat's forest grows on its own columns of the chunk's matrix,
        # uncopied, and the chunk's features are held once: no stacked copy,
        # and no shared sort once the forests grow
        n, q = 200_000, 4
        calls = {}
        score = evalsel.score_features

        def traced(fm, y, method, **kwargs):
            calls.setdefault(method, []).append((fm.z, tracemalloc.get_traced_memory()[0]))
            return score(fm, y, method, **kwargs)

        def forest(z, *args):
            calls.setdefault("forest", []).append((z, tracemalloc.get_traced_memory()[0]))
            return ensemble_importance(z, *args)

        monkeypatch.setattr(evalsel, "score_features", traced)
        monkeypatch.setattr("symrank.tree.ensemble_importance", forest)
        monkeypatch.setattr(evalsel, "CHUNK_VALUES", 2 * n * q)
        cfg = CandidatesExperimentConfig(
            truth="x", candidates=("x", "x**2", "x**3", "sin(4*x)"), n=n, repeats=2,
            methods=methods, seed=5, tree=TreeParams(n_trees=1, depth=1))
        tracemalloc.start()
        try:
            run_candidates_experiment(cfg)
        finally:
            tracemalloc.stop()
        # every method scores the one chunk matrix in one call
        ((chunk, _),) = calls["tree-importance"]
        assert chunk.shape == (n, 2 * q)
        assert all(len(calls[m]) == 1 and calls[m][0][0] is chunk for m in methods)
        (first, held), (second, _) = calls["forest"]
        assert first.shape == second.shape == (n, q)
        assert np.shares_memory(first, chunk) and np.shares_memory(second, chunk)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, chunk[:, :q]) and np.array_equal(second, chunk[:, q:])
        # the chunk's features and responses, with room for neither a second
        # copy of the features nor the shared sort of them
        assert chunk.nbytes < held < 1.5 * chunk.nbytes

    def test_csv_chunk_of_one_repeat_is_the_report_matrix_uncopied(self, monkeypatch):
        # each repeat is a chunk of its own: every scorer and every forest
        # reads the matrix generate_report returned, not a copy of it
        calls = {"report": [], "kendall": [], "tree-importance": [], "forest": []}
        generate, score = evalsel.generate_report, evalsel.score_features

        def report(*args):
            built = generate(*args)
            calls["report"].append(built.features.z)
            return built

        def traced(fm, y, method, **kwargs):
            calls[method].append(fm.z)
            return score(fm, y, method, **kwargs)

        def forest(z, *args):
            calls["forest"].append(z)
            return ensemble_importance(z, *args)

        monkeypatch.setattr(evalsel, "generate_report", report)
        monkeypatch.setattr(evalsel, "score_features", traced)
        monkeypatch.setattr("symrank.tree.ensemble_importance", forest)
        monkeypatch.setattr(evalsel, "CHUNK_VALUES", 1)
        cfg = CsvExperimentConfig(architectures=("bu",), methods=("kendall", "tree-importance"),
                                  repeats=2, seed=1, tree=TreeParams(n_trees=1, depth=1))
        run_csv_experiment(synth_3var(50, 0.1, seed=2), cfg)
        (z,) = calls["report"]
        for read in calls["kendall"] + calls["tree-importance"] + calls["forest"]:
            assert read.shape == z.shape and np.shares_memory(read, z)
            assert np.array_equal(read, z)
        assert [len(calls[k]) for k in ("kendall", "tree-importance", "forest")] == [2, 2, 2]

    def test_memory_stays_bounded_at_1e5_rows(self):
        # each (1e5, 4) repeat is its own chunk: ~37 MB of tracemalloc peak on
        # a 2-CPU Xeon, against ~120 MB with the four repeats stacked at once
        cfg = CandidatesExperimentConfig(
            truth="sin(4*x)", candidates=("x", "x**3", "sin(4*x+0.2)", "sin(4*x)"),
            n=100_000, repeats=4, methods=evalsel.SCORE_METHODS[:5], seed=3)
        tracemalloc.start()
        try:
            report = run_candidates_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6
        assert all(len(m["selections"]) == 4 for m in report.runs[0]["methods"])
