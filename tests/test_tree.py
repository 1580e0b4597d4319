import dataclasses
import json
import time
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symrank import tree as tree_module
from symrank.core import derive_rng, make_partition2
from symrank.errors import (
    ColumnMismatch,
    ConfigError,
    DimensionMismatch,
    EmptySide,
    LengthMismatch,
    NonFiniteData,
    Unsplittable,
)
from symrank.partition import oracle_varying_size
from symrank.stats import bayes_permutation, ranking_metric_T
from symrank.tree import (
    FOREST_VALUES,
    LEVEL_VALUES,
    SplitRule,
    _column_split_losses,
    _grow_levels,
    _rank_class_leaders,
    _response_pairs,
    _shared_workspace,
    best_split,
    ensemble_importance,
    grow_tree,
    induced_permutation,
    predict_rows,
    tree_from_json,
    tree_to_json,
)

FIG2A_X = np.array([[0.1], [0.3], [0.5], [0.6], [0.9]])
FIG2A_Y = np.array([5.0, 2.1, 1.0, 2.0, 4.0])


def rule_loss(z, y, rule):
    """The two-sided SSE of a rule that sends rows to both sides."""
    return make_partition2(y, np.flatnonzero(z[:, rule.coordinate] <= rule.threshold)).total_sse


def node_rows(tree, z):
    """The rows of z that reach each node, routed from the root as
    predict_rows routes them: one increasing tuple of ints per node, in
    preorder."""
    rows = [()] * tree.coordinate.size

    def route(i, idx):
        rows[i] = tuple(idx.tolist())
        k = tree.coordinate[i]
        if k >= 0:
            left = z[idx, k] <= tree.threshold[i]
            route(i + 1, idx[left])
            route(tree.right[i], idx[~left])

    route(0, np.arange(z.shape[0]))
    return rows


def leaf_ids(tree):
    return np.flatnonzero(tree.coordinate < 0).tolist()


def internal_ids(tree):
    return np.flatnonzero(tree.coordinate >= 0).tolist()


def node_sse(y):
    y = np.asarray(y, float)
    return float(np.sum((y - y.mean()) ** 2))


def brute_force_best_split(z, y):
    """Independent scan of every (coordinate, observed threshold) pair."""
    best = None
    n, q = z.shape
    for k in range(q):
        for c in sorted(set(z[:, k])):
            mask = z[:, k] <= c
            if not mask.any() or mask.all():
                continue
            val = node_sse(y[mask]) + node_sse(y[~mask])
            key = (val, k, c)
            if best is None or key < best:
                best = key
    return best


class TestSplitMeans:
    def test_basic(self):
        p = make_partition2([1, 2, 10], (0, 1))
        assert (p.mean_left, p.mean_right) == (1.5, 10.0)

    def test_singletons(self):
        p = make_partition2([3.0, 7.0], (0,))
        assert (p.mean_left, p.mean_right) == (3.0, 7.0)

    def test_empty_side(self):
        with pytest.raises(EmptySide):
            make_partition2([1, 2, 3, 4], range(4))


class TestBestSplit:
    def test_three_point_example(self):
        z = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 10.0])
        rule = best_split(z, y)
        assert rule == SplitRule(0, 2.0)
        assert rule_loss(z, y, rule) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        # column 0's cube and exp join its rank class, its negation does not,
        # and a constant column admits no cut; a random subset of the
        # columns in random order, on 1 to 24 rows
        rng = derive_rng(31)
        for n in [1, 2] * 5 + rng.integers(3, 25, size=110).tolist():
            x = rng.integers(0, 5, size=(n, 3)).astype(float)
            z = np.column_stack([x[:, 0], x[:, 1], x[:, 0] ** 3, -x[:, 0], np.full(n, 2.0),
                                 np.exp(x[:, 0]), x[:, 2]])
            z = z[:, rng.permutation(7)[:int(rng.integers(1, 8))]]
            y = rng.normal(size=n)
            expected = brute_force_best_split(z, y)
            if expected is None:
                with pytest.raises(Unsplittable):
                    best_split(z, y)
                continue
            loss, k, threshold = expected
            rule = best_split(z, y)
            assert rule_loss(z, y, rule) == pytest.approx(loss)
            # the brute-force partition; a negated column may realize it
            # with the sides swapped, and its loss then ties up to rounding
            left = z[:, rule.coordinate] <= rule.threshold
            assert np.array_equal(left, z[:, k] <= threshold) \
                or np.array_equal(left, z[:, k] > threshold)
            if np.array_equal(left, z[:, k] <= threshold):
                assert (rule.coordinate, rule.threshold) == (k, threshold)
            # the smallest coordinate of its rank class
            pair_order = np.sign(z[:, :, None] - z[:, None, :])
            assert not any(np.array_equal(pair_order[:, j], pair_order[:, rule.coordinate])
                           for j in range(rule.coordinate))

    def test_monotone_column_equals_varying_size_oracle(self):
        rng = derive_rng(32)
        x = rng.uniform(size=(30, 1))
        y = np.exp(2.0 * x[:, 0])  # strictly monotone in the column
        rule = best_split(x, y)
        _, oracle = oracle_varying_size(y)
        assert rule_loss(x, y, rule) == pytest.approx(oracle.total_sse)

    def test_monotone_column_beats_noise_columns(self):
        rng = derive_rng(46)
        n = 120
        x = rng.uniform(size=(n, 1))
        noise = rng.normal(size=(n, 2))
        z = np.column_stack([noise[:, 0], x[:, 0], noise[:, 1]])
        y = np.exp(2.0 * x[:, 0])
        rule = best_split(z, y)
        assert rule.coordinate == 1
        _, oracle = oracle_varying_size(y)
        assert rule_loss(z, y, rule) == pytest.approx(oracle.total_sse)

    def test_duplicate_columns_tie_to_smaller_k(self):
        rng = derive_rng(33)
        col = rng.uniform(size=12)
        z = np.column_stack([col, col])
        y = rng.normal(size=12)
        assert best_split(z, y).coordinate == 0

    def test_unsplittable(self):
        with pytest.raises(Unsplittable):
            best_split(np.array([[1.0]]), np.array([3.0]))
        with pytest.raises(Unsplittable):
            best_split(np.array([[1.0], [2.0]]), np.array([5.0, 5.0]))
        with pytest.raises(Unsplittable):  # constant column, varying y
            best_split(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))

    def test_children_sse_never_exceed_parent(self):
        rng = derive_rng(34)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            y = rng.normal(size=n)
            z = rng.normal(size=(n, 2))
            parent = node_sse(y)
            for c in z[:-1, 0]:
                mask = z[:, 0] <= c
                if not mask.any() or mask.all():
                    continue
                child_sum = node_sse(y[mask]) + node_sse(y[~mask])
                assert child_sum <= parent + 1e-9 * max(parent, 1.0)
                mu_l, mu_r = y[mask].mean(), y[~mask].mean()
                if abs(child_sum - parent) <= 1e-12 * max(parent, 1.0):
                    assert abs(mu_l - mu_r) < 1e-6

    def test_multiway_monotone_invariance(self):
        rng = derive_rng(35)
        transforms = [np.exp, lambda v: v**3, lambda v: 3 * v + 1,
                      np.arctan, lambda v: v / (1 + np.abs(v))]
        for _ in range(60):
            n = int(rng.integers(5, 25))
            q = int(rng.integers(1, 4))
            z = rng.normal(size=(n, q))
            y = rng.normal(size=n)
            rule = best_split(z, y)
            maps = [transforms[int(rng.integers(len(transforms)))] for _ in range(q)]
            z2 = np.column_stack([maps[k](z[:, k]) for k in range(q)])
            rule2 = best_split(z2, y)
            assert rule2.coordinate == rule.coordinate
            mask = z[:, rule.coordinate] <= rule.threshold
            mask2 = z2[:, rule2.coordinate] <= rule2.threshold
            assert np.array_equal(mask, mask2)
            # the threshold maps through the transform
            assert rule2.threshold == pytest.approx(
                float(maps[rule.coordinate](rule.threshold)))


class TestLogPrincipalDecisionRatio:
    # the log of the principal decision ratio of two rules is their loss difference
    def test_three_point_example(self):
        z = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 10.0])
        assert rule_loss(z, y, SplitRule(0, 1.0)) - rule_loss(z, y, SplitRule(0, 2.0)) \
            == pytest.approx(31.5)

    def test_argmin_dominates_every_rule(self):
        rng = derive_rng(36)
        z = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        best = rule_loss(z, y, best_split(z, y))
        for k in range(2):
            for c in np.sort(z[:, k])[:-1]:  # every rule that splits the node
                assert rule_loss(z, y, SplitRule(k, float(c))) - best >= -1e-12


class TestGrowPredict:
    def test_depth_zero_single_leaf(self):
        tree = grow_tree(FIG2A_X, FIG2A_Y, 0)
        assert tree.coordinate.tolist() == [-1]
        assert tree.mean[0] == pytest.approx(FIG2A_Y.mean())
        perm = induced_permutation(tree, FIG2A_X)
        assert perm.order == (0, 1, 2, 3, 4)  # stable tie rule: identity

    def test_depth_two_realizes_three_components(self):
        tree = grow_tree(FIG2A_X, FIG2A_Y, 2)
        rows = node_rows(tree, FIG2A_X)
        assert sorted(rows[i] for i in leaf_ids(tree)) == [(0,), (1, 2, 3), (4,)]

    def test_squared_feature_realizes_oracle_partition(self):
        # same responses on inputs centered at zero: one split on x^2
        # separates the two extreme responses from the middle three
        x_centered = FIG2A_X - 0.5
        z = x_centered**2
        rule = best_split(z, FIG2A_Y)
        _, oracle = oracle_varying_size(FIG2A_Y)
        assert rule_loss(z, FIG2A_Y, rule) == pytest.approx(oracle.total_sse)
        mask = z[:, 0] <= rule.threshold
        assert set(np.flatnonzero(~mask)) == set(oracle.right)

    def test_depth_one_predictions(self):
        z = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 10.0])
        tree = grow_tree(z, y, 1)
        assert np.allclose(predict_rows(tree, z), [1.5, 1.5, 10.0])

    def test_training_row_prediction_is_leaf_mean(self):
        rng = derive_rng(37)
        z = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = grow_tree(z, y, 3)
        routed = node_rows(tree, z)
        predicted = predict_rows(tree, z)
        for leaf in leaf_ids(tree):
            rows = list(routed[leaf])
            for i in rows:
                assert predicted[i] == pytest.approx(float(y[rows].mean()))

    def test_min_leaf_stops_growth(self):
        # nodes smaller than 2*min_leaf become leaves instead of splitting
        rng = derive_rng(38)
        z = rng.normal(size=(16, 1))
        y = rng.normal(size=16)
        tree = grow_tree(z, y, 10, min_leaf=4)
        sizes = np.array([len(rows) for rows in node_rows(tree, z)])
        assert (sizes[internal_ids(tree)] >= 8).all()
        assert (sizes[leaf_ids(tree)] < 8).any()

    def test_column_mismatch(self):
        tree = grow_tree(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), 1)
        with pytest.raises(ColumnMismatch):
            predict_rows(tree, [[1.0, 2.0]])

    def test_interpolator_column_dominates(self):
        rng = derive_rng(39)
        n = 30
        noise_cols = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        z = np.column_stack([noise_cols, y])  # y itself as the last feature
        rule = best_split(z, y)
        assert rule.coordinate == 3
        _, oracle = oracle_varying_size(y)
        assert rule_loss(z, y, rule) == pytest.approx(oracle.total_sse)

    @pytest.mark.parametrize("grow", [
        lambda z, y: grow_tree(z, y, 2),
        best_split,
        lambda z, y: ensemble_importance(z, y, 2, 2, seed=0),
    ])
    def test_response_length_must_match_rows(self, grow):
        z = np.array([[0.1], [0.5], [0.9]])
        for y in ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0]):
            with pytest.raises(LengthMismatch):
                grow(z, np.array(y))

    @pytest.mark.parametrize("grow", [
        lambda z, y: grow_tree(z, y, 2),
        best_split,
        lambda z, y: ensemble_importance(z, y, 2, 2, seed=0),
    ])
    @pytest.mark.parametrize("z, y", [
        # a cut between two NaNs would split at threshold NaN and leave an
        # empty leaf, and -inf would become a threshold: neither is a
        # document tree_from_json accepts
        ([[0.0], [np.nan], [np.nan]], [0.0, 0.0, 1.0]),
        ([[-np.inf], [1.0], [2.0]], [0.0, 0.0, 1.0]),
        ([[0.0, 1.0], [2.0, np.inf], [1.0, 3.0]], [0.0, 0.0, 1.0]),
        ([[0.0], [1.0], [2.0]], [0.0, np.nan, 1.0]),
        ([[0.0], [1.0], [2.0]], [0.0, -np.inf, 1.0]),
    ])
    def test_non_finite_input_rejected(self, grow, z, y):
        with pytest.raises(NonFiniteData):
            grow(np.array(z), np.array(y))

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [np.inf, 0.1], [0.2, -np.inf]])
    def test_predict_rejects_non_finite_rows(self, row):
        # such a row used to get the mean of whichever leaf its comparisons led to
        tree = grow_tree(np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]), [0.0, 1.0, 3.0], 2)
        with pytest.raises(NonFiniteData):
            predict_rows(tree, np.array([[0.5, 0.5], row]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("grow", [
        lambda z, y: grow_tree(z, y, 3),
        best_split,
        lambda z, y: ensemble_importance(z, y, 5, 3, seed=0),
        lambda z, y: oracle_varying_size(y),
    ], ids=["grow_tree", "best_split", "ensemble_importance", "oracle_varying_size"])
    def test_too_large_response_rejected(self, grow):
        # at 1e160 the squared sums of n = 100 responses overflow: the forest
        # scored all zeros and the tree grew one leaf
        rng = np.random.default_rng(4)
        z = rng.uniform(size=(100, 3))
        y = 2 * z[:, 0] ** 3 + 5 * z[:, 2] + 10 + 0.01 * rng.standard_normal(100)
        grow(z, 1e150 * y)
        with pytest.raises(NonFiniteData, match="response too large"):
            grow(z, 1e160 * y)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_no_columns_rejected(self, depth):
        with pytest.raises(DimensionMismatch):
            grow_tree(np.empty((3, 0)), np.array([1.0, 2.0, 3.0]), depth)


class TestSerialization:
    def test_round_trip(self):
        rng = derive_rng(40)
        z = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        tree = grow_tree(z, y, 3)
        doc = tree_to_json(tree)
        rebuilt = tree_from_json(doc)
        assert np.array_equal(predict_rows(tree, z), predict_rows(rebuilt, z))
        # the rebuilt tree holds the grown tree's arrays
        for field in dataclasses.fields(tree):
            assert np.array_equal(getattr(rebuilt, field.name), getattr(tree, field.name),
                                  equal_nan=True)
        with pytest.raises(ColumnMismatch):
            predict_rows(rebuilt, z[:, :1])

    def test_document_shape(self):
        z = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 10.0])
        doc = tree_to_json(grow_tree(z, y, 1))
        assert doc["n_features"] == 1
        assert doc["nodes"][0] == {"coordinate": 0, "threshold": 2.0}
        assert set(doc["nodes"][1].keys()) == {"mean"}

    SPLIT = {"coordinate": 0, "threshold": 0.5}

    @pytest.mark.parametrize("nodes", [
        [{"coordinate": -1, "threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}],
        [{"coordinate": 5, "threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}],
        [{"coordinate": 2, "threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}],
        [{"coordinate": 1.0, "threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}],
        [SPLIT, {"mean": 1.0}],  # truncated: the root's right child is missing
        [SPLIT, SPLIT, {"mean": 1.0}, {"mean": 2.0}],
        [],
        [{"coordinate": 0, "threshold": float("nan")}, {"mean": 1.0}, {"mean": 2.0}],
        [{"coordinate": 0, "threshold": float("inf")}, {"mean": 1.0}, {"mean": 2.0}],
        [{"coordinate": 0, "threshold": ""}, {"mean": 1.0}, {"mean": 2.0}],
        [SPLIT, {"mean": float("nan")}, {"mean": 2.0}],
        [SPLIT, {"mean": 1.0}, {"mean": -float("inf")}],
        [SPLIT, {"mean": 1.0}, {"mean": "2"}],
        [SPLIT, {"mean": 1.0}, {"mean": 10**400}],  # beyond float range
        [SPLIT, {"mean": 1.0}, {"mean": 2.0}, {"mean": 3.0}],  # a trailing node
        [{"threshold": 0.5}, {"mean": 1.0}, {"mean": 2.0}],
        [SPLIT, 3.0, {"mean": 2.0}],
    ])
    def test_malformed_document_rejected(self, nodes):
        with pytest.raises(ConfigError):
            tree_from_json({"n_features": 2, "nodes": nodes})

    @pytest.mark.parametrize("doc", [[], [1], {"nodes": [{"mean": 1.0}]},
                                     {"n_features": 0, "nodes": [{"mean": 1.0}]}])
    def test_malformed_width_rejected(self, doc):
        with pytest.raises(ConfigError):
            tree_from_json(doc)

    def test_preorder_links(self):
        # root splits column 1; its left child splits column 0 into two leaves
        doc = {"n_features": 2, "nodes": [
            {"coordinate": 1, "threshold": 0.5}, {"coordinate": 0, "threshold": 0.5},
            {"mean": 1.0}, {"mean": 2.0}, {"mean": 3.0}]}
        tree = tree_from_json(doc)
        assert tree.right.tolist() == [4, 3, -1, -1, -1]
        rows = np.array([[0.0, 0.9], [0.1, 0.2], [0.9, 0.1]])
        assert predict_rows(tree, rows).tolist() == [3.0, 1.0, 2.0]
        assert tree_to_json(tree) == doc


class TestEnsembleImportance:
    def test_single_tree_is_split_histogram_of_its_resample(self):
        rng = derive_rng(41)
        z = rng.normal(size=(30, 2))
        y = z[:, 0] + 0.1 * rng.normal(size=30)
        freq = ensemble_importance(z, y, 1, 3, seed=0)
        rows = derive_rng(0, 0).integers(0, 30, 30)
        tree = grow_tree(z[rows], y[rows], 3)
        counts = np.bincount(tree.coordinate[internal_ids(tree)], minlength=2)
        assert np.allclose(freq, counts / counts.sum())

    def test_relevant_feature_has_max_frequency(self):
        rng = derive_rng(42)
        n = 200
        z = rng.normal(size=(n, 4))
        y = np.exp(z[:, 2]) + 0.1 * rng.normal(size=n)
        freq = ensemble_importance(z, y, 50, 3, seed=7)
        assert int(np.argmax(freq)) == 2
        assert freq[2] > 0.5

    def test_duplicated_feature_shares_mass(self):
        rng = derive_rng(43)
        n = 150
        base = rng.normal(size=(n, 3))
        y = base[:, 0] + 0.2 * rng.normal(size=n)
        single = ensemble_importance(base, y, 40, 3, seed=1)
        dup = np.column_stack([base, base[:, 0]])
        shared = ensemble_importance(dup, y, 40, 3, seed=1)
        assert shared[0] + shared[3] == pytest.approx(single[0], abs=0.15)

    def test_frequencies_sum_to_one(self):
        rng = derive_rng(44)
        z = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        freq = ensemble_importance(z, y, 10, 2, seed=3)
        assert freq.sum() == pytest.approx(1.0)


class TestRankingTrendSmoke:
    def test_bayes_dominates_tree_permutation(self):
        rng = derive_rng(45)
        x = rng.uniform(size=(80, 2))
        mu = x[:, 0] + 2 * x[:, 1]
        y = mu + 0.2 * rng.normal(size=80)
        tree = grow_tree(x, y, 4)
        t_bayes = ranking_metric_T(bayes_permutation(mu), mu)
        t_tree = ranking_metric_T(induced_permutation(tree, x), mu)
        assert t_bayes >= t_tree


# ---------------------------------------------------------------------------
# presorted growth and rank-class forests against the per-node oracle
# ---------------------------------------------------------------------------

def oracle_best_split(z, y):
    """The column-major scan that argsorts every column at every node, or
    None where best_split raises Unsplittable."""
    n, q = z.shape
    if n < 2 or np.all(y == y[0]):
        return None
    order = np.argsort(z, axis=0, kind="stable")
    z_sorted = np.take_along_axis(z, order, axis=0)
    y_sorted = y[order]
    s1 = np.cumsum(y_sorted, axis=0)
    s2 = np.cumsum(y_sorted**2, axis=0)
    sizes = np.arange(1, n, dtype=float)[:, None]
    sse_l = s2[:-1] - s1[:-1] ** 2 / sizes
    sse_r = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - sizes)
    losses = sse_l + sse_r
    losses[z_sorted[:-1] >= z_sorted[1:]] = np.inf
    col_pos = np.argmin(losses, axis=0)
    col_best = losses[col_pos, np.arange(q)]
    k = int(np.argmin(col_best))
    if not np.isfinite(col_best[k]):
        return None
    return SplitRule(k, float(z_sorted[col_pos[k], k]))


@dataclass(frozen=True)
class OracleNode:
    """A node of the oracle's recursive tree: its training rows, and either a
    split with two children or a leaf mean."""

    indices: tuple[int, ...]
    split: SplitRule | None = None
    left: "OracleNode | None" = None
    right: "OracleNode | None" = None
    mean: float = float("nan")

    def preorder(self):
        yield self
        if self.split is not None:
            yield from self.left.preorder()
            yield from self.right.preorder()


def oracle_grow_tree(z, y, depth, min_leaf=1):
    """Recursion that rescans the node's own rows z[idx] at every node."""

    def build(idx, remaining):
        node_idx = tuple(int(i) for i in idx)
        y_node = y[idx]
        rule = None
        if remaining > 0 and idx.size >= 2 * min_leaf:
            rule = oracle_best_split(z[idx], y_node)
        if rule is None:
            return OracleNode(node_idx, mean=float(y_node.mean()))
        mask = z[idx, rule.coordinate] <= rule.threshold
        return OracleNode(node_idx, split=rule, left=build(idx[mask], remaining - 1),
                          right=build(idx[~mask], remaining - 1))

    return build(np.arange(z.shape[0]), depth)


def oracle_json(oracle, n_features):
    """The tree document of an oracle tree, in the format of tree_to_json."""
    nodes = [{"mean": node.mean} if node.split is None else
             {"coordinate": node.split.coordinate, "threshold": node.split.threshold}
             for node in oracle.preorder()]
    return {"n_features": n_features, "nodes": nodes}


def oracle_ensemble_importance(z, y, n_trees, depth, seed):
    """Split frequencies of oracle trees grown on every column."""
    n, q = z.shape
    counts = np.zeros(q)
    for t in range(n_trees):
        rows = derive_rng(seed, t).integers(0, n, size=n)
        for node in oracle_grow_tree(z[rows], y[rows], depth).preorder():
            if node.split is not None:
                counts[node.split.coordinate] += 1
    total = counts.sum()
    return counts / total if total > 0 else counts


COLUMN_MAPS = {
    "x": lambda v: v,
    "cube": lambda v: v**3,
    "exp": np.exp,
    "neg": lambda v: -v,
    "const": lambda v: np.full_like(v, 1.5),
    # same stable order as v with every tie broken: not rank-equal to v
    "ordinal": lambda v: np.argsort(np.argsort(v, kind="stable")).astype(float),
}


@st.composite
def tree_inputs(draw):
    """Tie-heavy base columns seen through x, x^3, exp(x), -x, a constant or
    tie-broken ordinal ranks, optionally with bootstrap-duplicated rows, and
    a tie-heavy, continuous or constant response."""
    n = draw(st.integers(1, 40))
    n_base = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 10, 1000]))  # 1: heavy ties, 1000: few
    base = np.array(draw(st.lists(st.integers(-4 * scale, 4 * scale),
                                  min_size=n * n_base, max_size=n * n_base)),
                    dtype=float).reshape(n, n_base) / (10 * scale)
    picks = draw(st.lists(st.tuples(st.integers(0, n_base - 1),
                                    st.sampled_from(sorted(COLUMN_MAPS))),
                          min_size=1, max_size=6))
    z = np.column_stack([COLUMN_MAPS[name](base[:, j]) for j, name in picks])
    if draw(st.booleans()):
        z = z[np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))]
    kind = draw(st.sampled_from(["rounded", "continuous", "constant"]))
    if kind == "constant":
        y = np.full(n, 2.5)
    else:
        y = np.array(draw(st.lists(st.floats(-10, 10, allow_subnormal=False),
                                   min_size=n, max_size=n)))
        if kind == "rounded":
            y = np.round(y)
    return z, y




@st.composite
def padded_rows(draw):
    """Rows of 2 to 12 sorted keys each, tie-heavy, constant or tie-free,
    with tie-heavy, constant or continuous responses."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(2, 12))
        span = draw(st.sampled_from([0, 1, 3, 100]))  # 0: a constant row
        keys = np.sort(np.array(draw(st.lists(st.integers(0, span), min_size=m,
                                              max_size=m))))
        kind = draw(st.sampled_from(["rounded", "continuous", "constant"]))
        if kind == "constant":
            y = np.full(m, -1.5)
        else:
            y = np.array(draw(st.lists(st.floats(-10, 10, allow_subnormal=False),
                                       min_size=m, max_size=m)))
            if kind == "rounded":
                y = np.round(y)
        rows.append((keys, y))
    return rows


def forest_case(seed):
    """Tie-heavy, continuous and rank-equal columns and a response that is
    often constant on a bootstrap resample, from one integer seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    base = rng.integers(0, int(rng.choice([3, 20, 1000])), size=(n, 2)).astype(float)
    z = np.column_stack([base[:, 0], base[:, 0] ** 3, base[:, 1], -base[:, 1],
                         rng.uniform(size=n)])[:, :int(rng.integers(1, 6))]
    kind = rng.choice(["sparse", "rounded", "continuous"])
    if kind == "sparse":  # zero but for one or two rows: resamples often miss them
        y = np.zeros(n)
        y[rng.integers(0, n, size=2)] = 1.0
    else:
        y = base[:, 0] + rng.normal(size=n)
        if kind == "rounded":
            y = np.round(y)
    return z, y


def assert_matches_oracle(tree, oracle, z):
    """Same document as the oracle tree, and the training rows routed to every
    node are the oracle node's rows."""
    assert json.dumps(tree_to_json(tree)) == json.dumps(oracle_json(oracle, z.shape[1]))
    assert node_rows(tree, z) == [node.indices for node in oracle.preorder()]


class TestPaddedSplitKernel:
    @given(padded_rows())
    @settings(max_examples=200, deadline=None)
    def test_padded_call_matches_per_row_calls(self, rows):
        # one call over right-padded rows: keys padded with the row's last
        # key, pairs with 0, and each row's length passed in
        width = max(keys.size for keys, _ in rows)
        keys = np.array([np.pad(k, (0, width - k.size), mode="edge") for k, _ in rows])
        pairs = np.array([np.pad(_response_pairs(y), (0, width - y.size)) for _, y in rows])
        sizes = np.array([[k.size] for k, _ in rows])
        padded = _column_split_losses(keys, pairs, sizes)
        assert padded.shape == (len(rows), width - 1)
        for row, (k, y) in zip(padded, rows):
            alone = _column_split_losses(k[None, :], _response_pairs(y)[None, :])[0]
            assert row[:k.size - 1].tobytes() == alone.tobytes()
            assert np.isposinf(row[k.size - 1:]).all()


class TestPresortedGrowthMatchesOracle:
    @given(tree_inputs(), st.integers(0, 6), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_trees_and_indices_identical(self, inputs, depth, min_leaf):
        z, y = inputs
        tree = grow_tree(z, y, depth, min_leaf)
        assert_matches_oracle(tree, oracle_grow_tree(z, y, depth, min_leaf), z)
        rows = predict_rows(tree, z)
        # each row routes alone as it does among the others
        assert np.array_equal(rows, [predict_rows(tree, row[None])[0] for row in z])

    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_deep_tree_on_2000_rows(self, min_leaf):
        # a depth-10 tree has levels of hundreds of nodes in many size classes
        rng = derive_rng(50)
        x = rng.uniform(size=(2000, 3))
        z = np.column_stack([x, np.round(4 * x[:, 0]), x[:, 1] ** 3])
        y = x[:, 0] + 2 * x[:, 2] ** 2 + 0.1 * rng.normal(size=2000)
        tree = grow_tree(z, y, 10, min_leaf)
        assert tree.coordinate.size > 500
        assert_matches_oracle(tree, oracle_grow_tree(z, y, 10, min_leaf), z)

    @given(tree_inputs())
    @settings(max_examples=150, deadline=None)
    def test_best_split_identical(self, inputs):
        z, y = inputs
        expected = oracle_best_split(z, y)
        if expected is None:
            with pytest.raises(Unsplittable):
                best_split(z, y)
        else:
            assert repr(best_split(z, y)) == repr(expected)

    @given(tree_inputs(), st.integers(0, 5), st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_forest_importance_bit_identical(self, inputs, depth, seed):
        z, y = inputs
        freq = ensemble_importance(z, y, 3, depth, seed)
        expected = oracle_ensemble_importance(z, y, 3, depth, seed)
        assert freq.tobytes() == expected.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(20, 40), st.integers(1, 6),
           st.sampled_from([1, 3, 7]), st.sampled_from([2**6, 2**9, 2**14]))
    @settings(max_examples=40, deadline=None)
    def test_chunked_forests_bit_identical(self, seed, n_trees, depth, chunk_trees,
                                           call_values):
        # chunks of a few trees whose levels mix many size classes, split
        # into several kernel calls, and resamples with a constant response
        z, y = forest_case(seed)
        w = _rank_class_leaders(z)[0].size
        with mock.patch.object(tree_module, "FOREST_VALUES", chunk_trees * w * z.shape[0]), \
                mock.patch.object(tree_module, "LEVEL_VALUES", call_values):
            freq = ensemble_importance(z, y, n_trees, depth, seed)
        expected = oracle_ensemble_importance(z, y, n_trees, depth, seed)
        assert freq.tobytes() == expected.tobytes()

    def test_forest_beyond_one_byte_rank_keys(self):
        # 700 rows need two-byte keys; ties and a clipped run test the presort
        rng = derive_rng(49)
        x = rng.integers(0, 400, size=700) / 400
        z = np.column_stack([x, np.minimum(x, 0.9) ** 2, rng.uniform(size=700)])
        y = np.round(3 * x + rng.normal(size=700))
        assert _rank_class_leaders(z)[1].dtype == np.uint16
        freq = ensemble_importance(z, y, 3, 3, seed=11)
        assert freq.tobytes() == oracle_ensemble_importance(z, y, 3, 3, seed=11).tobytes()

    def test_rank_classes(self):
        x = np.array([0.3, -1.2, 0.3, 2.0, 0.7])
        z = np.column_stack([np.exp(x), -x, x, np.full(5, 4.0), x**3, np.zeros(5),
                             [1.0, 0.0, 2.0, 4.0, 3.0]])
        # exp(x), x and x^3 share a class led by column 0; -x does not join
        # it; both constants form one class; the last column stands alone: it
        # sorts the rows as x does but has no tie
        leaders, keys = _rank_class_leaders(z)
        assert leaders.tolist() == [0, 1, 3, 6]
        # dense ranks in the smallest unsigned dtype
        assert keys.dtype == np.uint8
        assert keys.tolist() == [[1, 0, 1, 3, 2], [2, 3, 2, 0, 1], [0, 0, 0, 0, 0],
                                 [1, 0, 2, 4, 3]]

    def test_grow_and_predict_scale_to_1e5_rows(self):
        # a per-node argsort of every column took ~1.1 s to grow this tree
        # and a per-row predict loop ~0.5 s to route it; level-by-level
        # growth takes ~0.2 s and routing ~0.04 s on a 2-CPU Xeon
        rng = derive_rng(47)
        n = 100_000
        x = rng.uniform(size=(n, 3))
        y = 2.0 * x[:, 0] ** 3 + 5.0 * x[:, 2] + rng.normal(size=n)
        start = time.perf_counter()
        tree = grow_tree(x, y, 10)
        pred = predict_rows(tree, x)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0
        routed = node_rows(tree, x)
        for leaf in leaf_ids(tree):
            assert routed[leaf] and np.all(pred[list(routed[leaf])] == tree.mean[leaf])

    def test_forest_scales_to_1e5_rows(self):
        # a float argsort per bootstrap tree and node objects peaked at
        # ~135 MB of tracemalloc here; integer rank keys and level-by-level
        # growth take ~32 MB and ~2.7 s under tracemalloc on a 2-CPU Xeon
        rng = derive_rng(48)
        n = 100_000
        x = rng.uniform(size=(n, 4))
        y = 2.0 * x[:, 0] ** 3 + 5.0 * x[:, 2] + rng.normal(size=n)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            freq = ensemble_importance(x, y, 20, 3, seed=5)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 20.0
        assert peak < 80 * 2**20
        assert freq.sum() == pytest.approx(1.0) and freq[1] == freq[3] == 0.0


def grown_levels(z, y, rows, depth, min_leaf, ws):
    """Every level's (coordinate, cut) bytes of the trees grown on the
    resamples ``rows`` of z, one per row, as one chunk on workspace ws."""
    keys = _rank_class_leaders(z)[1]
    return [(k.tobytes(), cut.tobytes())
            for k, cut in _grow_levels(keys, _response_pairs(y), rows, depth, min_leaf, ws)]


class TestSharedWorkspace:
    def test_reused_buffers_give_the_bits_of_fresh_ones(self):
        # forests and trees of mixed size, grown on one workspace in a
        # shuffled order, so that smaller ones follow larger ones and read
        # buffers that hold a larger one's data, and two key dtypes share the
        # keys buffer; each must equal itself grown alone on its own workspace
        rng = derive_rng(51)
        cases = []
        for n, q, n_trees, depth in [(40, 3, 5, 4), (100, 9, 20, 3), (260, 5, 7, 6),
                                     (150, 24, 20, 3), (30, 2, 30, 2), (700, 4, 3, 5)]:
            x = rng.uniform(size=(n, q))
            z = np.column_stack([np.round(4 * x[:, 0]), x[:, 1:]])  # a tie-heavy column
            y = np.round(3 * x[:, 0] + rng.normal(size=n), 1)
            cases.append((z, y, rng.integers(0, n, size=(n_trees, n)), depth, 1))
        # a root larger than a kernel call's buffers (w * n > LEVEL_VALUES),
        # and a tree whose level ids exceed the level buffers
        wide = rng.uniform(size=(2000, 9))
        assert 9 * 2000 > LEVEL_VALUES
        cases.append((wide, wide[:, 0] + rng.normal(size=2000),
                      rng.integers(0, 2000, size=(2, 2000)), 3, 1))
        tall = rng.uniform(size=(8000, 9))
        assert 9 * 8000 > FOREST_VALUES
        cases.append((tall, tall[:, 2] + rng.normal(size=8000), np.arange(8000)[None], 4, 1))
        for n, min_leaf in [(300, 1), (50, 2), (1000, 3)]:  # trees with min_leaf
            x = rng.integers(0, 12, size=(n, 4)).astype(float)
            cases.append((x, x[:, 1] ** 2 + rng.normal(size=n), np.arange(n)[None], 7,
                          min_leaf))
        alone = [grown_levels(*case, tree_module._Workspace()) for case in cases]
        ws = tree_module._Workspace()
        for i in rng.permutation(np.repeat(np.arange(len(cases)), 2)):
            assert grown_levels(*cases[i], ws) == alone[i], i
        # every case grows past its root, where nodes of several sizes share
        # padded kernel calls
        assert all(len(levels) > 2 for levels in alone)
        # the public path: forests in a shared block, each against itself alone
        forests = [(z, y, len(rows), depth, seed)
                   for seed, (z, y, rows, depth, _) in enumerate(cases) if len(rows) > 1]
        expected = [ensemble_importance(*forest).tobytes() for forest in forests]
        with _shared_workspace():
            for i in rng.permutation(np.repeat(np.arange(len(forests)), 2)):
                assert ensemble_importance(*forests[i]).tobytes() == expected[i]

    def test_block_releases_its_workspace(self):
        assert tree_module._SHARED.get() is None
        with pytest.raises(Unsplittable), _shared_workspace():
            assert tree_module._SHARED.get() is not None
            ensemble_importance(np.eye(3), [1.0, 2.0, 3.0], 0, 1, seed=0)
        assert tree_module._SHARED.get() is None

    def test_warm_workspace_allocates_no_working_buffer(self):
        # a second forest on a warm workspace allocates its presort arrays and
        # small per-node temporaries, less than one kernel buffer of floats;
        # with fresh temporaries per call it took about 1.4 MiB more
        rng = derive_rng(52)
        n, q, n_trees = 100, 9, 20
        z = rng.uniform(size=(n, q))
        y = z[:, 0] + rng.normal(size=n)
        # a chunk's resamples, its presort ids twice (argsort and level),
        # sorted keys and tiled keys, tiled response pairs
        presort = n_trees * n * (8 + 2 * 8 * q + 2 * q + 16)
        with _shared_workspace():
            ensemble_importance(z, y, n_trees, 3, seed=1)
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                ensemble_importance(z, y, n_trees, 3, seed=2)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        assert peak < presort + LEVEL_VALUES * 8
