"""CART regression trees: best-split search, split comparison in log space,
complete-tree growth, induced rankings, and a bootstrap split-frequency
importance.

Split convention: the left child takes z <= C. Thresholds are restricted to
observed column values within the node, excluding the node maximum so both
children are nonempty. Ties are broken toward the smallest coordinate, then
the smallest threshold, so trees are fully reproducible.

Candidate splits are never compared through the exponentiated likelihood
ratio; comparisons stay on loss differences (its logarithm) to avoid
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, FeatureMatrix, RankPermutation, derive_rng
from .errors import (
    ColumnMismatch,
    DimensionMismatch,
    EmptySide,
    InadmissibleRule,
    LengthMismatch,
    Unsplittable,
)

__all__ = [
    "SplitRule",
    "TreeNode",
    "best_split",
    "ensemble_importance",
    "grow_tree",
    "induced_permutation",
    "log_principal_decision_ratio",
    "predict",
    "predict_rows",
    "split_means",
    "split_rule_loss",
    "tree_from_json",
    "tree_to_json",
]


@dataclass(frozen=True)
class SplitRule:
    """Split the k-th column at threshold C: left child is z[:, k] <= C."""

    coordinate: int
    threshold: float


@dataclass(frozen=True)
class TreeNode:
    """A node over a set of training-sample indices.

    Internal nodes carry a split and two children; leaves carry the sample
    mean of their enclosed responses. ``n_features`` records the training
    width so prediction can validate inputs.
    """

    indices: tuple[int, ...]
    n_features: int
    split: "SplitRule | None" = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    mean: float = float("nan")

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    def leaves(self) -> list["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()

    def internal_nodes(self) -> list["TreeNode"]:
        if self.is_leaf:
            return []
        return [self] + self.left.internal_nodes() + self.right.internal_nodes()


def _matrix(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.x
    if isinstance(data, FeatureMatrix):
        return data.z
    z = np.asarray(data, dtype=float)
    if z.ndim != 2:
        raise ColumnMismatch(f"predictor matrix must be 2-D, got shape {z.shape}")
    return z


def _matrix_and_response(data, y) -> tuple[np.ndarray, np.ndarray]:
    """The predictor matrix and response of a tree: one response per row and
    at least one column."""
    z = _matrix(data)
    y = np.asarray(y, dtype=float)
    if y.shape != (z.shape[0],):
        raise LengthMismatch(f"response of shape {y.shape} for {z.shape[0]} rows")
    if z.shape[1] == 0:
        raise DimensionMismatch("a tree needs at least one predictor column")
    return z, y


def split_means(y, left_mask) -> tuple[float, float]:
    """Per-side response means; both sides must be nonempty."""
    y = np.asarray(y, dtype=float)
    left_mask = np.asarray(left_mask, dtype=bool)
    if not left_mask.any() or left_mask.all():
        raise EmptySide("both split sides must be nonempty")
    return float(y[left_mask].mean()), float(y[~left_mask].mean())


def _column_split_losses(z_sorted: np.ndarray, y_sorted: np.ndarray) -> np.ndarray:
    """Two-sided SSE for every cut position of every row, inf where inadmissible.

    Each of the w rows holds one column's m node values in increasing order,
    with the node's responses in that same order. Position p (1-based) puts
    the p smallest values on the left; a cut is admissible only between
    distinct column values.
    """
    m = y_sorted.shape[1]
    s1 = np.cumsum(y_sorted, axis=1)
    s2 = np.cumsum(y_sorted**2, axis=1)
    sizes = np.arange(1, m, dtype=float)
    sse_l = s2[:, :-1] - s1[:, :-1] ** 2 / sizes
    sse_r = (s2[:, -1:] - s2[:, :-1]) - (s1[:, -1:] - s1[:, :-1]) ** 2 / (m - sizes)
    losses = sse_l + sse_r
    losses[z_sorted[:, :-1] >= z_sorted[:, 1:]] = np.inf
    return losses


def _best_cut(z_sorted: np.ndarray, y_sorted: np.ndarray) -> tuple[int, float]:
    """(row, threshold) of the loss-minimizing cut over presorted rows.

    The first minimum in row-major order resolves exact loss ties to the
    first row, then the smallest threshold. Raises Unsplittable when no row
    admits a two-sided cut.
    """
    losses = _column_split_losses(z_sorted, y_sorted)  # (w, m-1)
    k, pos = divmod(int(np.argmin(losses)), losses.shape[1])
    if not np.isfinite(losses[k, pos]):
        raise Unsplittable("no column admits a two-sided split")
    return k, float(z_sorted[k, pos])


def best_split(data, y) -> SplitRule:
    """The (coordinate, threshold) minimizing the two-sided SSE.

    Scans every coordinate and every admissible observed threshold; exact
    loss ties resolve to the smallest coordinate, then smallest threshold.
    Raises Unsplittable when y is constant, fewer than two samples, or no
    column has two distinct values.
    """
    z, y = _matrix_and_response(data, y)
    if z.shape[0] < 2 or np.all(y == y[0]):
        raise Unsplittable("node needs >= 2 samples and non-constant response")
    order = np.argsort(z.T, axis=1, kind="stable")
    return SplitRule(*_best_cut(np.take_along_axis(z.T, order, axis=1), y[order]))


def split_rule_loss(data, y, rule: SplitRule) -> float:
    """Two-sided SSE of a rule on this node.

    A threshold that sends every sample to one side scores the parent SSE
    (the empty side contributes nothing), matching the indicator sums that
    define the loss. Raises InadmissibleRule for an invalid coordinate or a
    non-finite threshold.
    """
    z = _matrix(data)
    y = np.asarray(y, dtype=float)
    if not 0 <= rule.coordinate < z.shape[1]:
        raise InadmissibleRule(f"coordinate {rule.coordinate} out of range")
    if not np.isfinite(rule.threshold):
        raise InadmissibleRule(f"threshold {rule.threshold} is not finite")
    mask = z[:, rule.coordinate] <= rule.threshold
    total = 0.0
    for side in (mask, ~mask):
        if side.any():
            vals = y[side]
            total += float(np.sum((vals - vals.mean()) ** 2))
    return total


def log_principal_decision_ratio(data, y, rule1: SplitRule, rule2: SplitRule) -> float:
    """loss(rule2) - loss(rule1); positive means rule1 fits better."""
    return split_rule_loss(data, y, rule2) - split_rule_loss(data, y, rule1)


def grow_tree(data, y, depth: int, min_leaf: int = 1) -> TreeNode:
    """Recursively split until depth K, size < 2*min_leaf, or unsplittable.

    Degenerate nodes become leaves carrying the sample mean. Each column is
    sorted once (the CART presort); a node passes its per-column row orders
    to its children by stable filtering, so a node costs O(m*q) for m rows.
    """
    z, y = _matrix_and_response(data, y)
    n, q = z.shape
    zt = np.ascontiguousarray(z.T)
    z_flat = zt.ravel()
    col_starts = (np.arange(q) * n)[:, None]
    left_side = np.zeros(n, dtype=bool)  # scratch, valid at the current node's rows

    def build(idx: np.ndarray, orders: np.ndarray, remaining: int) -> TreeNode:
        # idx: the node's rows, increasing; orders: (q, m) its rows sorted per column
        node_idx = tuple(idx.tolist())
        y_node = y[idx]
        if remaining > 0 and idx.size >= max(2 * min_leaf, 2) \
                and not np.all(y_node == y_node[0]):
            try:
                k, threshold = _best_cut(z_flat.take(orders + col_starts), y.take(orders))
            except Unsplittable:
                pass
            else:
                on_left = zt[k].take(idx) <= threshold
                left_side[idx] = on_left
                go_left = left_side.take(orders).ravel()
                n_left = int(np.count_nonzero(on_left))
                flat = orders.ravel()
                left = build(np.compress(on_left, idx),
                             np.compress(go_left, flat).reshape(q, n_left),
                             remaining - 1)
                right = build(np.compress(~on_left, idx),
                              np.compress(~go_left, flat).reshape(q, idx.size - n_left),
                              remaining - 1)
                return TreeNode(node_idx, q, split=SplitRule(k, threshold),
                                left=left, right=right)
        return TreeNode(node_idx, q, mean=float(y_node.mean()))

    return build(np.arange(n), np.argsort(zt, axis=1, kind="stable"), depth)


def predict(tree: TreeNode, row) -> float:
    """Route a single row to its leaf mean."""
    row = np.asarray(row, dtype=float).ravel()
    if row.shape[0] != tree.n_features:
        raise ColumnMismatch(
            f"row has {row.shape[0]} columns, tree was grown on {tree.n_features}")
    node = tree
    while not node.is_leaf:
        rule = node.split
        node = node.left if row[rule.coordinate] <= rule.threshold else node.right
    return node.mean


def predict_rows(tree: TreeNode, data) -> np.ndarray:
    """Leaf mean of every row; each node splits its row indices with one mask."""
    z = _matrix(data)
    if z.shape[1] != tree.n_features:
        raise ColumnMismatch(
            f"rows have {z.shape[1]} columns, tree was grown on {tree.n_features}")
    out = np.empty(z.shape[0])
    stack = [(tree, np.arange(z.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.mean
        elif rows.size:
            go_left = z[rows, node.split.coordinate] <= node.split.threshold
            stack.append((node.left, np.compress(go_left, rows)))
            stack.append((node.right, np.compress(~go_left, rows)))
    return out


def induced_permutation(tree: TreeNode, data) -> RankPermutation:
    """Rows sorted by predicted score descending, stable on ties."""
    scores = predict_rows(tree, data)
    order = np.argsort(-scores, kind="stable")
    return RankPermutation(tuple(int(i) for i in order))


def _rank_class_leaders(z: np.ndarray) -> np.ndarray:
    """Lowest column index of each class of columns with equal dense ranks.

    Columns of one class sort every row multiset the same way and tie on the
    same rows, so their split losses are bit-identical at every node and the
    first-minimum rule always picks the class leader. A column holding NaN
    forms a class of its own: NaN equals nothing, not even itself, so a
    resample that repeats a NaN row would tie it in rank but not in value.
    """
    n, q = z.shape
    order = np.argsort(z, axis=0, kind="stable")
    z_sorted = np.take_along_axis(z, order, axis=0)
    dense = np.zeros((n, q), dtype=np.intp)
    np.cumsum(z_sorted[1:] != z_sorted[:-1], axis=0, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    has_nan = np.isnan(z).any(axis=0)
    leaders: dict[bytes | int, int] = {}
    for j, col in enumerate(ranks.T):
        leaders.setdefault(j if has_nan[j] else col.tobytes(), j)
    return np.fromiter(leaders.values(), dtype=np.intp, count=len(leaders))


def ensemble_importance(data, y, n_trees: int, depth: int, seed: int,
                        bootstrap: bool = True) -> np.ndarray:
    """Fraction of internal splits using each column, over a bootstrap forest.

    Each tree is grown on a bootstrap resample of the rows (or the full data
    when ``bootstrap`` is off); frequencies are split counts normalized by
    the total number of splits in the ensemble. Trees see only the leader of
    each rank class (see :func:`_rank_class_leaders`), which gives the same
    splits as growing on every column.
    """
    z, y = _matrix_and_response(data, y)
    if n_trees < 1:
        raise Unsplittable(f"need n_trees >= 1, got {n_trees}")
    n, q = z.shape
    leaders = _rank_class_leaders(z)
    z_leaders = z[:, leaders]
    counts = np.zeros(q)
    for t in range(n_trees):
        if bootstrap:
            rows = derive_rng(seed, t).integers(0, n, size=n)
            zt, yt = z_leaders[rows], y[rows]
        else:
            zt, yt = z_leaders, y
        tree = grow_tree(zt, yt, depth)
        for node in tree.internal_nodes():
            counts[leaders[node.split.coordinate]] += 1
    total = counts.sum()
    return counts / total if total > 0 else counts


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_json(tree: TreeNode) -> dict:
    """JSON document: node list in depth-first preorder plus the width."""
    nodes: list[dict] = []

    def walk(node: TreeNode) -> None:
        if node.is_leaf:
            nodes.append({"mean": node.mean})
        else:
            nodes.append({"coordinate": node.split.coordinate,
                          "threshold": node.split.threshold})
            walk(node.left)
            walk(node.right)

    walk(tree)
    return {"n_features": tree.n_features, "nodes": nodes}


def tree_from_json(doc: dict) -> TreeNode:
    """Rebuild a tree for prediction; training indices are not persisted."""
    nodes = doc["nodes"]
    q = int(doc["n_features"])
    pos = 0

    def build() -> TreeNode:
        nonlocal pos
        entry = nodes[pos]
        pos += 1
        if "mean" in entry:
            return TreeNode((), q, mean=float(entry["mean"]))
        rule = SplitRule(int(entry["coordinate"]), float(entry["threshold"]))
        left = build()
        right = build()
        return TreeNode((), q, split=rule, left=left, right=right)

    tree = build()
    if pos != len(nodes):
        raise ColumnMismatch(f"{len(nodes) - pos} trailing nodes in tree document")
    return tree
