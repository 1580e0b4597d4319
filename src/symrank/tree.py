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

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import Dataset, FeatureMatrix, RankPermutation, derive_rng
from .errors import (
    ColumnMismatch,
    DimensionMismatch,
    EmptySide,
    InadmissibleRule,
    LengthMismatch,
    NonFiniteData,
    Unsplittable,
)
from .stats import dense_ranks, sorted_runs

__all__ = [
    "SplitRule",
    "Tree",
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


@dataclass(frozen=True, eq=False)
class Tree:
    """A CART tree as node arrays in depth-first preorder.

    Node 0 is the root. An internal node i splits column ``coordinate[i]`` at
    ``threshold[i]``; its left child is node i + 1 and its right child node
    ``right[i]``. A leaf has coordinate -1 and carries ``mean``, the sample
    mean of its responses. Node i encloses the training rows
    ``rows[start[i]:stop[i]]``: a split's slice lists its left child's rows
    first, and a leaf's rows increase. A tree read from JSON has no rows.
    ``n_features`` records the training width so prediction can validate
    inputs.
    """

    n_features: int
    coordinate: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    mean: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    rows: np.ndarray


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
    """The predictor matrix and response of a tree: one response per row, at
    least one column, and finite entries."""
    z = _matrix(data)
    y = np.asarray(y, dtype=float)
    if y.shape != (z.shape[0],):
        raise LengthMismatch(f"response of shape {y.shape} for {z.shape[0]} rows")
    if z.shape[1] == 0:
        raise DimensionMismatch("a tree needs at least one predictor column")
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        raise NonFiniteData("tree predictors and response must be finite")
    return z, y


def split_means(y, left_mask) -> tuple[float, float]:
    """Per-side response means; both sides must be nonempty."""
    y = np.asarray(y, dtype=float)
    left_mask = np.asarray(left_mask, dtype=bool)
    if not left_mask.any() or left_mask.all():
        raise EmptySide("both split sides must be nonempty")
    return float(y[left_mask].mean()), float(y[~left_mask].mean())


def _response_pairs(y: np.ndarray) -> np.ndarray:
    """The complex responses y + i*y**2.

    Complex addition adds the real and the imaginary parts separately, so one
    cumulative sum of these gives the running sums of y and of y**2, each bit
    for bit as a float cumulative sum would.
    """
    pairs = np.empty(y.shape, dtype=complex)
    pairs.real = y
    pairs.imag = np.square(y)
    return pairs


def _column_split_losses(z_sorted: np.ndarray, pairs_sorted: np.ndarray) -> np.ndarray:
    """Two-sided SSE for every cut position of every row, inf where inadmissible.

    Each of the w rows holds one column's m node values in increasing order,
    with the node's response pairs (see :func:`_response_pairs`) in that same
    order; their running sums overwrite the pairs. Position p (1-based) puts
    the p smallest values on the left; a cut is admissible only between
    distinct column values. Rows are independent, so a batch of rows from
    several nodes gives each row's losses bit for bit. The loss is
    sse_l + sse_r with sse_l = s2_l - s1_l**2 / p and
    sse_r = (s2_m - s2_l) - (s1_m - s1_l)**2 / (m - p), evaluated in this
    order: a cheaper algebraic form can flip near-ties.
    """
    m = pairs_sorted.shape[1]
    sums = pairs_sorted.cumsum(axis=1, out=pairs_sorted)
    # contiguous copies: the passes below run faster on them than on views
    s1, s2 = sums.real[:, :-1].copy(), sums.imag[:, :-1].copy()
    s1_total, s2_total = sums.real[:, -1:].copy(), sums.imag[:, -1:].copy()
    sizes = np.arange(1.0, m)  # p; reversed, m - p
    losses = np.square(s1)
    losses /= sizes
    np.subtract(s2, losses, out=losses)  # sse_l
    np.subtract(s1_total, s1, out=s1)
    np.square(s1, out=s1)
    s1 /= sizes[::-1]
    np.subtract(s2_total, s2, out=s2)
    s2 -= s1  # sse_r
    losses += s2
    np.putmask(losses, z_sorted[:, :-1] >= z_sorted[:, 1:], np.inf)
    return losses


def _first_cut(losses: np.ndarray, z_sorted: np.ndarray) -> tuple[int, float] | None:
    """(row, threshold) of the loss-minimizing cut, or None when no row
    admits a two-sided cut.

    The first minimum in row-major order resolves exact loss ties to the
    first row, then the smallest threshold.
    """
    k, pos = divmod(int(losses.argmin()), losses.shape[1])
    if not math.isfinite(losses[k, pos]):
        return None
    return k, float(z_sorted[k, pos])


def best_split(data, y) -> SplitRule:
    """The (coordinate, threshold) minimizing the two-sided SSE.

    Scans every coordinate and every admissible observed threshold; exact
    loss ties resolve to the smallest coordinate, then smallest threshold.
    Raises Unsplittable when y is constant, fewer than two samples, or no
    column has two distinct values, and NonFiniteData on NaN or infinite
    entries.
    """
    z, y = _matrix_and_response(data, y)
    if z.shape[0] < 2 or np.all(y == y[0]):
        raise Unsplittable("node needs >= 2 samples and non-constant response")
    order = np.argsort(z.T, axis=1, kind="stable")
    z_sorted = np.take_along_axis(z.T, order, axis=1)
    cut = _first_cut(_column_split_losses(z_sorted, _response_pairs(y)[order]), z_sorted)
    if cut is None:
        raise Unsplittable("no column admits a two-sided split")
    return SplitRule(*cut)


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


def _grow(zt: np.ndarray, y: np.ndarray, order: np.ndarray, depth: int,
          min_leaf: int = 1, root: tuple[int, float] | None = None) -> Tree:
    """One tree over the column rows ``zt`` (q, n), grown in preorder from an
    explicit stack.

    ``order`` holds each column's stable row order (the CART presort). A
    node splits while it has depth left, at least max(2*min_leaf, 2) rows, a
    non-constant response and an admissible cut; ``root`` is the root's
    (column, threshold) when the caller has searched it already. A split
    stably partitions the node's slice of the row-order array, left rows
    first, so a leaf's slice stays increasing. A child gets its per-column row
    orders, filtered stably from its parent's, only when it may still split.
    """
    q, n = zt.shape
    z_flat = zt.ravel()
    col_starts = (np.arange(q) * n)[:, None]
    pairs = _response_pairs(y)
    left_side = np.zeros(n, dtype=bool)  # scratch, valid at the current node's rows
    rows = np.arange(n)
    min_split = max(2 * min_leaf, 2)
    coordinate, threshold, right, mean, start, stop = [], [], [], [], [], []
    # pending nodes: (start, stop, depth left, the parent whose right child
    # this is or -1, row orders, the mask selecting this node's orders or None)
    stack = [(0, n, depth, -1, order, None)]
    while stack:
        lo, hi, remaining, parent, orders, keep = stack.pop()
        i = len(coordinate)
        if parent >= 0:
            right[parent] = i
        start.append(lo)
        stop.append(hi)
        idx = rows[lo:hi]
        m = hi - lo
        y_node = y.take(idx)
        cut = None
        if i == 0 and root is not None:
            cut = root
        elif remaining > 0 and m >= min_split and not (y_node == y_node[0]).all():
            if keep is not None:
                orders = orders.compress(keep).reshape(q, m)
            z_sorted = z_flat.take(orders + col_starts)
            cut = _first_cut(_column_split_losses(z_sorted, pairs.take(orders)), z_sorted)
        right.append(-1)
        if cut is None:
            coordinate.append(-1)
            threshold.append(np.nan)
            mean.append(float(y_node.sum()) / m)
            continue
        k, cut_at = cut
        coordinate.append(k)
        threshold.append(cut_at)
        mean.append(np.nan)
        on_left = zt[k].take(idx) <= cut_at
        mid = lo + int(np.count_nonzero(on_left))
        split_left = remaining > 1 and mid - lo >= min_split
        split_right = remaining > 1 and hi - mid >= min_split
        if split_left or split_right:
            left_side[idx] = on_left
            go_left = left_side.take(orders).ravel()
        rows[lo:mid], rows[mid:hi] = idx.compress(on_left), idx.compress(~on_left)
        stack.append((mid, hi, remaining - 1, i, orders, ~go_left) if split_right
                     else (mid, hi, 0, i, None, None))
        stack.append((lo, mid, remaining - 1, -1, orders, go_left) if split_left
                     else (lo, mid, 0, -1, None, None))
    return Tree(q, np.array(coordinate, dtype=np.intp), np.array(threshold),
                np.array(right, dtype=np.intp), np.array(mean),
                np.array(start, dtype=np.intp), np.array(stop, dtype=np.intp), rows)


def grow_tree(data, y, depth: int, min_leaf: int = 1) -> Tree:
    """Split until depth K, size < 2*min_leaf, or unsplittable.

    Degenerate nodes become leaves carrying the sample mean. Each column is
    sorted once (the CART presort); a node passes its per-column row orders
    to its children by stable filtering, so a node costs O(m*q) for m rows.
    Raises NonFiniteData on NaN or infinite entries.
    """
    z, y = _matrix_and_response(data, y)
    zt = np.ascontiguousarray(z.T)
    return _grow(zt, y, np.argsort(zt, axis=1, kind="stable"), depth, min_leaf)


def predict(tree: Tree, row) -> float:
    """Route a single row to its leaf mean."""
    row = np.asarray(row, dtype=float).ravel()
    if row.shape[0] != tree.n_features:
        raise ColumnMismatch(
            f"row has {row.shape[0]} columns, tree was grown on {tree.n_features}")
    i = 0
    while tree.coordinate[i] >= 0:
        i = i + 1 if row[tree.coordinate[i]] <= tree.threshold[i] else int(tree.right[i])
    return float(tree.mean[i])


def predict_rows(tree: Tree, data) -> np.ndarray:
    """Leaf mean of every row; rows descend one level per step, together."""
    z = _matrix(data)
    if z.shape[1] != tree.n_features:
        raise ColumnMismatch(
            f"rows have {z.shape[1]} columns, tree was grown on {tree.n_features}")
    node = np.zeros(z.shape[0], dtype=np.intp)
    active = np.arange(z.shape[0])  # rows not yet known to sit at a leaf
    while active.size:
        at = node.take(active)
        coordinate = tree.coordinate.take(at)
        internal = coordinate >= 0
        active, at = np.compress(internal, active), np.compress(internal, at)
        go_left = z[active, np.compress(internal, coordinate)] <= tree.threshold.take(at)
        node[active] = np.where(go_left, at + 1, tree.right.take(at))
    return tree.mean.take(node)


def induced_permutation(tree: Tree, data) -> RankPermutation:
    """Rows sorted by predicted score descending, stable on ties."""
    scores = predict_rows(tree, data)
    order = np.argsort(-scores, kind="stable")
    return RankPermutation(tuple(int(i) for i in order))


def _rank_class_leaders(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest column index of each class of columns with equal dense ranks,
    and the leaders' dense ranks as (w, n) integer sort keys.

    Columns of one class sort every row multiset the same way and tie on the
    same rows, so their split losses are bit-identical at every node and the
    first-minimum rule always picks the class leader. The keys come in the
    smallest unsigned dtype that holds n - 1: a stable sort of a resample's
    keys orders its rows as a stable argsort of its values does.
    """
    ranks = dense_ranks(*sorted_runs(z.T)).astype(np.min_scalar_type(z.shape[0] - 1))
    leaders: dict[bytes, int] = {}
    for j, col in enumerate(ranks):
        leaders.setdefault(col.tobytes(), j)
    lead = np.fromiter(leaders.values(), dtype=np.intp, count=len(leaders))
    return lead, ranks[lead]


def ensemble_importance(data, y, n_trees: int, depth: int, seed: int) -> np.ndarray:
    """Fraction of internal splits using each column, over a bootstrap forest.

    Tree t grows on the bootstrap resample
    ``derive_rng(seed, t).integers(0, n, n)`` of the rows; frequencies are
    split counts normalized by the total number of splits in the ensemble.
    Raises NonFiniteData on NaN or infinite entries. Trees see only the
    leader of each rank class (see :func:`_rank_class_leaders`), which gives
    the same splits as growing on every column. A resample's presort is a
    stable sort of the leaders' integer rank keys. The roots of a chunk of
    trees, at most 2**16 sorted values, are searched in one kernel call:
    every root holds all n rows, so the chunk needs no padding.
    """
    z, y = _matrix_and_response(data, y)
    if n_trees < 1:
        raise Unsplittable(f"need n_trees >= 1, got {n_trees}")
    n, q = z.shape
    if depth < 1 or n < 2:
        return np.zeros(q)
    leaders, keys = _rank_class_leaders(z)
    w = leaders.size
    zt = np.ascontiguousarray(z[:, leaders].T)
    z_flat, pairs = zt.ravel(), _response_pairs(y)
    chunk = max(1, 2**16 // (w * n))
    coordinates = []
    for first in range(0, n_trees, chunk):
        trees = range(first, min(first + chunk, n_trees))
        # (c, n)
        rows = np.stack([derive_rng(seed, t).integers(0, n, size=n) for t in trees])
        c = rows.shape[0]
        orders = np.argsort(keys[:, rows].swapaxes(0, 1).reshape(c * w, n),
                            axis=1, kind="stable")  # (c*w, n), per resample
        sorted_rows = np.take_along_axis(np.repeat(rows, w, axis=0), orders, axis=1)
        col_starts = (np.arange(c * w) % w * n)[:, None]
        z_sorted = z_flat.take(sorted_rows + col_starts)
        sorted_pairs = pairs.take(sorted_rows)
        del sorted_rows  # lowers the chunk's peak memory
        losses = _column_split_losses(z_sorted, sorted_pairs)
        for j in range(c):
            y_tree = y.take(rows[j])
            if (y_tree == y_tree[0]).all():
                continue
            block = slice(j * w, (j + 1) * w)
            root = _first_cut(losses[block], z_sorted[block])
            if root is not None:
                tree = _grow(zt[:, rows[j]], y_tree, orders[block], depth, root=root)
                coordinates.append(tree.coordinate)
    if not coordinates:
        return np.zeros(q)
    split_on = np.concatenate(coordinates)
    counts = np.bincount(leaders[split_on[split_on >= 0]], minlength=q)
    return counts / counts.sum()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_json(tree: Tree) -> dict:
    """JSON document: node list in depth-first preorder plus the width."""
    nodes = [{"mean": mu} if k < 0 else {"coordinate": k, "threshold": t}
             for k, t, mu in zip(tree.coordinate.tolist(), tree.threshold.tolist(),
                                 tree.mean.tolist())]
    return {"n_features": tree.n_features, "nodes": nodes}


def _finite_number(entry: dict, key: str, i: int) -> float:
    value = entry.get(key)
    # exact for huge JSON integers too; false for NaN and infinities
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ColumnMismatch(f"tree node {i}: {key} {value!r} is not a finite number")
    return float(value)


def tree_from_json(doc: dict) -> Tree:
    """Rebuild a tree for prediction; training rows are not persisted.

    Raises ColumnMismatch unless the nodes form one complete tree in
    preorder, every split coordinate lies in [0, n_features) and every
    threshold and leaf mean is finite.
    """
    if not isinstance(doc, dict):
        raise ColumnMismatch("tree document must be a JSON object")
    nodes, q = doc.get("nodes"), doc.get("n_features")
    if type(q) is not int or q < 1 or not isinstance(nodes, list) or not nodes:
        raise ColumnMismatch("tree document needs n_features >= 1 and a nonempty node list")
    size = len(nodes)
    coordinate = np.full(size, -1, dtype=np.intp)
    threshold = np.full(size, np.nan)
    right = np.full(size, -1, dtype=np.intp)
    mean = np.full(size, np.nan)
    # open child slots, the last filled first: -1 for a left child or the
    # root, else the parent whose right child comes next
    slots = [-1]
    for i, entry in enumerate(nodes):
        if not slots:
            raise ColumnMismatch(f"{size - i} trailing nodes in tree document")
        parent = slots.pop()
        if parent >= 0:
            right[parent] = i
        if not isinstance(entry, dict):
            raise ColumnMismatch(f"tree node {i} is not an object")
        if "mean" in entry:
            mean[i] = _finite_number(entry, "mean", i)
            continue
        k = entry.get("coordinate")
        if type(k) is not int or not 0 <= k < q:
            raise ColumnMismatch(f"tree node {i}: coordinate {k!r} outside [0, {q})")
        coordinate[i] = k
        threshold[i] = _finite_number(entry, "threshold", i)
        slots += [i, -1]
    if slots:
        raise ColumnMismatch(f"tree document ends with {len(slots)} child nodes missing")
    return Tree(q, coordinate, threshold, right, mean, np.zeros(size, dtype=np.intp),
                np.zeros(size, dtype=np.intp), np.zeros(0, dtype=np.intp))
