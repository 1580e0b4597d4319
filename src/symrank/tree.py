"""CART regression trees: best-split search, complete-tree growth, induced
rankings, and a bootstrap split-frequency importance.

Split convention: the left child takes z <= C. Thresholds are restricted to
observed column values within the node, excluding the node maximum so both
children are nonempty. Ties are broken toward the smallest coordinate, then
the smallest threshold, so trees are fully reproducible.

Candidate splits are never compared through the exponentiated likelihood
ratio; comparisons stay on loss differences (its logarithm) to avoid
overflow.

:func:`grow_tree`, :func:`best_split` (the root of a depth-1 tree) and the
bootstrap trees of :func:`ensemble_importance` share one grower,
:func:`_grow_levels`. It takes each tree's resample of the rows, presorts
it on integer rank keys, grows the trees one depth level at a time, and
searches a level's open nodes in a few batched calls of one split kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import RankPermutation, _bounded_response, _is_number, derive_rng
from .errors import (
    ColumnMismatch,
    ConfigError,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteData,
    Unsplittable,
)
from .stats import bayes_permutation, dense_ranks, sorted_runs

__all__ = [
    "SplitRule",
    "Tree",
    "best_split",
    "ensemble_importance",
    "grow_tree",
    "induced_permutation",
    "predict_rows",
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
    mean of its responses. ``n_features`` records the training width so
    prediction can validate inputs. :func:`tree_from_json` rebuilds the same
    five fields that :func:`tree_to_json` wrote.
    """

    n_features: int
    coordinate: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    mean: np.ndarray


def _matrix(data) -> np.ndarray:
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


def _response_pairs(y: np.ndarray) -> np.ndarray:
    """The complex responses y + i*y**2.

    Complex addition adds the real and the imaginary parts separately, so one
    cumulative sum of these gives the running sums of y and of y**2, each bit
    for bit as a float cumulative sum would. Raises NonFiniteData when y is
    too large for the split losses to stay finite (see
    :data:`.core._RESPONSE_BOUND`).
    """
    _bounded_response(y)
    pairs = np.empty(y.shape, dtype=complex)
    pairs.real = y
    pairs.imag = np.square(y)
    return pairs


# indexed by a cut's inadmissibility: max(loss, -inf) keeps the loss, which is
# never NaN (the response is bounded), and max(loss, inf) rules the cut out; one
# take and one maximum cost less than np.putmask
PENALTY = np.array([-np.inf, np.inf])


def _column_split_losses(keys: np.ndarray, pairs: np.ndarray, m=None) -> np.ndarray:
    """Two-sided SSE for every cut position of every row, inf where inadmissible.

    Each row holds one column's node values, or any keys that order them the
    same way, in increasing order, with the node's response pairs (see
    :func:`_response_pairs`) in that same order; their running sums overwrite
    the pairs. Position p (1-based) puts the p smallest values on the left; a
    cut is admissible only between distinct keys. The loss is
    sse_l + sse_r with sse_l = s2_l - s1_l**2 / p and
    sse_r = (s2_m - s2_l) - (s1_m - s1_l)**2 / (m - p), evaluated in this
    order: a cheaper algebraic form can flip near-ties.

    Rows are independent, so a batch of rows from several nodes gives each
    row's losses bit for bit. Rows of different lengths come right-padded to
    one width: keys with the row's last key, pairs with 0, and ``m`` holds
    each row's length as a (rows, 1) array. A padded row's running sums and
    losses at its real cuts are then those of its unpadded call, and every
    padded cut is inadmissible.
    """
    width = pairs.shape[1]
    sums = pairs.cumsum(axis=1, out=pairs)
    # contiguous copies: the passes below run faster on them than on views
    s1, s2 = sums.real[:, :-1].copy(), sums.imag[:, :-1].copy()
    s1_total, s2_total = sums.real[:, -1:].copy(), sums.imag[:, -1:].copy()
    sizes = np.arange(1.0, width)  # p
    # m - p, floored at 1 past a padded row's end, where every cut is inadmissible
    rest = sizes[::-1] if m is None else np.maximum(m - sizes, 1.0)
    losses = np.square(s1)
    losses /= sizes
    np.subtract(s2, losses, out=losses)  # sse_l
    np.subtract(s1_total, s1, out=s1)
    np.square(s1, out=s1)
    s1 /= rest
    np.subtract(s2_total, s2, out=s2)
    s2 -= s1  # sse_r
    losses += s2
    inadmissible = keys[:, :-1] >= keys[:, 1:]
    return np.maximum(losses, PENALTY.take(inadmissible.view(np.uint8)), out=losses)


def best_split(data, y) -> SplitRule:
    """The (coordinate, threshold) minimizing the two-sided SSE: the root
    split of ``grow_tree(data, y, 1)``.

    Every coordinate and every admissible observed threshold is a candidate;
    exact loss ties resolve to the smallest coordinate, then smallest
    threshold. Raises Unsplittable when y is constant, fewer than two samples,
    or no column has two distinct values, and NonFiniteData on NaN or
    infinite entries.
    """
    root = grow_tree(data, y, 1)
    if root.coordinate[0] < 0:
        raise Unsplittable("node needs >= 2 samples, a non-constant response "
                           "and a column with two distinct values")
    return SplitRule(int(root.coordinate[0]), float(root.threshold[0]))


# the padded values one split-kernel call may take, chosen by a sweep (see
# BENCH_10.json); a node larger than half of this is searched alone, unpadded
LEVEL_VALUES = 2**14
# the presorted values of one chunk of forest trees grown together
FOREST_VALUES = 2**16


def _calls(sizes: np.ndarray, w: int):
    """The nodes of each split-kernel call of a level, for nodes of ``sizes``
    rows and w columns: power-of-two size classes, m in (2**(e-1), 2**e],
    largest nodes first, cut into calls of at most LEVEL_VALUES padded
    values."""
    if not sizes.size:
        return
    by_size = np.argsort(-sizes, kind="stable")  # so a call's nodes differ little
    size_class = np.frexp(sizes[by_size] - 1)[1]
    bounds = [0, *(np.flatnonzero(np.diff(size_class)) + 1).tolist(), by_size.size]
    for lo, hi in zip(bounds, bounds[1:]):
        per_call = max(1, LEVEL_VALUES // (w * int(sizes[by_size[lo]])))
        for first in range(lo, hi, per_call):
            yield by_size[first:min(first + per_call, hi)]


def _grow_levels(keys: np.ndarray, pairs: np.ndarray, rows: np.ndarray, depth: int,
                 min_leaf: int):
    """Grow trees one depth level at a time; yield (coordinate, cut) per level.

    ``keys`` (w, n) holds integer rank keys of w columns and ``pairs`` the
    response pairs (see :func:`_response_pairs`) of the n data rows. Each
    row of ``rows`` (c, n) is the resample of one tree. Tree j owns the ids
    j*n .. j*n + n - 1, id j*n + i standing for data row i, and its root
    lists its resample's ids once per column, in stable key order (the CART
    presort), as a (w, n) block.

    Level d yields, for every node at depth d, its split column or -1 for a
    leaf, and ``cut``, the id of its last left row in that column's order. A
    node splits while it has depth left, at least max(2*min_leaf, 2) ids, a
    non-constant response and an admissible cut; the cut is the node's
    first minimum in row-major order, the smallest column, then the
    smallest threshold. A level's open nodes share a few
    kernel calls (see :func:`_calls`); a call of nodes of several sizes pads
    each row on the right. Level d + 1 lists the left children of level d's
    splits, then their right children. The children that may still split get
    their blocks from two compress calls on the whole level, which filter
    each parent's blocks stably.
    """
    w, n = keys.shape
    first_id = np.arange(0, rows.size, n)[:, None]  # each tree's first id
    # (c, w, n): each resample's presort, as positions in the resample
    orders = np.argsort(keys.take(rows, axis=1).swapaxes(0, 1), axis=2, kind="stable")
    level = (rows + first_id).take(orders + first_id[:, None]).ravel()
    key_flat = np.tile(keys, len(rows)).ravel()
    key_rows = np.arange(w)[:, None] * rows.size  # each key row's start in key_flat
    pairs = np.tile(pairs, len(rows))
    m = np.full(len(rows), n)
    min_split = max(2 * min_leaf, 2)
    # per id of an open node, its child: 0 a left and 1 a right child that
    # may still split, 2 one that cannot
    side = np.empty(rows.size, dtype=np.uint8)
    is_open = (m >= min_split) & (depth > 0)
    for d in itertools.count():
        coordinate = np.full(m.size, -1, dtype=np.intp)
        position = np.zeros(m.size, dtype=np.intp)
        cut = np.zeros(m.size, dtype=np.intp)
        opened = np.flatnonzero(is_open)
        last = d + 1 >= depth  # the children are leaves
        sizes = m[opened]
        starts = w * (np.cumsum(sizes) - sizes)
        for batch in _calls(sizes, w):
            c, mb, sb = batch.size, sizes[batch], starts[batch]
            width = int(mb.max())
            padded = bool((mb < width).any())
            if not padded and sb[-1] - sb[0] == (c - 1) * w * width:
                ids = level[sb[0]:sb[0] + c * w * width].reshape(c, w, width)
            else:  # right-padded with each row's last id
                at = np.minimum(np.arange(width), mb[:, None] - 1)[:, None, :]
                ids = level.take(sb[:, None, None] + np.arange(w)[:, None] * mb[:, None, None]
                                 + at)
            sorted_pairs = pairs.take(ids)
            y_sorted = sorted_pairs.real[:, 0]
            constant = (y_sorted == y_sorted[:, :1]).all(axis=1)
            row_sizes = None
            if padded:
                np.copyto(sorted_pairs, 0, where=np.arange(width) >= mb[:, None, None])
                row_sizes = np.repeat(mb, w)[:, None]
            losses = _column_split_losses(key_flat.take(ids + key_rows).reshape(-1, width),
                                          sorted_pairs.reshape(-1, width),
                                          row_sizes).reshape(c, -1)
            best = losses.argmin(axis=1)
            found = np.isfinite(losses[np.arange(c), best]) & ~constant
            k, pos = np.divmod(best, width - 1)
            node = opened[batch]
            coordinate[node[found]] = k[found]
            position[node] = pos
            cut[node] = ids[np.arange(c), k, pos]
            if last:  # the children are leaves: no child reads side
                continue
            left = np.where(found & (pos + 1 >= min_split), 0, 2)
            right = np.where(found & (mb - pos - 1 >= min_split), 1, 2)
            side.put(ids[np.arange(c), k],
                     np.where(np.arange(width) > pos[:, None], right[:, None], left[:, None]))
        yield coordinate, cut
        split = np.flatnonzero(coordinate >= 0)
        if not split.size:
            return
        left_sizes = position[split] + 1
        m = np.concatenate((left_sizes, m[split] - left_sizes))
        is_open = (m >= min_split) & (not last)
        if is_open.any():
            goes = side.take(level)
            level = np.concatenate((level.compress(goes == 0), level.compress(goes == 1)))


def grow_tree(data, y, depth: int, min_leaf: int = 1) -> Tree:
    """Split until depth K, size < 2*min_leaf, or unsplittable.

    Degenerate nodes become leaves carrying the sample mean. The tree grows
    one depth level at a time on the leader of each rank class (see
    :func:`_rank_class_leaders`): each leader's rows are sorted once by their
    integer rank keys (the CART presort), and each level's nodes are searched
    in a few batched split-kernel calls, so a node costs O(m*q) for m rows.
    The leaf means average the training rows that :func:`predict_rows`
    routes to each leaf: a cut lies only between distinct keys and its
    threshold is the value at its last left row, so routing splits a node's
    rows as the grower did. Raises NonFiniteData on NaN or infinite entries.
    """
    z, y = _matrix_and_response(data, y)
    n, q = z.shape
    leaders, keys = _rank_class_leaders(z)
    levels = list(_grow_levels(keys, _response_pairs(y), np.arange(n)[None], depth, min_leaf))
    # subtree sizes, deepest level first: level d + 1 lists the left children
    # of level d's splits, then their right children
    subtree = [np.ones(0, dtype=np.intp)]
    for k, _ in reversed(levels):
        size = np.ones(k.size, dtype=np.intp)
        below = subtree[-1]
        size[k >= 0] += below[:below.size // 2] + below[below.size // 2:]
        subtree.append(size)
    subtree = subtree[:0:-1]
    total = int(subtree[0][0])
    coordinate = np.full(total, -1, dtype=np.intp)
    threshold = np.full(total, np.nan)
    right = np.full(total, -1, dtype=np.intp)
    at = np.zeros(1, dtype=np.intp)  # the level's nodes' preorder numbers
    for d, (k, cut) in enumerate(levels):
        split = np.flatnonzero(k >= 0)
        if not split.size:
            break
        column = leaders[k[split]]
        coordinate[at[split]] = column
        threshold[at[split]] = z[cut[split], column]
        left_at = at[split] + 1
        right[at[split]] = left_at + subtree[d + 1][:split.size]
        at = np.concatenate((left_at, right[at[split]]))
    leaf = _route(coordinate, threshold, right, z)
    rows = np.argsort(leaf, kind="stable")  # leaf after leaf, each leaf's increasing
    sizes = np.bincount(leaf, minlength=total)  # 0 at an internal node
    starts = np.cumsum(sizes) - sizes
    mean = np.full(total, np.nan)
    for size in np.unique(sizes[sizes > 0]):
        same = np.flatnonzero(sizes == size)
        # each leaf's rows, increasing, summed on their own as np.sum sums one leaf
        block = rows.take(starts[same][:, None] + np.arange(size))
        mean[same] = y.take(block).sum(axis=1) / size
    return Tree(q, coordinate, threshold, right, mean)


def _route(coordinate: np.ndarray, threshold: np.ndarray, right: np.ndarray,
           z: np.ndarray) -> np.ndarray:
    """The leaf each row of z reaches: every row descends one level per step,
    a row at a leaf staying there, until no row sits at an internal node."""
    rows = np.arange(z.shape[0])
    node = np.zeros(z.shape[0], dtype=np.intp)
    while ((k := coordinate.take(node)) >= 0).any():
        go_left = z[rows, np.maximum(k, 0)] <= threshold.take(node)
        node = np.where(k < 0, node, np.where(go_left, node + 1, right.take(node)))
    return node


def predict_rows(tree: Tree, data) -> np.ndarray:
    """Leaf mean of every row (see :func:`_route`)."""
    z = _matrix(data)
    if z.shape[1] != tree.n_features:
        raise ColumnMismatch(
            f"rows have {z.shape[1]} columns, tree was grown on {tree.n_features}")
    return tree.mean.take(_route(tree.coordinate, tree.threshold, tree.right, z))


def induced_permutation(tree: Tree, data) -> RankPermutation:
    """Rows sorted by predicted score descending, stable on ties."""
    return bayes_permutation(predict_rows(tree, data))


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
    the same splits as growing on every column. The trees grow in chunks of
    about FOREST_VALUES presorted values, one depth level of a whole chunk at
    a time (see :func:`_grow_levels`). Tree j of a chunk owns the ids
    j*n .. j*n + n - 1, one per data row, and its presort is a stable sort of
    its resample's integer rank keys.
    """
    z, y = _matrix_and_response(data, y)
    if n_trees < 1:
        raise Unsplittable(f"need n_trees >= 1, got {n_trees}")
    n, q = z.shape
    if depth < 1 or n < 2:
        return np.zeros(q)
    leaders, keys = _rank_class_leaders(z)
    w = leaders.size
    pairs = _response_pairs(y)
    chunk = max(1, FOREST_VALUES // (w * n))
    counts = np.zeros(w, dtype=np.intp)
    for first in range(0, n_trees, chunk):
        rows = np.stack([derive_rng(seed, t).integers(0, n, size=n)
                         for t in range(first, min(first + chunk, n_trees))])
        for k, _ in _grow_levels(keys, pairs, rows, depth, 1):
            counts += np.bincount(k[k >= 0], minlength=w)
    freq = np.zeros(q)
    if counts.any():
        freq[leaders] = counts / counts.sum()
    return freq


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
    if not _is_number(value):
        raise ConfigError(f"tree node {i}: {key} {value!r} is not a finite number")
    return float(value)


def tree_from_json(doc: dict) -> Tree:
    """Rebuild a tree from its document.

    Raises ConfigError unless the nodes form one complete tree in
    preorder, every split coordinate lies in [0, n_features) and every
    threshold and leaf mean is finite.
    """
    if not isinstance(doc, dict):
        raise ConfigError("tree document must be a JSON object")
    nodes, q = doc.get("nodes"), doc.get("n_features")
    if type(q) is not int or q < 1 or not isinstance(nodes, list) or not nodes:
        raise ConfigError("tree document needs n_features >= 1 and a nonempty node list")
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
            raise ConfigError(f"{size - i} trailing nodes in tree document")
        parent = slots.pop()
        if parent >= 0:
            right[parent] = i
        if not isinstance(entry, dict):
            raise ConfigError(f"tree node {i} is not an object")
        if "mean" in entry:
            mean[i] = _finite_number(entry, "mean", i)
            continue
        k = entry.get("coordinate")
        if type(k) is not int or not 0 <= k < q:
            raise ConfigError(f"tree node {i}: coordinate {k!r} outside [0, {q})")
        coordinate[i] = k
        threshold[i] = _finite_number(entry, "threshold", i)
        slots += [i, -1]
    if slots:
        raise ConfigError(f"tree document ends with {len(slots)} child nodes missing")
    return Tree(q, coordinate, threshold, right, mean)
