"""Rank statistics: the concordant divergence, classical correlations, and
the pairwise ranking quality metric with its optimal permutation.

:func:`batched_scores` scores each feature-response statistic over every
column of an (n, q) feature matrix, and :func:`t0_divergence` is the
one-column form of the t0 kernel. The per-column Pearson, Spearman and
Chatterjee functions and the O(n^2) pair enumerations of t0 and Kendall's
tau are the test oracles in ``tests/test_stats.py``.

The scorer takes one response of shape (n,) or one per column group, of
shape (n, g) with q a multiple of g: column j pairs with response
``j // (q // g)``. Each response must be tie-free: ``core._response_order``
orders it once per call and rejects ties, and its ranks and centring run
once per group. Every column is still reduced on its own, so the scores are
bit for bit those of g separate calls. A repeated experiment scores several
repeats' feature matrices, stacked side by side, in one call.

Every statistic but Pearson's, and every CART split, sees a feature only
through its tie-aware ranks, and :func:`sorted_runs` makes that decision
once. Dense ranks, midranks (bit for bit scipy's ``rankdata``) and tied-pair
counts all derive from it; ``tree`` keys its forests on the same dense
ranks. :func:`batched_scores` takes the sorted runs of a matrix's columns,
so the methods that score one matrix can share one sort of it.

Every statistic of a feature and a response raises NonFiniteData on NaN
or infinite entries. All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .core import RankPermutation, _bounded_response, _response_order
from .errors import LengthMismatch, NonFiniteData, _shown

__all__ = [
    "batched_scores",
    "bayes_permutation",
    "dense_ranks",
    "midranks",
    "ranking_metric_T",
    "sorted_runs",
    "t0_divergence",
    "tied_pairs",
]


def _paired(u, y, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != ndim or y.ndim not in (1, ndim) or u.shape[0] != y.shape[0]:
        raise LengthMismatch(f"paired arrays of shapes {u.shape} and {y.shape}")
    if u.shape[0] < 2:
        raise LengthMismatch("need at least two observations")
    if not (np.isfinite(u).all() and np.isfinite(y).all()):
        raise NonFiniteData("statistics need finite entries")
    return u, y


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def sorted_runs(rows) -> tuple[np.ndarray, np.ndarray]:
    """The argsort of each row of a (q, n) array of finite values, and the
    heads of the runs of equal values: the sorted entries that differ from
    their predecessor, each row's first entry among them."""
    order = np.argsort(rows, axis=1)
    s = np.take_along_axis(rows, order, axis=1)
    head = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=head[:, 1:])
    return order, head


def _unsorted(order, by_rank) -> np.ndarray:
    """Values given in each row's sorted order, put back in row order."""
    out = np.empty(by_rank.shape, dtype=by_rank.dtype)
    np.put_along_axis(out, order, by_rank, axis=1)
    return out


def _run_firsts(head) -> np.ndarray:
    """Sorted position of the first entry of each sorted entry's run."""
    idx = np.arange(head.shape[1])
    return np.maximum.accumulate(np.where(head, idx, 0), axis=1)


def dense_ranks(order, head) -> np.ndarray:
    """0-based dense ranks of each row: the number of distinct smaller values."""
    return _unsorted(order, np.cumsum(head, axis=1) - 1)


def _ordinal_ranks(order) -> np.ndarray:
    """0-based ranks of each tie-free row, from its argsort: its dense ranks."""
    return _unsorted(order, np.broadcast_to(np.arange(order.shape[1]), order.shape))


def midranks(order, head) -> np.ndarray:
    """1-based ranks of each row, every run of equal values sharing the mean
    of its positions: exact half-integers, bit for bit scipy's
    ``rankdata(method="average")``."""
    n = head.shape[1]
    tail = np.ones_like(head)  # the last entry of each run
    tail[:, :-1] = head[:, 1:]
    last = n - 1 - _run_firsts(tail[:, ::-1])[:, ::-1]
    return _unsorted(order, (_run_firsts(head) + last) / 2 + 1)


def tied_pairs(head) -> np.ndarray:
    """Pairs of equal entries in each row, from the run heads of the sorted
    rows: every entry pairs with the entries before it in its run."""
    return (np.arange(head.shape[1]) - _run_firsts(head)).sum(axis=1)


# ---------------------------------------------------------------------------
# concordant divergence
# ---------------------------------------------------------------------------

def t0_divergence(u, y) -> float:
    """Concordant divergence between a feature column and the response.

    Accumulates |y_i - y_j| over pairs whose feature order disagrees with the
    response order, scaled by 2/(n(n-1)). Per unordered pair: a strictly
    discordant pair contributes 2|dy|, a feature-tied pair contributes |dy|,
    a concordant pair contributes 0. Zero exactly when the feature ranks the
    responses concordantly with strict feature order; always >= 0.

    The one-column case of the rank form :func:`_t0`, in O(n log n).
    """
    u, y = _paired(u, y)
    return float(batched_scores("t0", u[:, None], y)[0])


# ---------------------------------------------------------------------------
# column-batched scorers
# ---------------------------------------------------------------------------
#
# Columns become contiguous rows and every sum reduces one row on its own,
# never through a matrix product, so equal columns score bit-identically
# wherever they sit and selection ties still break toward the lowest index.

def _rows(z, y) -> tuple[np.ndarray, np.ndarray]:
    """Feature columns as contiguous (q, n) rows, and the responses as
    contiguous (g, n) rows; column j pairs with response j // (q // g)."""
    z, y = _paired(z, y, ndim=2)
    ys = np.ascontiguousarray(y.T.reshape(-1, y.shape[0]))
    if ys.shape[0] == 0 or z.shape[1] % ys.shape[0]:
        raise LengthMismatch(f"{z.shape[1]} columns in {ys.shape[0]} response groups")
    return np.ascontiguousarray(z.T), ys


def _grouped(rows, g) -> np.ndarray:
    """(q, n) rows as a (g, q // g, n) view, one block per response."""
    return rows.reshape(g, rows.shape[0] // g, rows.shape[1])


def _t0(rows, ys, order, runs) -> np.ndarray:
    """:func:`t0_divergence` of every column, from midranks in O(q n log n).

    With r the feature's midranks and y_(k) the k-th smallest response,
    t0 = 2/(n(n-1)) [sum_k (2k-n-1) y_(k) - 2 sum_i (r_i - (n+1)/2) y_i].
    The first term is the same for every feature, so t0 ranks features by
    the covariance between their midranks and the raw response: the larger
    the covariance, the smaller t0. Summed in increasing-response order the
    bracket is 2 sum_k (k - r_(k)) y_(k), whose gaps k - r_(k) are exact
    half-integers, all zero for a strictly concordant feature.
    """
    g, n = ys.shape
    ys = np.take_along_axis(ys, order, axis=1)
    # the features' midranks read in increasing-response order: exact
    # half-integers, so bit for bit the midranks of the reordered rows
    by_y = np.take_along_axis(_grouped(midranks(*runs), g), order[:, None, :], axis=2)
    gaps = np.arange(1.0, n + 1.0) - by_y.reshape(rows.shape)
    # the gaps sum to zero, so centring y changes nothing but the rounding
    centred = ys - ys.mean(axis=1, keepdims=True)
    total = (_grouped(gaps, g) * centred[:, None, :]).sum(axis=2).ravel()
    return 4.0 * total / (n * (n - 1))


def _pearson(rows, ys, order=None, runs=None) -> np.ndarray:
    _bounded_response(ys)
    q, g = rows.shape[0], ys.shape[0]
    dz = rows - rows.mean(axis=1, keepdims=True)
    dy = ys - ys.mean(axis=1, keepdims=True)
    spread = np.sqrt((dz**2).sum(axis=1)) * np.repeat(np.sqrt((dy**2).sum(axis=1)), q // g)
    live = (spread > 0) & ~np.all(rows == rows[:, :1], axis=1)
    # vecdot runs the same BLAS dot per row as np.dot on one pair of rows
    dots = np.vecdot(_grouped(dz, g), dy[:, None, :]).ravel()
    out = np.zeros(q)
    out[live] = dots[live] / spread[live]
    return out


def _spearman(rows, ys, order, runs) -> np.ndarray:
    # a tie-free response's midranks are its ordinal ranks + 1
    return _pearson(midranks(*runs), _ordinal_ranks(order) + 1.0)


def _inversions(v, ref) -> np.ndarray:
    """Pairs i < j with v[i] > v[j] in each row of a (q, n) array whose rows
    all hold the multiset of non-negative integers that the sorted (1, n)
    ``ref`` holds.

    Every row is stably partitioned on each bit in turn, highest first (a
    wavelet matrix), so entries sharing the bits above b sit together in
    their original order. A pair first differing at bit b is inverted
    exactly when its 1 precedes its 0 there. The 1-before-0 pairs across
    groups depend only on the multiset, so a sorted copy, which has no
    inversions, cancels them. A row's 1-before-0 pairs are a constant less
    the sum of the positions of its 1s, which each level reads off in O(q n).
    """
    v = np.vstack([v, ref]).astype(np.min_scalar_type(ref[0, -1]))
    q, n = v.shape
    idx = np.arange(n)
    ones_at = np.zeros(q, dtype=np.int64)
    for b in reversed(range(int(ref[0, -1]).bit_length())):
        one = (v & (1 << b)) != 0
        ones_at += one.astype(np.int64) @ idx
        k = int(np.count_nonzero(one[-1]))
        parted = np.empty_like(v)
        parted[:, :n - k] = np.compress(~one.ravel(), v).reshape(q, n - k)
        parted[:, n - k:] = np.compress(one.ravel(), v).reshape(q, k)
        v = parted
    return ones_at[-1] - ones_at[:-1]


def _kendall(rows, ys, order, runs) -> np.ndarray:
    """(concordant - discordant) / C(n, 2) of every column, exactly, in
    O(q n log n); tied pairs count as neither.

    Knight's (1966) count, batched, for a tie-free y: with n0 = C(n, 2)
    pairs of which n1 tie in the column, S = n0 - n1 - 2D, where D counts
    the inversions of the y-ranks once each column is sorted by (u, y).
    Every count is an integer, so S is exact and S / C(n, 2) is bit for bit
    the pair enumeration's quotient. A constant column scores 0.0.
    """
    (q, n), g = rows.shape, ys.shape[0]
    bits = (n - 1).bit_length()
    key = _grouped(dense_ranks(*runs) << bits, g) | _ordinal_ranks(order)[:, None, :]
    key = np.sort(key.reshape(q, n), axis=1)
    key &= (1 << bits) - 1  # each row: the y-ranks 0..n-1 in (u, y) order
    d = _inversions(key, np.arange(n)[None])
    return (n * (n - 1) // 2 - tied_pairs(runs[1]) - 2 * d) / (n * (n - 1) / 2)


def _chatterjee(rows, ys, order, runs) -> np.ndarray:
    n, g = rows.shape[1], ys.shape[0]
    u_order, u_head = runs
    # the y-ranks in feature order
    path = np.take_along_axis(_ordinal_ranks(order)[:, None, :], _grouped(u_order, g), axis=2)
    steps = np.abs(np.diff(path, axis=2)).sum(axis=2).ravel()
    xi = 1.0 - 3.0 * steps / (n * n - 1)
    return np.where(u_head.all(axis=1), xi, -1.0)


_KERNELS = {"t0": _t0, "pearson": _pearson, "spearman": _spearman,
            "kendall": _kendall, "chatterjee": _chatterjee}
# the kernels that read the sorted runs of the features: all but Pearson's
_RUNS_METHODS = ("t0", "spearman", "kendall", "chatterjee")


def batched_scores(method: str, z, y, runs=None) -> np.ndarray:
    """The ``method`` statistic of every column of z against y, for
    ``method`` one of "t0" (:func:`t0_divergence`, see :func:`_t0`),
    "pearson", "spearman" (Pearson's on midranks), "kendall" (see
    :func:`_kendall`) and "chatterjee". Entries must be finite, and every
    response tie-free: a tied or constant response raises TiesInResponse
    (see ``core._response_order``). Pearson and Spearman score 0.0 only
    where the column is constant or a spread rounds to zero.
    Chatterjee's is the tie-free variant,
    1 - 3 * sum |r_{i+1} - r_i| / (n^2 - 1) with r the response ranks in
    feature order, and scores -1.0 only where the column has a tie.

    ``runs`` is :func:`sorted_runs` of z's columns as rows (of ``z.T``); it
    is not checked against z. With it, several methods scoring one z share
    one sort, and each gives bit for bit what it gives alone; without it,
    every method but Pearson's sorts z itself.
    """
    if method not in _KERNELS:
        raise LengthMismatch(f"no batched scorer {_shown(method)}; choose from {tuple(_KERNELS)}")
    rows, ys = _rows(z, y)
    order = _response_order(ys)
    if runs is None and method in _RUNS_METHODS:
        runs = sorted_runs(rows)
    return _KERNELS[method](rows, ys, order, runs)


# ---------------------------------------------------------------------------
# ranking quality
# ---------------------------------------------------------------------------

def ranking_metric_T(perm: RankPermutation, cond_means) -> float:
    """Average pairwise conditional-mean gap under a permutation.

    (2/(N(N-1))) sum_{i<i'} (mu[j_i] - mu[j_{i'}]) where j is the permutation
    order; in position i the mean appears with net coefficient N-1-2i.
    """
    mu = np.asarray(cond_means, dtype=float)
    order = np.asarray(perm.order, dtype=int)
    n = mu.shape[0]
    if order.shape[0] != n:
        raise LengthMismatch(f"permutation of length {order.shape[0]} for {n} means")
    if n < 2:
        raise LengthMismatch("need at least two observations")
    coef = n - 1 - 2 * np.arange(n)
    return 2.0 * float(np.dot(coef, mu[order])) / (n * (n - 1))


def bayes_permutation(cond_means) -> RankPermutation:
    """Permutation sorting conditional means descending (ties: by index).

    This permutation maximizes :func:`ranking_metric_T` for the given means.
    """
    mu = np.asarray(cond_means, dtype=float)
    order = np.argsort(-mu, kind="stable")
    return RankPermutation(tuple(int(i) for i in order))
