"""Rank statistics: the concordant divergence, classical correlations, and
the pairwise ranking quality metric with its optimal permutation.

Each feature-response statistic has a per-column reference function and a
column-batched ``*_scores`` scorer over an (n, q) feature matrix.

All functions are pure and safe for concurrent invocation on shared inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import kendalltau, rankdata

from .core import RankPermutation
from .errors import LengthMismatch, TiesInResponse, TiesPresent, ZeroVariance

__all__ = [
    "bayes_permutation",
    "chatterjee_scores",
    "chatterjee_xi",
    "kendall_scores",
    "kendall_tau",
    "pearson",
    "pearson_scores",
    "ranking_metric_T",
    "spearman",
    "spearman_scores",
    "t0_divergence",
    "t0_scores",
]


def _paired(u, y, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim != ndim or y.ndim != 1 or u.shape[0] != y.shape[0]:
        raise LengthMismatch(f"paired arrays of shapes {u.shape} and {y.shape}")
    if u.shape[0] < 2:
        raise LengthMismatch("need at least two observations")
    return u, y


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

    This is the O(n^2) pair-enumeration reference path; :func:`t0_scores`
    computes it from midranks.
    """
    u, y = _paired(u, y)
    n = u.shape[0]
    if np.unique(y).size != n:
        raise TiesInResponse("response vector contains exact ties")
    du = u[:, None] - u[None, :]
    dy = y[:, None] - y[None, :]
    ady = np.abs(dy)
    # ordered pairs (i, j): 1(u_i >= u_j) 1(y_i < y_j) + 1(u_i < u_j) 1(y_i >= y_j)
    hits = ((du >= 0) & (dy < 0)) | ((du < 0) & (dy >= 0))
    np.fill_diagonal(hits, False)
    total = float(np.sum(ady, where=hits))
    return 2.0 * total / (n * (n - 1))


# ---------------------------------------------------------------------------
# classical correlations
# ---------------------------------------------------------------------------

def kendall_tau(u, y) -> float:
    """(concordant - discordant) / C(n, 2); tied-feature pairs count as neither."""
    u, y = _paired(u, y)
    n = u.shape[0]
    prod = np.sign(u[:, None] - u[None, :]) * np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    vals = prod[upper]
    concordant = int(np.sum(vals > 0))
    discordant = int(np.sum(vals < 0))
    return (concordant - discordant) / (n * (n - 1) / 2)


def pearson(u, y) -> float:
    """Standard sample Pearson correlation; raises ZeroVariance on constants."""
    u, y = _paired(u, y)
    du = u - u.mean()
    dy = y - y.mean()
    spread = float(np.sqrt(np.sum(du**2))) * float(np.sqrt(np.sum(dy**2)))
    # exact equality too: the rounded mean of a constant like 0.1 can differ from it
    if spread == 0.0 or np.all(u == u[0]) or np.all(y == y[0]):
        raise ZeroVariance("pearson needs nonzero variance in both arguments")
    return float(np.dot(du, dy) / spread)


def spearman(u, y) -> float:
    """Pearson correlation of rank vectors, with midranks on ties."""
    u, y = _paired(u, y)
    return pearson(rankdata(u, method="average"), rankdata(y, method="average"))


def chatterjee_xi(u, y) -> float:
    """Chatterjee's rank coefficient, tie-free variant.

    Sorts pairs by the feature, ranks the responses in that order and returns
    1 - 3 * sum |r_{i+1} - r_i| / (n^2 - 1). Raises TiesPresent on any tie in
    either argument.
    """
    u, y = _paired(u, y)
    n = u.shape[0]
    if np.unique(u).size != n or np.unique(y).size != n:
        raise TiesPresent("tie-free variant: u and y must both be tie-free")
    order = np.argsort(u, kind="stable")
    y_by_u = y[order]
    r = rankdata(y_by_u, method="ordinal")
    return 1.0 - 3.0 * float(np.sum(np.abs(np.diff(r)))) / (n * n - 1)


# ---------------------------------------------------------------------------
# column-batched scorers
# ---------------------------------------------------------------------------
#
# Columns become contiguous rows and every sum reduces one row on its own,
# never through a matrix product, so equal columns score bit-identically
# wherever they sit and selection ties still break toward the lowest index.

def _rows(z, y) -> tuple[np.ndarray, np.ndarray]:
    """Feature columns as contiguous (q, n) rows, and the response."""
    z, y = _paired(z, y, ndim=2)
    return np.ascontiguousarray(z.T), y


def t0_scores(z, y) -> np.ndarray:
    """:func:`t0_divergence` of every column, from midranks in O(q n log n).

    With r the feature's midranks and y_(k) the k-th smallest response,
    t0 = 2/(n(n-1)) [sum_k (2k-n-1) y_(k) - 2 sum_i (r_i - (n+1)/2) y_i].
    The first term is the same for every feature, so t0 ranks features by
    the covariance between their midranks and the raw response: the larger
    the covariance, the smaller t0. Summed in increasing-response order the
    bracket is 2 sum_k (k - r_(k)) y_(k), whose gaps k - r_(k) are exact
    half-integers, all zero for a strictly concordant feature.
    """
    rows, y = _rows(z, y)
    n = y.shape[0]
    order = np.argsort(y, kind="stable")
    ys = y[order]
    if np.any(ys[1:] == ys[:-1]):
        raise TiesInResponse("response vector contains exact ties")
    gaps = np.arange(1.0, n + 1.0) - rankdata(rows[:, order], axis=1)
    # the gaps sum to zero, so centring y changes nothing but the rounding
    total = (gaps * (ys - ys.mean())).sum(axis=1)
    return 4.0 * total / (n * (n - 1))


def pearson_scores(z, y) -> np.ndarray:
    """:func:`pearson` of every column, bit for bit; 0.0 in place of ZeroVariance."""
    rows, y = _rows(z, y)
    dz = rows - rows.mean(axis=1, keepdims=True)
    dy = y - y.mean()
    spread = np.sqrt((dz**2).sum(axis=1)) * np.sqrt((dy**2).sum())
    live = (spread > 0) & ~np.all(rows == rows[:, :1], axis=1) & ~np.all(y == y[0])
    out = np.zeros(rows.shape[0])
    # vecdot runs the same BLAS dot per row as the np.dot in :func:`pearson`
    out[live] = np.vecdot(dz[live], dy) / spread[live]
    return out


def spearman_scores(z, y) -> np.ndarray:
    """:func:`spearman` of every column, bit for bit; 0.0 in place of ZeroVariance."""
    return pearson_scores(rankdata(z, axis=0), rankdata(y))


def kendall_scores(z, y) -> np.ndarray:
    """:func:`kendall_tau` of every column in O(q n log n), bit for bit.

    scipy's tau-b (Knight's algorithm) is S / sqrt((n0-n1)(n0-n2)) for the
    integer S = concordant - discordant, with n0 = n(n-1)/2 pairs of which n1
    tie in the column and n2 in y. S is recovered by rounding and divided as
    :func:`kendall_tau` divides it. Constant columns score 0.0.
    """
    rows, y = _rows(z, y)
    n = y.shape[0]
    # n0 - n1 = sum of (min-rank - 1): each value pairs untied with those below
    untied = rankdata(rows, method="min", axis=1).sum(axis=1) - n
    y_untied = rankdata(y, method="min").sum() - n
    out = np.zeros(rows.shape[0])
    for j in np.flatnonzero((untied > 0) & (y_untied > 0)):
        root = np.sqrt(untied[j]) * np.sqrt(y_untied)
        out[j] = round(kendalltau(rows[j], y).statistic * root) / (n * (n - 1) / 2)
    return out


def chatterjee_scores(z, y) -> np.ndarray:
    """:func:`chatterjee_xi` of every column, bit for bit; -1.0 in place of
    TiesPresent."""
    rows, y = _rows(z, y)
    n = y.shape[0]
    if np.unique(y).size != n:
        return np.full(rows.shape[0], -1.0)
    order = np.argsort(rows, axis=1, kind="stable")
    tie_free = np.all(np.diff(np.take_along_axis(rows, order, axis=1), axis=1) != 0,
                      axis=1)
    # y is tie-free, so its ranks in feature order are its overall ranks
    steps = np.abs(np.diff(rankdata(y, method="ordinal")[order], axis=1)).sum(axis=1)
    xi = 1.0 - 3.0 * steps / (n * n - 1)
    return np.where(tie_free, xi, -1.0)


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
