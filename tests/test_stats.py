import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import rankdata

from symrank.core import RankPermutation, _bounded_response, derive_rng
from symrank.errors import LengthMismatch, NonFiniteData, TiesInResponse
from symrank.evalsel import synth_3var
from symrank.stats import (
    _inversions,
    _paired,
    batched_scores,
    bayes_permutation,
    dense_ranks,
    midranks,
    ranking_metric_T,
    sorted_runs,
    t0_divergence,
    tied_pairs,
)


def t0_by_ordered_pairs(u, y):
    """Literal ordered-pair enumeration of the divergence definition."""
    u = np.asarray(u, float)
    y = np.asarray(y, float)
    n = len(u)
    total = 0.0
    for i, j in itertools.permutations(range(n), 2):
        hit = (u[i] >= u[j] and y[i] < y[j]) or (u[i] < u[j] and y[i] >= y[j])
        if hit:
            total += 2.0 * abs(y[i] - y[j]) / (n * (n - 1))
    return total


def kendall_tau(u, y):
    """(concordant - discordant) / C(n, 2) by O(n^2) pair enumeration; tied
    pairs count as neither. The oracle for ``batched_scores("kendall", ...)``."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    n = u.shape[0]
    prod = np.sign(u[:, None] - u[None, :]) * np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    vals = prod[upper]
    concordant = int(np.sum(vals > 0))
    discordant = int(np.sum(vals < 0))
    return (concordant - discordant) / (n * (n - 1) / 2)


class Undefined(ValueError):
    """A per-column oracle's statistic is undefined on its input: a constant
    argument for Pearson and Spearman, a tie for Chatterjee."""


def pearson(u, y) -> float:
    """Standard sample Pearson correlation; raises Undefined on constants
    and NonFiniteData on a response too large for its squared sums. The
    oracle for ``batched_scores("pearson", ...)``, which scores 0.0 where
    this raises Undefined."""
    u, y = _paired(u, y)
    _bounded_response(y)
    du = u - u.mean()
    dy = y - y.mean()
    spread = float(np.sqrt(np.sum(du**2))) * float(np.sqrt(np.sum(dy**2)))
    # exact equality too: the rounded mean of a constant like 0.1 can differ from it
    if spread == 0.0 or np.all(u == u[0]) or np.all(y == y[0]):
        raise Undefined("pearson needs nonzero variance in both arguments")
    return float(np.dot(du, dy) / spread)


def spearman(u, y) -> float:
    """Pearson correlation of rank vectors, with midranks on ties. The oracle
    for ``batched_scores("spearman", ...)``."""
    u, y = _paired(u, y)
    return pearson(*midranks(*sorted_runs(np.vstack([u, y]))))


def chatterjee_xi(u, y) -> float:
    """Chatterjee's rank coefficient, tie-free variant.

    Sorts pairs by the feature, ranks the responses in that order and returns
    1 - 3 * sum |r_{i+1} - r_i| / (n^2 - 1). Raises Undefined on any tie in
    either argument. The oracle for ``batched_scores("chatterjee", ...)``,
    which scores -1.0 where this raises.
    """
    u, y = _paired(u, y)
    n = u.shape[0]
    if np.unique(u).size != n or np.unique(y).size != n:
        raise Undefined("tie-free variant: u and y must both be tie-free")
    r = dense_ranks(*sorted_runs(y[None, np.argsort(u)]))
    return 1.0 - 3.0 * float(np.sum(np.abs(np.diff(r)))) / (n * n - 1)


def tie_free_pair(rng, n):
    u = rng.normal(size=n)
    y = rng.normal(size=n)
    while np.unique(u).size < n:
        u = rng.normal(size=n)
    while np.unique(y).size < n:
        y = rng.normal(size=n)
    return u, y


class TestT0:
    def test_concordant_is_zero(self):
        assert t0_divergence([1, 2, 3], [1, 2, 3]) == 0.0

    def test_reversed(self):
        assert t0_divergence([3, 2, 1], [1, 2, 3]) == pytest.approx(8 / 3, abs=1e-15)

    def test_feature_tie_counts_once(self):
        assert t0_divergence([1, 1, 2], [1, 2, 3]) == pytest.approx(1 / 3, abs=1e-15)

    def test_response_ties_rejected(self):
        with pytest.raises(TiesInResponse):
            t0_divergence([1, 2, 3], [1, 1, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            t0_divergence([1, 2], [1, 2, 3])

    def test_matches_ordered_pair_enumeration(self):
        rng = derive_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            u = rng.integers(0, 4, size=n).astype(float)  # feature ties likely
            y = np.arange(n, dtype=float)
            rng.shuffle(y)
            assert t0_divergence(u, y) == pytest.approx(
                t0_by_ordered_pairs(u, y), abs=1e-13)

    def test_nonnegative_random(self):
        rng = derive_rng(5)
        for _ in range(100):
            u, y = tie_free_pair(rng, int(rng.integers(2, 30)))
            assert t0_divergence(u, y) >= 0.0

    def test_monotone_invariance(self):
        rng = derive_rng(6)
        u, y = tie_free_pair(rng, 25)
        base = t0_divergence(u, y)
        for g in (np.exp, lambda v: v**3, lambda v: 2 * v + 7):
            assert t0_divergence(g(u), y) == pytest.approx(base, rel=1e-12)

    def test_reversal_identity(self):
        rng = derive_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            u, y = tie_free_pair(rng, n)
            lhs = t0_divergence(u, y) + t0_divergence(-u, y)
            pair_sum = sum(abs(y[i] - y[j])
                           for i, j in itertools.combinations(range(n), 2))
            assert lhs == pytest.approx(4.0 * pair_sum / (n * (n - 1)), rel=1e-12)

    def test_fast_path_agrees(self):
        rng = derive_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            u = rng.integers(0, 6, size=n).astype(float)
            y = np.arange(n, dtype=float) * rng.uniform(0.5, 2.0)
            rng.shuffle(y)
            ref = t0_by_ordered_pairs(u, y)
            fast = batched_scores("t0", u[:, None], y)[0]
            assert fast == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert t0_divergence(u, y) == fast

    def test_memory_grows_linearly(self):
        # no n x n array: an (n, n) float temporary alone would be 72 MB
        rng = derive_rng(12)
        n = 3000
        u, y = rng.normal(size=n), rng.normal(size=n)
        tracemalloc.start()
        try:
            t0_divergence(u, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_ranks_features_by_midrank_response_covariance(self):
        # t0 = 2/(n(n-1)) [sum_k (2k-n-1) y_(k) - 2 sum_i (r_i - (n+1)/2) y_i]:
        # the first term is shared, so a larger covariance means a smaller t0
        rng = derive_rng(10)
        n, q = 40, 8
        y = rng.normal(size=n)
        z = np.round(rng.normal(size=(n, q)) + np.linspace(0, 2, q) * y[:, None], 1)
        t0 = np.array([t0_divergence(z[:, j], y) for j in range(q)])
        cov = (rankdata(z, axis=0) - (n + 1) / 2).T @ y
        shared = (2 * np.arange(1, n + 1) - n - 1) @ np.sort(y)
        assert t0 == pytest.approx(2.0 * (shared - 2.0 * cov) / (n * (n - 1)),
                                   rel=1e-12, abs=1e-12)
        assert np.unique(cov).size == q
        assert np.argsort(t0).tolist() == np.argsort(-cov).tolist()

    def test_inactive_variable_bounded_away_from_zero(self):
        rng = derive_rng(9)
        n, draws = 30, 120
        y = rng.normal(size=n)
        vals = [t0_divergence(rng.normal(size=n), y) for _ in range(draws)]
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(draws)
        assert mean - 2 * se > 0


def batched_tau(u, y):
    """``batched_scores("kendall", ...)`` of one column."""
    return batched_scores("kendall", np.asarray(u, dtype=float)[:, None], y)[0]


class TestKendall:
    # every expectation holds for the oracle and for the batched scorer
    TAUS = (kendall_tau, batched_tau)

    def test_perfect(self):
        for tau in self.TAUS:
            assert tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mixed(self):
        for tau in self.TAUS:
            assert tau([1, 2, 3], [3, 1, 2]) == pytest.approx(-1 / 3)

    def test_feature_tie_counts_as_neither(self):
        # pairs: (0,1) tied in u; (0,2) and (1,2) concordant -> (2 - 0) / 3
        for tau in self.TAUS:
            assert tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    def test_matches_pair_enumeration(self):
        rng = derive_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            u = rng.integers(0, 5, size=n).astype(float)
            y = rng.normal(size=n)
            conc = disc = 0
            for i, j in itertools.combinations(range(n), 2):
                if u[i] == u[j] or y[i] == y[j]:
                    continue
                if (u[i] - u[j]) * (y[i] - y[j]) > 0:
                    conc += 1
                else:
                    disc += 1
            expected = (conc - disc) / (n * (n - 1) / 2)
            for tau in self.TAUS:
                assert tau(u, y) == pytest.approx(expected, abs=1e-15)

    def test_monotone_invariance(self):
        rng = derive_rng(13)
        u, y = tie_free_pair(rng, 20)
        for tau in self.TAUS:
            assert tau(np.exp(u), y) == pytest.approx(tau(u, y))


class TestPearsonSpearman:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_spearman_rank_example(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance(self):
        with pytest.raises(Undefined):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(Undefined):  # its rounded mean is not 0.1
            pearson(np.full(20, 0.1), np.arange(20.0))
        with pytest.raises(Undefined):
            spearman([2, 2, 2], [1, 2, 3])

    def test_spearman_monotone_invariance(self):
        rng = derive_rng(14)
        u, y = tie_free_pair(rng, 15)
        assert spearman(u**3, y) == pytest.approx(spearman(u, y))


class TestChatterjee:
    def test_small_examples(self):
        assert chatterjee_xi([1, 2, 3], [1, 2, 3]) == pytest.approx(0.25)
        assert chatterjee_xi([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(0.5)
        assert chatterjee_xi([1, 2], [2, 1]) == pytest.approx(0.0)

    def test_ties_rejected(self):
        with pytest.raises(Undefined):
            chatterjee_xi([1, 1, 2], [1, 2, 3])
        with pytest.raises(Undefined):
            chatterjee_xi([1, 2, 3], [1, 1, 2])

    def test_monotone_invariance(self):
        rng = derive_rng(15)
        u, y = tie_free_pair(rng, 40)
        assert chatterjee_xi(np.exp(u), y) == pytest.approx(chatterjee_xi(u, y))


def T_by_double_loop(perm, mu):
    mu = np.asarray(mu, float)
    order = list(perm.order)
    n = len(order)
    total = 0.0
    for i in range(n - 1):
        for k in range(i + 1, n):
            total += mu[order[i]] - mu[order[k]]
    return 2.0 * total / (n * (n - 1))


class TestRankingMetric:
    def test_three_mean_example(self):
        assert ranking_metric_T(RankPermutation((0, 2, 1)), [3, 1, 2]) == pytest.approx(4 / 3)

    def test_single_pair(self):
        assert ranking_metric_T(RankPermutation((0, 1)), [1, 2]) == pytest.approx(-1.0)

    def test_matches_double_loop(self):
        rng = derive_rng(16)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            mu = rng.normal(size=n)
            perm = RankPermutation(tuple(rng.permutation(n).tolist()))
            assert ranking_metric_T(perm, mu) == pytest.approx(
                T_by_double_loop(perm, mu), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bayes_maximizes_over_all_permutations(self, n):
        rng = derive_rng(17, n)
        mu = rng.normal(size=n)
        best = ranking_metric_T(bayes_permutation(mu), mu)
        for perm in itertools.permutations(range(n)):
            assert ranking_metric_T(RankPermutation(perm), mu) <= best + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ranking_metric_T(RankPermutation((0, 1)), [1, 2, 3])


class TestBayesPermutation:
    def test_descending(self):
        assert bayes_permutation([3, 1, 2]).order == (0, 2, 1)
        assert bayes_permutation([1, 2, 3]).order == (2, 1, 0)

    def test_stable_tie_rule(self):
        perm = bayes_permutation([5, 5, 1])
        assert perm.order == (0, 1, 2)
        # the tied alternative scores the same T
        mu = [5, 5, 1]
        assert ranking_metric_T(perm, mu) == pytest.approx(
            ranking_metric_T(RankPermutation((1, 0, 2)), mu))

    @given(st.lists(
        st.floats(-50, 50).filter(lambda v: v == 0 or abs(v) > 1e-3),
        min_size=2, max_size=10, unique=True))
    @settings(max_examples=60)
    def test_argmax_invariant_under_increasing_transform(self, mu):
        # magnitudes bounded away from the denormal range so the cube map
        # stays strictly increasing in float arithmetic
        mu = np.asarray(mu)
        for g in (np.exp, lambda v: v**3, lambda v: 0.5 * v - 3):
            assert bayes_permutation(g(mu)).order == bayes_permutation(mu).order


# ---------------------------------------------------------------------------
# the rank primitive against scipy and direct counts
# ---------------------------------------------------------------------------

@st.composite
def rank_rows(draw):
    """Rows of one length n >= 1, each tie-heavy, tie-free or constant."""
    n = draw(st.integers(1, 40))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["ties", "tie-free", "constant"]),
                              min_size=1, max_size=4)):
        if kind == "ties":
            rows.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                               max_size=n))) / 4)
        elif kind == "tie-free":
            rows.append(np.array(draw(st.permutations(range(n)))) * -0.7 + 1e6)
        else:
            rows.append(np.full(n, draw(st.sampled_from([0.1, -3.0, 1e300]))))
    return np.array(rows)


class TestSortedRuns:
    @given(rank_rows())
    @example(np.array([[2.5], [-1.0]]))
    @example(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
    @settings(max_examples=200, deadline=None)
    def test_ranks(self, rows):
        order, head = sorted_runs(rows)
        assert midranks(order, head).tobytes() == rankdata(rows, axis=1).tobytes()
        dense = dense_ranks(order, head)
        assert dense.tolist() == [[len(set(row[row < v])) for v in row] for row in rows]
        for row, ranks in zip(rows, dense):
            if np.unique(row).size == row.size:
                assert (ranks + 1).tolist() == rankdata(row, method="ordinal").tolist()
        assert tied_pairs(head).tolist() == [
            sum(a == b for a, b in itertools.combinations(row, 2)) for row in rows]


# ---------------------------------------------------------------------------
# column-batched scorers against the per-column oracles
# ---------------------------------------------------------------------------

@st.composite
def scoring_inputs(draw):
    """A tie-free response and five columns: a tie-heavy base, a constant,
    a copy of the base, its cube (rank-equivalent), and a tie-free column."""
    n = draw(st.integers(2, 30))
    y = np.array(draw(st.lists(
        st.floats(-100, 100, allow_subnormal=False), min_size=n, max_size=n,
        unique=True)))
    base = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) / 10
    const = draw(st.sampled_from([0.1, 3.0, -7.25]))
    tie_free = y[np.array(draw(st.permutations(range(n))))]
    z = np.column_stack([base, np.full(n, const), base.copy(), base**3, tie_free])
    return z, y


def tie_free_response(draw, n):
    """A tie-free response of length n: a permutation of evenly spaced
    values, or n distinct floats."""
    if draw(st.booleans()):
        return np.array(draw(st.permutations(range(n)))) * 1.5 - 4.0
    return np.array(draw(st.lists(st.floats(-100, 100, allow_subnormal=False),
                                  min_size=n, max_size=n, unique=True)))


@st.composite
def kendall_inputs(draw):
    """A tie-free response and seven columns: a tie-heavy base, its copy,
    its cube, its negation, a constant, and two tie-free columns."""
    n = draw(st.integers(2, 70))
    y = tie_free_response(draw, n)
    base = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) / 10
    const = draw(st.sampled_from([0.1, 3.0, -7.25]))
    tie_free = np.array(draw(st.permutations(range(n)))) / 7.0
    z = np.column_stack([base, base.copy(), base**3, -base, np.full(n, const),
                         tie_free, np.exp(tie_free)])
    return z, y


def _oracle(fn, col, y, sentinel):
    try:
        return fn(col, y)
    except Undefined:
        return sentinel


@st.composite
def grouped_inputs(draw):
    """Columns in g groups of m, with one tie-free response per group; each
    group's columns come from a tie-heavy base, its copy, a constant and a
    tie-free column."""
    n = draw(st.integers(2, 30))
    g, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ys, blocks = [], []
    for _ in range(g):
        y = tie_free_response(draw, n)
        base = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) / 10
        palette = [base, base.copy(), np.full(n, draw(st.sampled_from([0.1, -7.25]))),
                   np.array(draw(st.permutations(range(n)))) / 7.0]
        picks = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        ys.append(y)
        blocks.append(np.column_stack([palette[i] for i in picks]))
    return np.hstack(blocks), np.column_stack(ys)


def t0_from_reordered_rows(z, y):
    """``batched_scores("t0", ...)`` with each column's gaps taken from a sort
    of its copy put in increasing-response order, one response group at a
    time."""
    n = z.shape[0]
    y = y.reshape(n, -1)
    m = z.shape[1] // y.shape[1]
    totals = []
    for k, yk in enumerate(y.T):
        order = np.argsort(yk)
        by_y = np.ascontiguousarray(z[order, k * m:(k + 1) * m].T)
        gaps = np.arange(1.0, n + 1.0) - midranks(*sorted_runs(by_y))
        centred = yk[order] - yk[order].mean()
        totals.append((gaps * centred).sum(axis=1))
    return 4.0 * np.concatenate(totals) / (n * (n - 1))


class TestBatchedScorers:
    @given(grouped_inputs(), st.booleans(), st.randoms(use_true_random=False))
    @example((np.array([[1.0, 0.1], [1.0, 0.1]]), np.array([[0.0, 3.0], [1.0, 2.0]])),
             False, None)
    @settings(max_examples=200, deadline=None)
    def test_shared_sort_is_bit_identical_to_separate_calls(self, inputs, column_major,
                                                           shuffle):
        z, y = inputs
        if column_major:
            z = np.asfortranarray(z)
        methods = ["pearson", "spearman", "kendall", "chatterjee", "t0"]
        assert batched_scores("t0", z, y).tobytes() == t0_from_reordered_rows(z, y).tobytes()
        if shuffle is not None:
            shuffle.shuffle(methods)
        # one sort for every method in turn: no scorer may change it
        runs = sorted_runs(z.T)
        for method in methods:
            assert (batched_scores(method, z, y, runs).tobytes()
                    == batched_scores(method, z, y).tobytes())

    @given(grouped_inputs())
    @example((np.array([[1.0, 0.1], [1.0, 0.1]]), np.array([[0.0, 3.0], [1.0, 2.0]])))
    @settings(max_examples=200, deadline=None)
    def test_grouped_response_is_bit_identical_to_per_group_calls(self, inputs):
        z, y = inputs
        g = y.shape[1]
        m = z.shape[1] // g
        groups = [(z[:, k * m:(k + 1) * m], y[:, k]) for k in range(g)]
        for method in ("t0", "pearson", "spearman", "kendall", "chatterjee"):
            expected = np.concatenate([batched_scores(method, zk, yk) for zk, yk in groups])
            assert batched_scores(method, z, y).tobytes() == expected.tobytes()
        kendall, chatterjee = batched_scores("kendall", z, y), batched_scores("chatterjee", z, y)
        for j in range(z.shape[1]):
            assert kendall[j] == kendall_tau(z[:, j], y[:, j // m])
            assert chatterjee[j] == _oracle(chatterjee_xi, z[:, j], y[:, j // m], -1.0)

    @given(scoring_inputs())
    @settings(max_examples=150, deadline=None)
    def test_agree_with_per_column_oracles(self, inputs):
        z, y = inputs
        t0 = batched_scores("t0", z, y)
        kendall = batched_scores("kendall", z, y)
        chatterjee = batched_scores("chatterjee", z, y)
        pearson_r = batched_scores("pearson", z, y)
        spearman_r = batched_scores("spearman", z, y)
        for j in range(z.shape[1]):
            col = z[:, j]
            ref = t0_by_ordered_pairs(col, y)
            assert abs(t0[j] - ref) <= 1e-12 * max(1.0, ref)
            assert kendall[j] == kendall_tau(col, y)
            assert chatterjee[j] == _oracle(chatterjee_xi, col, y, -1.0)
            assert pearson_r[j] == _oracle(pearson, col, y, 0.0)
            assert spearman_r[j] == _oracle(spearman, col, y, 0.0)
        # columns 0, 2 are equal; 3 is rank-equivalent to them
        for scores in (t0, kendall, chatterjee, spearman_r):
            assert scores[0] == scores[2] == scores[3]
        assert pearson_r[0] == pearson_r[2]

    @given(kendall_inputs())
    @settings(max_examples=200, deadline=None)
    def test_kendall_matches_oracle_with_tied_columns(self, inputs):
        z, y = inputs
        scores = batched_scores("kendall", z, y)
        for j in range(z.shape[1]):
            assert scores[j] == kendall_tau(z[:, j], y)
        # columns 0, 1 and 2 are equal up to increasing maps, 3 is reversed
        assert scores[0] == scores[1] == scores[2] == -scores[3]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_inversion_count_matches_pair_enumeration(self, data):
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.integers(0, data.draw(st.integers(0, 70))),
                                    min_size=n, max_size=n))
        rows = np.array([values] + [data.draw(st.permutations(values))
                                    for _ in range(data.draw(st.integers(0, 3)))])
        expected = [sum(row[i] > row[j] for i, j in itertools.combinations(range(n), 2))
                    for row in rows]
        assert _inversions(rows, np.sort(rows[:1], axis=1)).tolist() == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # NaN equals nothing, so it would rank as a value of its own
        z = np.array([[1.0, 2.0], [bad, 1.0], [3.0, 0.5], [4.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        for method in ("t0", "kendall", "chatterjee", "pearson", "spearman"):
            with pytest.raises(NonFiniteData):
                batched_scores(method, z, y)
            with pytest.raises(NonFiniteData):
                batched_scores(method, z[:, 1:], np.where(y == 2.0, bad, y))
        with pytest.raises(NonFiniteData):
            t0_divergence(z[:, 0], y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_too_large_response_rejected(self):
        # at 1e160 the squared deviations of n = 100 responses overflow, and
        # a correlation of 0.995 scored 0.0
        rng = np.random.default_rng(4)
        u = rng.uniform(size=100)
        y = 5 * u + 0.1 * rng.standard_normal(100)
        assert pearson(u, 1e150 * y) == pytest.approx(pearson(u, y), rel=1e-12)
        assert batched_scores("pearson", u[:, None], 1e150 * y)[0] == pytest.approx(
            pearson(u, y), rel=1e-12)
        with pytest.raises(NonFiniteData, match="response too large"):
            pearson(u, 1e160 * y)
        with pytest.raises(NonFiniteData, match="response too large"):
            batched_scores("pearson", u[:, None], 1e160 * y)

    # known defect: the squared deviations of a huge feature column overflow
    # to inf, and a correlation of 0.994 scores 0.0
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_too_large_feature_scored_by_its_correlation(self):
        y = synth_3var(100, 0.1, seed=0).y
        u = y + 0.2 * derive_rng(6).standard_normal(100)
        with np.errstate(all="ignore"):
            batched = batched_scores("pearson", 1e160 * u[:, None], y)[0]
        assert batched == pytest.approx(pearson(u, y), rel=1e-12)

    # known defect: t0 is linear in the response, but its mean overflows once
    # n * max|y| passes the float range, and the score is NaN
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_t0_scales_with_a_huge_response(self):
        y = synth_3var(100, 0.1, seed=0).y
        u = derive_rng(5).uniform(size=(100, 1))
        with np.errstate(all="ignore"):
            huge = batched_scores("t0", u, 1e306 * y)[0]
        assert huge == pytest.approx(1e306 * batched_scores("t0", u, y)[0], rel=1e-9)

    @pytest.mark.parametrize("method", ["t0", "pearson", "spearman", "kendall", "chatterjee"])
    @pytest.mark.parametrize("y", [
        [1.0, 1.0, 2.0],                                # tied
        [2.0, 2.0, 2.0],                                # constant
        [[1.0, 3.0], [2.0, 3.0], [3.0, 0.5]],           # one tied group of two
    ], ids=["tied", "constant", "one-tied-group"])
    def test_tied_response_rejected(self, method, y):
        z = np.arange(12.0).reshape(3, 4)
        with pytest.raises(TiesInResponse, match="response vector contains exact ties"):
            batched_scores(method, z, y)

    def test_no_columns(self):
        for method in ("t0", "kendall", "chatterjee", "pearson", "spearman"):
            assert batched_scores(method, np.zeros((4, 0)), [1.0, 2.0, 3.0, 4.0]).shape == (0,)

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            batched_scores("t0", np.zeros((3, 2)), [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            batched_scores("kendall", np.zeros(3), [1.0, 2.0, 3.0])
        for groups in (0, 2):  # three columns split into no groups or uneven ones
            with pytest.raises(LengthMismatch):
                batched_scores("pearson", np.zeros((3, 3)), np.zeros((3, groups)))
        with pytest.raises(LengthMismatch, match="no batched scorer"):
            batched_scores("tree-importance", np.zeros((3, 1)), [1.0, 2.0, 3.0])
