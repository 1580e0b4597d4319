import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symrank.core import derive_rng, make_partition2
from symrank.errors import SizeOutOfRange, TooLarge
from symrank.evalsel import synth_3var
from symrank.partition import (
    brute_force_best_2partition,
    oracle_fixed_size,
    oracle_varying_size,
)

FIG2A = [5, 2.1, 1, 2, 4]
FIG2B = [5, 3.9, 1, 2, 4]


def swapped(y, p, a, b):
    """The partition p with a (on its left side) and b (on its right) exchanged."""
    return make_partition2(y, set(p.left) - {a} | {b})


def swap_gain(y, p, a, b):
    """The loss reduction from exchanging a and b; positive means improvement."""
    return p.total_sse - swapped(y, p, a, b).total_sse


class TestLoss:
    def test_low_pair(self):
        assert make_partition2(FIG2A, (2, 3)).total_sse == pytest.approx(4.84)

    def test_extreme_pair(self):
        assert make_partition2(FIG2A, (0, 4)).total_sse == pytest.approx(1.24)

    def test_singletons_zero(self):
        assert make_partition2([1, 2], (0,)).total_sse == 0.0


class TestOracleFixedSize:
    def test_suffix_wins(self):
        r = oracle_fixed_size(FIG2A, 2)
        assert r.winner == "suffix" and not r.tie
        assert r.suffix.left == (0, 4)  # the two largest responses
        assert r.suffix.total_sse == pytest.approx(1.24)
        assert r.prefix.total_sse == pytest.approx(4.84)

    def test_prefix_wins(self):
        r = oracle_fixed_size(FIG2B, 2)
        assert r.winner == "prefix"
        assert r.prefix.left == (2, 3)
        assert r.prefix.right == (0, 1, 4)
        assert r.prefix.total_sse == pytest.approx(1.24)

    def test_arithmetic_sequence_ties(self):
        r = oracle_fixed_size([1, 2, 3, 4, 5, 6], 3)
        assert r.tie and r.winner == "prefix"
        assert r.prefix.total_sse == pytest.approx(r.suffix.total_sse)

    def test_size_guards(self):
        with pytest.raises(SizeOutOfRange):
            oracle_fixed_size([1, 2, 3, 4], 2)  # n <= 4
        with pytest.raises(SizeOutOfRange):
            oracle_fixed_size(FIG2A, 1)  # min side < 2


    # known defect: the candidates' squared deviations overflow at 1e160, both
    # losses are inf, and the suffix wins where the unscaled response gives
    # the prefix
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_huge_response_keeps_the_winner(self):
        y = synth_3var(100, 0.1, seed=0).y
        with np.errstate(all="ignore"):
            huge = oracle_fixed_size(1e160 * y, 30)
        plain = oracle_fixed_size(y, 30)
        assert (huge.winner, huge.tie) == (plain.winner, plain.tie)


class TestBruteForce:
    def test_five_sample(self):
        best = brute_force_best_2partition(FIG2A, 2)
        assert best.left == (0, 4)
        assert best.total_sse == pytest.approx(1.24)

    def test_sorted_run_is_contiguous(self):
        best = brute_force_best_2partition([1, 2, 3, 4, 5, 6], 3)
        assert best.left in ((0, 1, 2), (3, 4, 5))

    def test_single_element_side_allowed(self):
        # outside the fixed-size hypothesis the enumeration still works
        y = [10, 1, 2, 3, 4]
        best = brute_force_best_2partition(y, 1)
        assert best.left == (0,)  # isolating the far point wins

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_force_best_2partition(list(range(20)), 2)
        with pytest.raises(SizeOutOfRange):
            brute_force_best_2partition([1, 2, 3], 0)


class TestOracleVaryingSize:
    def test_fig2a(self):
        i_star, p = oracle_varying_size(FIG2A)
        assert i_star == 3
        assert p.left == (1, 2, 3) and p.right == (0, 4)
        assert p.total_sse == pytest.approx(1.24)

    def test_fig2b(self):
        i_star, p = oracle_varying_size(FIG2B)
        assert i_star == 2
        assert p.left == (2, 3)

    def test_separated_clusters(self):
        i_star, p = oracle_varying_size([1, 2, 3, 100, 101])
        assert i_star == 3
        assert p.left == (0, 1, 2)

    def test_too_small(self):
        with pytest.raises(SizeOutOfRange):
            oracle_varying_size([1, 2, 3])

    def test_consistent_with_fixed_size_winners(self):
        rng = derive_rng(27)
        for _ in range(25):
            n = int(rng.integers(6, 14))
            y = rng.normal(size=n)
            _, p = oracle_varying_size(y)
            fixed_best = min(oracle_fixed_size(y, i).best.total_sse
                             for i in range(2, n - 1))
            # sizes 1 and n-1 sit outside the fixed-size hypothesis; the
            # varying-size optimum can only improve on the fixed-size winners
            assert p.total_sse <= fixed_best + 1e-12

    def test_matches_exhaustive_all_sizes(self):
        rng = derive_rng(21)
        for _ in range(30):
            n = int(rng.integers(5, 10))
            y = rng.normal(size=n)
            _, p = oracle_varying_size(y)
            best = min(
                make_partition2(y, c).total_sse
                for i in range(1, n)
                for c in itertools.combinations(range(n), i)
            )
            assert p.total_sse == pytest.approx(best, rel=1e-12)


class TestOraclesAtScale:
    def test_fixed_and_varying_size_at_1e5_rows(self):
        # a per-index rebuild of the complement set made these quadratic;
        # both take ~0.2 s on a 2-CPU Xeon
        rng = derive_rng(28)
        n = 100_000
        y = rng.normal(size=n)
        start = time.perf_counter()
        fixed = oracle_fixed_size(y, n // 3)
        i_star, varying = oracle_varying_size(y)
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0
        for p in (fixed.prefix, fixed.suffix, varying):
            assert len(p.left) + len(p.right) == n
            assert set(p.left).isdisjoint(p.right)
        assert len(fixed.prefix.left) == len(fixed.suffix.left) == n // 3
        assert len(varying.left) == i_star
        order = np.argsort(y, kind="stable")
        assert varying.left == tuple(sorted(order[:i_star].tolist()))


class TestFixedSizeOptimumAgainstEnumeration:
    def test_random_instances(self):
        rng = derive_rng(22)
        for _ in range(120):
            n = int(rng.integers(5, 13))
            y = rng.normal(size=n)
            for i in range(2, n - 1):
                result = oracle_fixed_size(y, i)
                brute = brute_force_best_2partition(y, i)
                sorted_idx = np.argsort(y)
                assert (set(brute.left) in
                        ({int(j) for j in sorted_idx[:i]},
                         {int(j) for j in sorted_idx[n - i:]},
                         {int(j) for j in sorted_idx[:n - i]},
                         {int(j) for j in sorted_idx[i:]}))
                assert brute.total_sse == pytest.approx(
                    result.best.total_sse, rel=1e-12)

    def test_rank_only_dependence_under_affine_maps(self):
        rng = derive_rng(23)
        for _ in range(40):
            n = int(rng.integers(6, 12))
            y = rng.normal(size=n)
            i = int(rng.integers(2, n - 1))
            base = oracle_fixed_size(y, i)
            a, b = float(rng.uniform(0.5, 3.0)), float(rng.normal())
            mapped = oracle_fixed_size(a * y + b, i)
            assert mapped.winner == base.winner
            assert mapped.best.left == base.best.left
            assert mapped.best.right == base.best.right


def every_left_side(y):
    """Each split of range(n) into two nonempty groups, once per side as
    the first group: (n,)-masks of the first group, and each split's SSE."""
    n = len(y)
    masks = (np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1 == 1
    sse = np.zeros(len(masks))
    for side in (masks, ~masks):
        mean = (side * y).sum(axis=1) / side.sum(axis=1)
        sse += (side * (y - mean[:, None]) ** 2).sum(axis=1)
    return masks, sse


@st.composite
def tie_heavy_responses(draw):
    n = draw(st.integers(5, 10))
    return np.array(draw(st.lists(
        st.one_of(st.integers(-3, 3), st.floats(-5, 5, allow_subnormal=False)),
        min_size=n, max_size=n)), dtype=float)


class TestOraclesAgainstBruteForce:
    @given(tie_heavy_responses())
    @settings(max_examples=80, deadline=None)
    def test_fixed_and_varying_size(self, y):
        n = len(y)
        masks, sse = every_left_side(y)
        sizes = masks.sum(axis=1)
        brute = {i: brute_force_best_2partition(y, i) for i in range(1, n)}
        for i in range(2, n - 1):
            fixed = oracle_fixed_size(y, i).best
            assert abs(fixed.total_sse - brute[i].total_sse) <= 1e-9
            at_i = np.flatnonzero(sizes == i)
            optimal = at_i[sse[at_i] <= sse[at_i].min() + 1e-9]
            if optimal.size == 1:
                assert fixed.left == brute[i].left == tuple(np.flatnonzero(masks[optimal[0]]))
        i_star, varying = oracle_varying_size(y)
        assert abs(varying.total_sse - min(p.total_sse for p in brute.values())) <= 1e-9
        # each split appears twice, once with either group first
        optimal = np.flatnonzero(sse <= sse.min() + 1e-9)
        if optimal.size == 2:
            assert {varying.left, varying.right} == {
                tuple(np.flatnonzero(masks[j])) for j in optimal}
            assert len(varying.left) == i_star


class TestSwapGain:
    def test_direct_computation(self):
        y = np.array([1, 2, 3, 4, 10, 11], float)
        p = make_partition2(y, (0, 1, 5))
        # ({1, 2, 11}, {3, 4, 10}) to ({1, 2, 3}, {4, 10, 11}): resolving the
        # reversal helps
        assert swap_gain(y, p, 5, 2) == pytest.approx(176 / 3)

    def test_antisymmetry(self):
        rng = derive_rng(24)
        for _ in range(40):
            n = int(rng.integers(4, 10))
            y = rng.normal(size=n)
            k = int(rng.integers(1, n))
            left = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
            if len(left) == n:
                continue
            p = make_partition2(y, left)
            a = int(rng.choice(p.left))
            b = int(rng.choice(p.right))
            g1 = swap_gain(y, p, a, b)
            g2 = swap_gain(y, swapped(y, p, a, b), b, a)
            assert g2 == pytest.approx(-g1, rel=1e-10, abs=1e-12)

    def test_optimal_partition_admits_no_improving_swap(self):
        rng = derive_rng(25)
        y = np.sort(rng.normal(size=8))
        r = oracle_fixed_size(y, 3)
        best = r.best
        for a in best.left:
            for b in best.right:
                assert swap_gain(y, best, a, b) <= 1e-12

    def test_larger_reversal_swaps_gain_more(self):
        # exactly two reversed pairs (alpha, gamma) and (beta, gamma) with
        # y_alpha > y_beta > y_gamma: swapping the larger pair helps more
        rng = derive_rng(26)
        for _ in range(100):
            y = np.sort(rng.normal(size=6))  # v0 < ... < v5
            gamma, beta, alpha = 2, 3, 4
            p = make_partition2(y, (0, 1, beta, alpha))  # P2 = {gamma, v5}
            g_alpha = swap_gain(y, p, alpha, gamma)
            g_beta = swap_gain(y, p, beta, gamma)
            assert g_alpha >= g_beta - 1e-12
