import numpy as np
import pytest

from symrank.core import Interval, derive_rng
from symrank.errors import (
    CaseThreePresent,
    DomainMismatch,
    IntervalSpansBreakpoint,
    MergeableSegments,
    NotMonotone,
)
from symrank.monotonic import (
    TabulatedCDF,
    UniformCDF,
    load_piecewise,
    piecewise_monotone,
    preference_probability,
    preimage_count,
    refine,
)


@pytest.fixture
def affine_up():
    # x + 1.2 on [0, 1]: one increasing piece with range [1.2, 2.2]
    return piecewise_monotone((0, 1), [], ["x + 1.2"], ["increasing"])


@pytest.fixture
def parabola():
    # -4x^2 + 4x on [0, 1]: up on [0, 1/2], down on [1/2, 1], range [0, 1]
    return piecewise_monotone(
        (0, 1), [0.5],
        ["-4*x**2 + 4*x", "-4*x**2 + 4*x"],
        ["increasing", "decreasing"])


class TestConstruction:
    def test_monotonicity_checked(self):
        with pytest.raises(NotMonotone):
            piecewise_monotone((0, 1), [], ["-4*x**2 + 4*x"], ["increasing"])

    def test_direction_must_match(self):
        with pytest.raises(NotMonotone):
            piecewise_monotone((0, 1), [], ["x"], ["decreasing"])

    def test_mergeable_neighbors_rejected(self):
        with pytest.raises(MergeableSegments):
            piecewise_monotone((0, 1), [0.5], ["x", "x"],
                               ["increasing", "increasing"])

    def test_sawtooth_same_direction_allowed(self):
        # jump at the breakpoint breaks the monotone continuation
        t = piecewise_monotone((0, 1), [0.5], ["x", "x - 0.7"],
                               ["increasing", "increasing"])
        assert len(t.segments) == 2

    def test_evaluation_routes_to_segment(self, parabola):
        rising, falling = parabola.segments
        assert (rising.interval.lo, rising.interval.hi) == (0.0, 0.5)
        assert (falling.interval.lo, falling.interval.hi) == (0.5, 1.0)
        assert rising.fn(0.25) == pytest.approx(-4 * 0.25**2 + 4 * 0.25)
        assert falling.fn(0.75) == pytest.approx(-4 * 0.75**2 + 4 * 0.75)

    def test_json_loading(self):
        t = load_piecewise({
            "domain": [0, 1], "breakpoints": [0.5],
            "segments": [{"expr": "-4*x**2 + 4*x", "direction": "increasing"},
                         {"expr": "-4*x**2 + 4*x", "direction": "decreasing"}]})
        assert t.breakpoints == (0.5,)


class TestRefine:
    def test_affine_vs_parabola(self, affine_up, parabola):
        ivs = refine(affine_up, parabola)
        assert [(iv.lo, iv.hi) for iv in ivs] == [(0.0, 0.5), (0.5, 1.0)]

    def test_single_segment_pair(self, affine_up):
        ivs = refine(affine_up, affine_up)
        assert len(ivs) == 1 and (ivs[0].lo, ivs[0].hi) == (0.0, 1.0)

    def test_distinct_breakpoints_merge(self):
        a = piecewise_monotone((0, 1), [1 / 3], ["x", "1 - x"],
                               ["increasing", "decreasing"])
        b = piecewise_monotone((0, 1), [2 / 3], ["x", "1 - x"],
                               ["increasing", "decreasing"])
        ivs = refine(a, b)
        assert [(iv.lo, iv.hi) for iv in ivs] == [
            (0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)]

    def test_covers_domain_without_overlap(self, affine_up, parabola):
        ivs = refine(affine_up, parabola)
        assert ivs[0].lo == 0.0 and ivs[-1].hi == 1.0
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi == b.lo
        # half-open except the final interval
        assert all(not iv.hi_closed for iv in ivs[:-1]) and ivs[-1].hi_closed

    def test_domain_mismatch(self, affine_up):
        other = piecewise_monotone((0, 2), [], ["x"], ["increasing"])
        with pytest.raises(DomainMismatch):
            refine(affine_up, other)


class TestPreimage:
    def test_parabola_preimage_located(self, parabola):
        iv = Interval(0.0, 0.5, True, False)
        assert preimage_count(parabola, 0.5, iv) == 1
        assert preimage_count(parabola, 1.0, iv) == 1  # the apex, at the closed end
        assert preimage_count(parabola, 1.01, iv) == 0

    def test_out_of_range_zero(self, affine_up):
        iv = Interval(0.0, 0.5, True, False)
        assert preimage_count(affine_up, 0.5, iv) == 0

    def test_range_endpoint_counts(self, affine_up):
        iv = Interval(0.0, 0.5, True, False)
        assert preimage_count(affine_up, 1.2, iv) == 1  # closed-range rule

    def test_spanning_interval_rejected(self, parabola):
        with pytest.raises(IntervalSpansBreakpoint):
            preimage_count(parabola, 0.5, Interval(0.25, 0.75))

    def test_agrees_with_dense_grid(self):
        rng = derive_rng(51)
        for _ in range(25):
            b = float(rng.uniform(0.3, 0.7))
            t = piecewise_monotone(
                (0, 1), [b], [f"x**2 + {rng.uniform(0.1, 2):.3f}*x", "1 - x"],
                ["increasing", "decreasing"])
            seg_idx = int(rng.integers(2))
            iv = t.segments[seg_idx].interval
            c = float(rng.uniform(-0.5, 3.0))
            grid = np.linspace(iv.lo, iv.hi, 2001)
            vals = np.asarray(t.segments[seg_idx].fn(grid))
            grid_hit = bool(vals.min() <= c <= vals.max())
            assert preimage_count(t, c, iv) == int(grid_hit)


class TestClassify:
    # the case of a refined interval is the pair of pre-image counts of the
    # two transforms' splitting values
    def test_cases(self, affine_up, parabola):
        iv = refine(affine_up, parabola)[0]
        cases = {(0.5, -1.0): (0, 0), (1.5, -1.0): (1, 0), (0.5, 0.5): (0, 1),
                 (1.5, 0.5): (1, 1)}
        for (c1, c2), counts in cases.items():
            assert (preimage_count(affine_up, c1, iv), preimage_count(parabola, c2, iv)) == counts

    def test_both_zero_implies_zero_log_ratio(self, affine_up, parabola):
        # samples inside a both-zero interval: each rule puts every sample on
        # one side, so neither splits them and both score the parent SSE
        rng = derive_rng(52)
        iv = refine(affine_up, parabola)[0]
        assert preimage_count(affine_up, 0.5, iv) == preimage_count(parabola, -1.0, iv) == 0
        x = rng.uniform(iv.lo, iv.hi, size=12)
        for t, c in ((affine_up, 0.5), (parabola, -1.0)):
            below = t.segments[0].fn(x) <= c
            assert below.all() or not below.any()


class TestPreferenceProbability:
    def test_example_grid(self, affine_up, parabola):
        expected = {-1.0: 0.0, 0.5: -1.0, 1.1: 0.0, 1.5: 0.5, 1.9: 0.5, 3.0: 0.0}
        for c, p in expected.items():
            rep = preference_probability(affine_up, parabola, c)
            assert rep.p_value == pytest.approx(p, abs=1e-12)

    def test_contributing_intervals_listed(self, affine_up, parabola):
        rep = preference_probability(affine_up, parabola, 1.5)
        assert [(iv.lo, iv.hi) for iv in rep.intervals_pref_1] == [(0.0, 0.5)]
        assert rep.intervals_pref_2 == ()
        rep_low = preference_probability(affine_up, parabola, 0.5)
        assert [(iv.lo, iv.hi) for iv in rep_low.intervals_pref_2] == [
            (0.0, 0.5), (0.5, 1.0)]

    def test_case_three_raises(self, parabola):
        ramp = piecewise_monotone((0, 1), [], ["x"], ["increasing"])
        with pytest.raises(CaseThreePresent):
            preference_probability(ramp, parabola, 0.5)

    def test_antisymmetry(self, affine_up, parabola):
        rng = derive_rng(53)
        for c in rng.uniform(-2, 4, size=25):
            try:
                p12 = preference_probability(affine_up, parabola, float(c)).p_value
                p21 = preference_probability(parabola, affine_up, float(c)).p_value
            except CaseThreePresent:
                continue
            assert p12 == pytest.approx(-p21, abs=1e-12)

    def test_monte_carlo_matches(self, affine_up, parabola):
        rng = derive_rng(54)
        xs = rng.uniform(size=10_000)
        for c in (0.5, 1.5, 1.9):
            rep = preference_probability(affine_up, parabola, c)
            sign = np.zeros(xs.size)
            for iv in rep.intervals_pref_1:
                sign += (xs >= iv.lo) & (xs < iv.hi)
            for iv in rep.intervals_pref_2:
                sign -= (xs >= iv.lo) & (xs < iv.hi)
            se = sign.std(ddof=1) / np.sqrt(xs.size)
            assert abs(sign.mean() - rep.p_value) <= 3 * max(se, 1e-9)

    def test_tabulated_cdf(self, affine_up, parabola):
        # triangular-ish CDF putting 80% of mass below 1/2
        cdf = TabulatedCDF([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
        rep = preference_probability(affine_up, parabola, 1.5, cdf)
        assert rep.p_value == pytest.approx(0.8)

    def test_uniform_cdf_clips(self):
        u = UniformCDF(0.0, 2.0)
        assert u(-1.0) == 0.0 and u(3.0) == 1.0 and u(0.5) == 0.25


class TestOffsetShift:
    def test_shift_removes_case_three(self, parabola):
        # x + 2 = x + (sup parabola - inf x + 1): the ranges [2, 3] and [0, 1]
        # are disjoint, so no value has a pre-image under both
        shifted = piecewise_monotone((0, 1), [], ["x + 2"], ["increasing"])
        rng = derive_rng(55)
        for c in rng.uniform(-1, 4, size=40):
            preference_probability(shifted, parabola, float(c))  # never raises
