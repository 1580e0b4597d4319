import numpy as np
import pytest

from symrank.core import Interval, derive_rng
from symrank.errors import (
    CaseThreePresent,
    DomainMismatch,
    IntervalSpansBreakpoint,
    MergeableSegments,
    NotMonotone,
    NotRefinedInterval,
)
from symrank.monotonic import (
    TabulatedCDF,
    UniformCDF,
    classify_interval,
    find_preimage,
    load_piecewise,
    offset_shift,
    piecewise_monotone,
    preference_probability,
    preimage_count,
    refine,
    shift,
)
from symrank.tree import SplitRule, log_principal_decision_ratio


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
        assert parabola(0.25) == pytest.approx(-4 * 0.25**2 + 4 * 0.25)
        assert parabola(0.75) == pytest.approx(-4 * 0.75**2 + 4 * 0.75)

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
        root = find_preimage(parabola, 0.5, iv, tol=1e-10)
        assert root == pytest.approx((1 - np.sqrt(0.5)) / 2, abs=1e-9)

    def test_out_of_range_zero(self, affine_up):
        iv = Interval(0.0, 0.5, True, False)
        assert preimage_count(affine_up, 0.5, iv) == 0
        assert find_preimage(affine_up, 0.5, iv) is None

    def test_range_endpoint_counts(self, affine_up):
        iv = Interval(0.0, 0.5, True, False)
        assert preimage_count(affine_up, 1.2, iv) == 1  # closed-range rule
        assert find_preimage(affine_up, 1.2, iv) == pytest.approx(0.0)

    def test_exact_midpoint_hit_returned(self):
        t = piecewise_monotone((0, 1), [], ["x"], ["increasing"])
        assert find_preimage(t, 0.5, Interval(0.0, 1.0)) == 0.5

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
            if grid_hit:
                root = find_preimage(t, c, iv, tol=1e-10)
                nearest = grid[np.argmin(np.abs(vals - c))]
                assert abs(root - nearest) <= 1e-3  # grid resolution
                assert abs(float(t.segments[seg_idx].fn(np.asarray(root))) - c) < 1e-8


class TestClassify:
    def test_cases(self, affine_up, parabola):
        iv = refine(affine_up, parabola)[0]
        assert classify_interval(affine_up, parabola, 0.5, -1.0, iv) == "both-zero"
        assert classify_interval(affine_up, parabola, 1.5, -1.0, iv) == "t1-only"
        assert classify_interval(affine_up, parabola, 0.5, 0.5, iv) == "t2-only"
        assert classify_interval(affine_up, parabola, 1.5, 0.5, iv) == "both-one"

    def test_requires_refined_member(self, affine_up, parabola):
        with pytest.raises(NotRefinedInterval):
            classify_interval(affine_up, parabola, 0.5, 0.5, Interval(0.0, 0.25))

    def test_both_zero_implies_zero_log_ratio(self, affine_up, parabola):
        # samples inside a both-zero interval: both rules put every sample on
        # one side, so both rules score the parent SSE and the log ratio is 0
        rng = derive_rng(52)
        iv = refine(affine_up, parabola)[0]
        assert classify_interval(affine_up, parabola, 0.5, -1.0, iv) == "both-zero"
        x = rng.uniform(iv.lo, iv.hi, size=12)
        z = np.column_stack([[affine_up(v) for v in x],
                             [parabola(v) for v in x]])
        y = rng.normal(size=12)
        ratio = log_principal_decision_ratio(
            z, y, SplitRule(0, 0.5), SplitRule(1, -1.0))
        assert ratio == pytest.approx(0.0, abs=1e-12)


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
    def test_identity_vs_parabola(self, parabola):
        ramp = piecewise_monotone((0, 1), [], ["x"], ["increasing"])
        assert offset_shift(ramp, parabola) == pytest.approx(2.0)

    def test_affine_vs_parabola(self, affine_up, parabola):
        assert offset_shift(affine_up, parabola) == pytest.approx(0.8)

    def test_identical_transforms_positive(self, parabola):
        assert offset_shift(parabola, parabola) > 0

    def test_unbounded_transform_rejected(self, parabola):
        # bypass the factory's grid check with a hand-built segment
        from symrank.errors import UnboundedTransform
        from symrank.monotonic import MonotoneSegment, PiecewiseMonotone
        from symrank.core import Interval
        seg = MonotoneSegment(
            Interval(0.0, 1.0), "1/(1-x)",
            lambda x: np.divide(1.0, 1.0 - np.asarray(x)), "increasing")
        unbounded = PiecewiseMonotone(Interval(0.0, 1.0), (), (seg,))
        with np.errstate(divide="ignore"), pytest.raises(UnboundedTransform):
            offset_shift(parabola, unbounded)

    def test_shift_removes_case_three(self, parabola):
        ramp = piecewise_monotone((0, 1), [], ["x"], ["increasing"])
        c0 = offset_shift(ramp, parabola)
        shifted = shift(ramp, c0)
        rng = derive_rng(55)
        for c in rng.uniform(-1, 4, size=40):
            preference_probability(shifted, parabola, float(c))  # never raises
