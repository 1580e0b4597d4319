"""Piecewise-monotone transform analysis: refined monotone intervals,
pre-image counting, and the signed preference probability between two
transforms.

Interval convention: segments and refined intervals are half-open [a, b)
except the final one, which is closed. Under the continuous input measures
used here the endpoint convention carries zero probability. Pre-image
counting, by contrast, uses the closed range of a transform over the
interval's closure, so a splitting value landing exactly on a range endpoint
counts as one pre-image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Interval, _is_number
from .errors import (
    CaseThreePresent,
    ConfigError,
    DimensionMismatch,
    DomainMismatch,
    IntervalSpansBreakpoint,
    MergeableSegments,
    NotMonotone,
)
from .symgen import parse_univariate

__all__ = [
    "MonotoneSegment",
    "PiecewiseMonotone",
    "PreferenceReport",
    "TabulatedCDF",
    "UniformCDF",
    "load_piecewise",
    "piecewise_monotone",
    "preference_probability",
    "preimage_count",
    "refine",
]

MONOTONE_GRID_POINTS = 101


@dataclass(frozen=True)
class MonotoneSegment:
    interval: Interval
    expr: str
    fn: object  # vectorized callable
    direction: str  # "increasing" | "decreasing"


@dataclass(frozen=True)
class PiecewiseMonotone:
    """A transform that is strictly monotone on each of finitely many pieces.

    Build with :func:`piecewise_monotone`, which checks each declared
    direction on a grid and rejects breakpoint partitions that are not
    minimal (adjacent segments that would merge into one monotone piece).
    """

    domain: Interval
    breakpoints: tuple[float, ...]
    segments: tuple[MonotoneSegment, ...]


def _segment_intervals(lo: float, hi: float, breakpoints) -> list[Interval]:
    edges = [lo, *breakpoints, hi]
    out = []
    for i in range(len(edges) - 1):
        last = i == len(edges) - 2
        out.append(Interval(edges[i], edges[i + 1], True, last))
    return out


def piecewise_monotone(domain, breakpoints, exprs, directions) -> PiecewiseMonotone:
    """Validate and build a piecewise-monotone transform.

    ``domain`` is a (lo, hi) pair; ``breakpoints`` the interior segment
    boundaries in ascending order; ``exprs`` one expression string per
    segment; ``directions`` the declared direction per segment. Strict
    monotonicity is spot-checked on a 101-point grid per segment.
    """
    lo, hi = (float(v) for v in domain)
    if lo >= hi:
        raise DimensionMismatch("domain must have positive length")
    breakpoints = tuple(float(b) for b in breakpoints)
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise DimensionMismatch("breakpoints must be strictly ascending")
    if breakpoints and (breakpoints[0] <= lo or breakpoints[-1] >= hi):
        raise DimensionMismatch("breakpoints must lie strictly inside the domain")
    exprs = list(exprs)
    directions = list(directions)
    n_seg = len(breakpoints) + 1
    if len(exprs) != n_seg or len(directions) != n_seg:
        raise DimensionMismatch(
            f"{len(breakpoints)} breakpoints require {n_seg} segments, "
            f"got {len(exprs)} expressions and {len(directions)} directions")

    segments = []
    for interval, expr, direction in zip(
            _segment_intervals(lo, hi, breakpoints), exprs, directions):
        if direction not in ("increasing", "decreasing"):
            raise DimensionMismatch(f"direction must be increasing/decreasing, got {direction!r}")
        fn = parse_univariate(expr) if isinstance(expr, str) else expr
        grid = np.linspace(interval.lo, interval.hi, MONOTONE_GRID_POINTS)
        vals = np.asarray(fn(grid), dtype=float)
        if not np.isfinite(vals).all():
            raise NotMonotone(f"{expr!r} is not finite on {interval}")
        diffs = np.diff(vals)
        ok = np.all(diffs > 0) if direction == "increasing" else np.all(diffs < 0)
        if not ok:
            raise NotMonotone(f"{expr!r} is not strictly {direction} on {interval}")
        segments.append(MonotoneSegment(
            interval, expr if isinstance(expr, str) else "<callable>", fn, direction))

    # minimal-cardinality check: same-direction neighbors must not continue
    # monotonically across the breakpoint
    for a, b in zip(segments, segments[1:]):
        if a.direction != b.direction:
            continue
        va = float(a.fn(np.asarray(a.interval.hi, dtype=float)))
        vb = float(b.fn(np.asarray(b.interval.lo, dtype=float)))
        continues = va <= vb if a.direction == "increasing" else va >= vb
        if continues:
            raise MergeableSegments(
                f"segments around x={a.interval.hi} merge into one {a.direction} piece")

    return PiecewiseMonotone(Interval(lo, hi), breakpoints, tuple(segments))


def load_piecewise(doc: dict) -> PiecewiseMonotone:
    """Build a transform from its JSON document.

    Schema: {"domain": [lo, hi], "breakpoints": [...],
             "segments": [{"expr": str, "direction": str}, ...]}.
    A document of another shape is a ConfigError that names its bad key.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"transform must be a JSON object, got {doc!r}")
    domain, breakpoints = doc.get("domain"), doc.get("breakpoints", [])
    segments = doc.get("segments")
    if type(domain) is not list or len(domain) != 2 or not all(map(_is_number, domain)):
        raise ConfigError(f"key 'domain' takes two finite numbers, got {domain!r}")
    if type(breakpoints) is not list or not all(map(_is_number, breakpoints)):
        raise ConfigError(f"key 'breakpoints' takes an array of finite numbers, "
                          f"got {breakpoints!r}")
    if type(segments) is not list or not all(
            isinstance(s, dict) and all(type(s.get(k)) is str for k in ("expr", "direction"))
            for s in segments):
        raise ConfigError(f"key 'segments' takes an array of objects with string keys "
                          f"'expr' and 'direction', got {segments!r}")
    return piecewise_monotone(
        domain, breakpoints, [s["expr"] for s in segments],
        [s["direction"] for s in segments])


# ---------------------------------------------------------------------------
# refinement and pre-images
# ---------------------------------------------------------------------------

def refine(t1: PiecewiseMonotone, t2: PiecewiseMonotone) -> list[Interval]:
    """Intersections of the two transforms' monotone pieces, ascending.

    Both transforms are monotone on every returned interval; the intervals
    partition the common domain.
    """
    if (t1.domain.lo, t1.domain.hi) != (t2.domain.lo, t2.domain.hi):
        raise DomainMismatch(f"domains differ: {t1.domain} vs {t2.domain}")
    edges = sorted(set(t1.breakpoints) | set(t2.breakpoints))
    return _segment_intervals(t1.domain.lo, t1.domain.hi, edges)


def _enclosing_segment(t: PiecewiseMonotone, interval: Interval) -> MonotoneSegment:
    for seg in t.segments:
        if seg.interval.lo <= interval.lo and interval.hi <= seg.interval.hi:
            return seg
    raise IntervalSpansBreakpoint(
        f"{interval} crosses a breakpoint of the transform")


def _closed_range(seg: MonotoneSegment, interval: Interval) -> tuple[float, float]:
    va = float(seg.fn(np.asarray(interval.lo, dtype=float)))
    vb = float(seg.fn(np.asarray(interval.hi, dtype=float)))
    return (va, vb) if va <= vb else (vb, va)


def preimage_count(t: PiecewiseMonotone, c: float, interval: Interval) -> int:
    """1 when c lies in the closed range of t over the interval, else 0.

    The interval must sit inside a single monotone segment.
    """
    seg = _enclosing_segment(t, interval)
    lo_r, hi_r = _closed_range(seg, interval)
    return 1 if lo_r <= c <= hi_r else 0


# ---------------------------------------------------------------------------
# preference probability
# ---------------------------------------------------------------------------

class UniformCDF:
    """CDF of the uniform distribution on [lo, hi]."""

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise DimensionMismatch("uniform support must have positive length")
        self.lo, self.hi = float(lo), float(hi)

    def __call__(self, x: float) -> float:
        return float(np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0))


class TabulatedCDF:
    """User CDF given as tabulated (x, probability) pairs.

    Evaluates by monotone linear interpolation; probabilities must be
    nondecreasing within [0, 1].
    """

    def __init__(self, xs, ps):
        xs = np.asarray(xs, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size < 2:
            raise DimensionMismatch("need matching 1-D tables with >= 2 points")
        if np.any(np.diff(xs) <= 0):
            raise DimensionMismatch("x table must be strictly increasing")
        if np.any(np.diff(ps) < 0) or ps[0] < 0 or ps[-1] > 1:
            raise DimensionMismatch("probability table must be nondecreasing in [0, 1]")
        self.xs, self.ps = xs, ps

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.ps))


@dataclass(frozen=True)
class PreferenceReport:
    """Refined intervals where each transform holds the only pre-image, and
    the signed probability of preferring the first transform."""

    intervals_pref_1: tuple[Interval, ...]
    intervals_pref_2: tuple[Interval, ...]
    p_value: float  # signed preference probability in [-1, 1]


def preference_probability(t1: PiecewiseMonotone, t2: PiecewiseMonotone,
                           c: float, measure=None) -> PreferenceReport:
    """Signed probability that splitting prefers t1 over t2 at value c.

    p = P(union of intervals where only t1 has a pre-image) minus
    P(union where only t2 does) under the supplied input CDF (default:
    uniform on the domain). Raises CaseThreePresent when some refined
    interval gives both transforms a pre-image; adding to t1 a constant
    that lifts its range above t2's, such as sup t2 - inf t1 + 1, leaves its
    splits unchanged and removes that case.
    """
    if measure is None:
        measure = UniformCDF(t1.domain.lo, t1.domain.hi)
    pref1, pref2 = [], []
    for interval in refine(t1, t2):
        n1 = preimage_count(t1, c, interval)
        n2 = preimage_count(t2, c, interval)
        if n1 == 1 and n2 == 1:
            raise CaseThreePresent(
                f"both transforms have a pre-image of {c} on {interval}")
        if n1 == 1:
            pref1.append(interval)
        elif n2 == 1:
            pref2.append(interval)
    p1 = sum(measure(iv.hi) - measure(iv.lo) for iv in pref1)
    p2 = sum(measure(iv.hi) - measure(iv.lo) for iv in pref2)
    return PreferenceReport(tuple(pref1), tuple(pref2), float(p1 - p2))

