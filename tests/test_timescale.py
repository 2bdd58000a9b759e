import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from tsfloquet import Interval, PeriodicTimeScale, Point, validate
from tsfloquet.errors import (
    EndpointNotCovered,
    InvalidSegment,
    NonpositivePeriod,
    OverlappingSegments,
    PointNotInTimeScale,
    TimeScaleError,
)
from tsfloquet.timescale import split_panels

from calculus_reference import contains, mu_at, scattered_points_in, sigma_at

PI = math.pi


def hybrid_scale():
    return validate(
        PeriodicTimeScale(0, 2 * PI, [Interval(0, PI), Point(2 * PI)])
    )


def test_valid_integer_scale():
    ts = validate(PeriodicTimeScale(0, 2, [Point(0), Point(1), Point(2)]))
    assert ts.is_discrete and not ts.is_continuous
    assert ts.scattered_with_mu() == [(0.0, 1.0), (1.0, 1.0)]


def test_valid_hybrid_scale():
    ts = hybrid_scale()
    assert not ts.is_discrete and not ts.is_continuous
    assert ts.dense_intervals() == [(0.0, PI)]


def test_nonpositive_period():
    with pytest.raises(NonpositivePeriod):
        validate(PeriodicTimeScale(0, 0, [Point(0)]))
    with pytest.raises(NonpositivePeriod):
        validate(PeriodicTimeScale(0, -1, [Point(0)]))


@pytest.mark.parametrize("t0, period", [
    (0, math.inf), (math.inf, 1), (-math.inf, 1), (math.nan, 1),
    (1e308, 1e308)])
def test_non_finite_window(t0, period):
    named = re.escape(f"t0 = {float(t0)}, period = {float(period)}")
    with pytest.raises(TimeScaleError, match=named):
        validate(PeriodicTimeScale(t0, period, [Interval(t0, t0 + period)]))


@pytest.mark.parametrize("seg", [
    Point(math.nan), Point(math.inf), Interval(0.5, math.nan),
    Interval(math.nan, 1.5), Interval(-math.inf, 1.5)])
def test_non_finite_segment(seg):
    # a NaN passes every overlap and coverage comparison, and an infinite
    # end is never inside [t0, t0 + T]: both are named as the segment
    with pytest.raises(InvalidSegment, match=re.escape(f"segment {seg} is")):
        validate(PeriodicTimeScale(0, 2, [Point(0), seg, Point(2)]))


def test_overlapping_segments():
    with pytest.raises(OverlappingSegments):
        validate(PeriodicTimeScale(0, 2, [Interval(0, 1), Interval(0.5, 2)]))
    with pytest.raises(OverlappingSegments):
        validate(PeriodicTimeScale(0, 2, [Interval(0, 1), Point(1)]))


def test_invalid_segment():
    with pytest.raises(InvalidSegment):
        validate(PeriodicTimeScale(0, 2, [Interval(1, 1), Point(2)]))
    with pytest.raises(InvalidSegment):
        validate(PeriodicTimeScale(0, 2, [Interval(1.5, 0.5), Point(2)]))


def test_non_segment_is_invalid():
    # checked before the segments are sorted by their start
    with pytest.raises(InvalidSegment):
        validate(PeriodicTimeScale(0, 1, [Point(0), (0.5, 1.0)]))


def test_endpoints_must_be_covered():
    with pytest.raises(EndpointNotCovered):
        validate(PeriodicTimeScale(0, 2, [Point(1), Point(2)]))
    with pytest.raises(EndpointNotCovered):
        validate(PeriodicTimeScale(0, 2, [Point(0), Point(1)]))
    with pytest.raises(EndpointNotCovered):
        validate(PeriodicTimeScale(0, 2, [Point(0), Point(2), Point(3)]))
    with pytest.raises(EndpointNotCovered, match="empty segment list"):
        validate(PeriodicTimeScale(0, 2, []))


def test_mu_hybrid():
    ts = hybrid_scale()
    assert mu_at(ts, PI) == pytest.approx(PI, abs=1e-12)
    assert mu_at(ts, 1.0) == 0.0
    assert mu_at(ts, 0.0) == 0.0
    # periodic wrap: graininess at the right extremity equals that at t0
    assert mu_at(ts, 2 * PI) == mu_at(ts, 0.0)


def test_mu_discrete_wrap():
    ts = validate(PeriodicTimeScale(0, 2, [Point(0), Point(1), Point(2)]))
    assert mu_at(ts, 2) == mu_at(ts, 0) == 1.0


def test_sigma():
    ts = hybrid_scale()
    assert sigma_at(ts, PI) == pytest.approx(2 * PI, abs=1e-12)
    assert sigma_at(ts, 1.0) == 1.0


def test_scattered_points_in():
    ts = hybrid_scale()
    assert scattered_points_in(ts, 0, 2 * PI) == [PI]
    assert scattered_points_in(ts, 0, PI) == []


def test_locate_and_contains():
    ts = hybrid_scale()
    assert contains(ts, 1.23)
    assert contains(ts, 2 * PI)
    assert not contains(ts, 4.0)
    assert not contains(ts, -1.0)
    with pytest.raises(PointNotInTimeScale):
        ts.locate(4.0)
    # snapping within the membership tolerance
    _, snapped = ts.locate(PI + 1e-13)
    assert snapped == PI


def test_segments_sorted_regardless_of_input_order():
    ts = validate(PeriodicTimeScale(0, 2, [Point(2), Point(0), Point(1)]))
    assert [s.x for s in ts.segments] == [0.0, 1.0, 2.0]


@given(st.lists(st.floats(min_value=0.05, max_value=1.0),
                min_size=1, max_size=6))
def test_discrete_mu_sigma_properties(gaps):
    pts, acc = [0.0], 0.0
    for g in gaps:
        acc += g
        pts.append(acc)
    ts = validate(PeriodicTimeScale(0.0, acc, [Point(x) for x in pts]))
    for t, mu in ts.scattered_with_mu():
        assert mu > 0
        assert sigma_at(ts, t) == pytest.approx(t + mu)
        assert contains(ts, sigma_at(ts, t))
    assert len(ts.scattered_with_mu()) == len(pts) - 1


def test_segment_start_and_end():
    assert (Point(1.5).start, Point(1.5).end) == (1.5, 1.5)
    assert (Interval(0.5, 2.0).start, Interval(0.5, 2.0).end) == (0.5, 2.0)


@pytest.mark.parametrize("period, segments", [
    pytest.param(2, [Point(2), Point(0), Point(1)], id="discrete"),
    pytest.param(2, [Interval(0, 2)], id="continuous"),
    pytest.param(2 * PI, [Point(2 * PI), Interval(0, 1), Point(1.5),
                          Interval(2, PI), Point(4)], id="hybrid"),
])
def test_steps_walk_the_period(period, segments):
    # each segment in time order with the jump at its right end; the last
    # segment ends at t0 + T and has none
    ts = validate(PeriodicTimeScale(0, period, segments))
    steps = ts.steps()
    assert [seg for seg, _ in steps] == list(ts.segments)
    starts = [seg.start for seg in ts.segments]
    assert starts == sorted(starts)
    assert [jump for _, jump in steps[:-1]] == ts.scattered_with_mu()
    assert steps[-1][1] is None
    for seg, jump in steps[:-1]:
        t, mu = jump
        assert t == seg.end
        assert mu_at(ts, t) == mu


_end = st.floats(min_value=-1e16, max_value=1e16)


@given(st.lists(st.tuples(st.tuples(_end, _end).map(sorted),
                          st.integers(1, 70)), min_size=1, max_size=6))
def test_split_panels_tiles_each_parent(parents):
    # the series grid and the oracle both cut here: each parent's panels
    # come in order, start at its lo, end at its hi and share their cuts
    # bit for bit, also far from 0, where a cut may round onto a neighbour
    assume(all(a < b for (a, b), _ in parents))
    lo, hi = np.array([ends for ends, _ in parents]).T
    k = np.array([m for _, m in parents])
    parent, left, right = split_panels(lo, hi, k)
    assert parent.tolist() == np.repeat(np.arange(len(k)), k).tolist()
    first, last = np.cumsum(k) - k, np.cumsum(k) - 1
    assert (left[first] == lo).all()
    assert right[last].tobytes() == hi.tobytes()
    inner = parent[1:] == parent[:-1]
    assert right[:-1][inner].tobytes() == left[1:][inner].tobytes()
