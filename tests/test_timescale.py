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

from calculus_reference import (
    contains,
    mu_at,
    scattered_points_in,
    sigma_at,
    steps,
)

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


@pytest.mark.parametrize("segments, named", [
    # the left end's start lies within the tolerance of t0, its end before
    ([Interval(-5e-13, -2e-13), Point(0.25), Interval(0.5, 1)],
     "[-5e-13, -2e-13] would end at or before its start once that is "
     "snapped to t0=0.0"),
    ([Interval(-5e-13, 0.0), Point(0.25), Interval(0.5, 1)],
     "[-5e-13, 0.0] would end at or before"),
    # the right end's end lies within the tolerance of t0 + T, its start
    # after it
    ([Interval(0, 0.5), Point(0.75), Interval(1.0000000000002,
                                              1.0000000000005)],
     "[1.0000000000002, 1.0000000000005] would start at or after its end "
     "once that is snapped to t0+T=1.0"),
])
def test_snapping_never_turns_an_interval_around(segments, named):
    # snapping made Interval(0.0, -2e-13) and Interval(1.0000000000002,
    # 1.0), whose B came out as 1.0239 and whose analysis named them
    with pytest.raises(InvalidSegment, match=re.escape(f"interval {named}")):
        validate(PeriodicTimeScale(0, 1, segments))


@pytest.mark.parametrize("segments, error, named", [
    # each segment's own checks in input order: type, finiteness, a < b
    ([Interval(1.5, 0.5), Point(math.nan), Point(2)], InvalidSegment,
     "interval [1.5, 0.5] must have a < b"),
    ([Point(math.nan), Interval(1.5, 0.5), Point(2)], InvalidSegment,
     "segment Point(x=nan) is not finite"),
    ([Interval(1.5, 0.5), (0.5, 1.0)], InvalidSegment,
     "interval [1.5, 0.5] must have a < b"),
    ([(0.5, 1.0), Interval(1.5, 0.5)], InvalidSegment,
     "not a segment: (0.5, 1.0)"),
    # then, in time order, the first pair that overlaps, and the window's
    # left extremity before its right one
    ([Point(2), Interval(1, 1.5), Interval(0, 1.2), Point(1.5)],
     OverlappingSegments,
     "segments Interval(a=0, b=1.2) and Interval(a=1, b=1.5) overlap"),
    ([Point(2.5), Point(-1e-13), Point(0), Point(1), Point(0.5)],
     OverlappingSegments, "segments Point(x=-1e-13) and Point(x=0) overlap"),
    ([Point(2 + 1e-11), Point(1e-11), Point(1)], EndpointNotCovered,
     "t0=0.0 is not the left extremity"),
    ([Point(2 + 1e-11), Point(0), Point(1)], EndpointNotCovered,
     "t0+T=2.0 is not the right extremity"),
])
def test_the_first_failing_check_is_raised(segments, error, named):
    with pytest.raises(error, match=re.escape(named)):
        validate(PeriodicTimeScale(0, 2, segments))


def test_snapping_one_interval_to_both_extremities():
    # a period under the tolerance: the one interval's start snaps to t0
    # first, and its end to t0 + T, after that start
    ts = validate(PeriodicTimeScale(0.0, 1e-13, [Interval(5e-13, 6e-13)]))
    assert ts.segments == (Interval(0.0, 1e-13),)
    assert ts.is_continuous and not ts.is_discrete


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
    # the arrays hold each segment in time order, and the walk read from
    # them pairs each segment with the jump at its right end; the last
    # segment ends at t0 + T and has none
    ts = validate(PeriodicTimeScale(0, period, segments))
    assert ts.starts.tolist() == [seg.start for seg in ts.segments]
    assert ts.ends.tolist() == [seg.end for seg in ts.segments]
    assert ts.dense.tolist() == [isinstance(seg, Interval)
                                 for seg in ts.segments]
    assert ts.starts.tolist() == sorted(ts.starts.tolist())
    walk = steps(ts)
    assert [seg for seg, _ in walk] == list(ts.segments)
    assert [jump for _, jump in walk[:-1]] == ts.scattered_with_mu()
    assert walk[-1][1] is None
    for seg, jump in walk[:-1]:
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


def _checked_in_a_loop(ts):
    """The scale's checks as a loop over the segments, the way they read
    before they became array masks, with snapping as it was: the segments
    and (t, mu) pairs, or the error raised."""
    for seg in ts.segments:
        if not isinstance(seg, (Point, Interval)):
            raise InvalidSegment(f"not a segment: {seg!r}")
        if not (math.isfinite(seg.start) and math.isfinite(seg.end)):
            raise InvalidSegment(f"segment {seg} is not finite")
        if isinstance(seg, Interval) and not seg.a < seg.b:
            raise InvalidSegment(
                f"interval [{seg.a}, {seg.b}] must have a < b")
    segs = sorted(ts.segments, key=lambda seg: seg.start)
    for prev, cur in zip(segs, segs[1:]):
        if cur.start <= prev.end + 1e-12 * max(1.0, abs(prev.end)):
            raise OverlappingSegments(
                f"segments {prev} and {cur} overlap or touch")
    if not segs:
        raise EndpointNotCovered("empty segment list")
    t0, t_end = ts.t0, ts.t0 + ts.period
    tol0, tol1 = (1e-12 * max(1.0, abs(t)) for t in (t0, t_end))
    if abs(segs[0].start - t0) > tol0:
        raise EndpointNotCovered(f"t0={t0} is not the left extremity")
    if abs(segs[-1].end - t_end) > tol1:
        raise EndpointNotCovered(f"t0+T={t_end} is not the right extremity")
    for seg in segs:
        if seg.start < t0 - tol0 or seg.end > t_end + tol1:
            raise EndpointNotCovered(f"segment {seg} outside [t0, t0+T]")
    if isinstance(segs[0], Point):
        segs[0] = Point(t0)
    else:
        segs[0] = Interval(t0, segs[0].b)
    if isinstance(segs[-1], Point):
        segs[-1] = Point(t_end)
    else:
        segs[-1] = Interval(segs[-1].a, t_end)
    return segs, [(seg.end, nxt.start - seg.end)
                  for seg, nxt in zip(segs, segs[1:])]


_place = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1e-13, 2 + 1e-13,
                                    1e-11, math.nan, math.inf]),
                   st.floats(min_value=-0.5, max_value=2.5))
_segment = st.one_of(
    _place.map(Point), st.tuples(_place, _place).map(lambda e: Interval(*e)),
    st.tuples(_place, st.floats(min_value=0.0, max_value=1.0)).map(
        lambda e: Interval(e[0], e[0] + e[1])))


@st.composite
def _scales(draw):
    """Segments in shuffled order that tile [0, 2] with their ends up to
    5e-13 off the window's, or that snapping would turn around there, and
    now and then one that is not a segment."""
    places = sorted(set(draw(st.lists(st.floats(0.001, 1.999), max_size=8))))
    first = draw(st.sampled_from([0.0, -5e-13, 5e-13, (-5e-13, -2e-13)]))
    last = draw(st.sampled_from([2.0, 2 - 5e-13, 2 + 5e-13,
                                 (2 + 2e-13, 2 + 5e-13)]))
    segments, i = [], 0
    places = [first, *places, last]
    while i < len(places):
        if isinstance(places[i], tuple):
            segments.append(Interval(*places[i]))
            i += 1
        elif (i + 1 < len(places) and not isinstance(places[i + 1], tuple)
              and draw(st.booleans())):
            segments.append(Interval(places[i], places[i + 1]))
            i += 2
        else:
            segments.append(Point(places[i]))
            i += 1
    if draw(st.integers(0, 9)) == 9:
        segments.append((0.5, 1.0))
    return draw(st.permutations(segments))


@given(st.one_of(_scales(), st.lists(_segment, max_size=6)))
def test_the_array_checks_raise_what_the_loop_raised(segments):
    # the same first error, or the same segments, arrays, (t, mu) pairs and
    # class, except where the loop snapped an end interval the wrong way
    # round
    scale = PeriodicTimeScale(0.0, 2.0, segments)
    try:
        segs, scattered = _checked_in_a_loop(scale)
    except TimeScaleError as exc:
        with pytest.raises(type(exc)) as got:
            validate(scale)
        assert str(got.value) == str(exc)
        return
    try:
        ts = validate(scale)
    except InvalidSegment as exc:  # turned around by snapping
        assert "snapped" in str(exc)
        assert any(not seg.start < seg.end for seg in segs
                   if isinstance(seg, Interval))
        return
    assert list(ts.segments) == segs
    # the arrays, and the lists read from them, against the segment loops
    assert ts.starts.tolist() == [seg.start for seg in segs]
    assert ts.ends.tolist() == [seg.end for seg in segs]
    assert ts.dense.tolist() == [isinstance(seg, Interval) for seg in segs]
    assert ts.dense_intervals() == [(seg.a, seg.b) for seg in segs
                                    if isinstance(seg, Interval)]
    assert ts.scattered_with_mu() == scattered
    assert ts.scattered_t.tolist() == [t for t, _ in scattered]
    assert ts.scattered_mu.tolist() == [mu for _, mu in scattered]
    assert ts.is_discrete == all(isinstance(s, Point) for s in segs)
    assert ts.is_continuous == (len(segs) == 1
                                and isinstance(segs[0], Interval))
