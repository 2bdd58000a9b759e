"""One period of a T-periodic time scale.

A time scale here is a closed subset of the reals described by an ordered
list of segments: isolated points and closed intervals. Only the window
[t0, t0+T] is stored; the scale repeats with period T, so the graininess
at the right extremity equals the graininess at t0. A validated scale
keeps the period as per-segment arrays in time order, which every stage
of the analysis reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import (
    EndpointNotCovered,
    InvalidSegment,
    NonpositivePeriod,
    OverlappingSegments,
    PointNotInTimeScale,
    TimeScaleError,
)


@dataclass(frozen=True)
class Point:
    x: float

    start = end = property(attrgetter("x"))


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    start = property(attrgetter("a"))
    end = property(attrgetter("b"))


def _tol(t: float) -> float:
    # membership tolerance; inputs contain pi-valued endpoints typed in decimal
    return 1e-12 * max(1.0, abs(t))


@dataclass(frozen=True)
class PeriodicTimeScale:
    """Raw, unvalidated description of one period of a periodic time scale."""

    t0: float
    period: float
    segments: tuple

    def __init__(self, t0, period, segments):
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "period", float(period))
        object.__setattr__(self, "segments", tuple(segments))


class ValidatedTimeScale:
    """Canonicalized time scale with scattered-point and classification
    queries.

    The checks raise for the first segment that fails them, in this order:
    in input order a segment that is not one, an end that is not finite or
    an interval with a >= b, then in time order overlap and coverage of
    [t0, t0+T]. The per-segment checks and overlap are array masks. The
    extremities are snapped to t0 and t0 + T exactly; an interval that
    snapping would turn around is refused as written. The arrays
    ``starts``, ``ends`` and ``dense``, the mask of the intervals, hold
    the snapped segments in time order; each segment but the last ends at
    a right-scattered t, ``scattered_t = ends[:-1]``, whose graininess is
    ``scattered_mu = starts[1:] - scattered_t``.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, ts: PeriodicTimeScale):
        if not ts.period > 0:
            raise NonpositivePeriod(f"period must be positive, got {ts.period}")
        if not math.isfinite(ts.t0 + ts.period):
            raise TimeScaleError("t0 and t0 + period must be finite, got "
                                 f"t0 = {ts.t0}, period = {ts.period}")
        segs = ts.segments
        known = [isinstance(seg, (Point, Interval)) for seg in segs]
        k = known.index(False) if False in known else len(segs)
        dense = [isinstance(seg, Interval) for seg in segs[:k]]
        start = np.array([seg.start for seg in segs[:k]], dtype=float)
        end = np.array([seg.end for seg in segs[:k]], dtype=float)
        # a NaN would pass every overlap and coverage comparison; a point
        # starts where it ends, so only intervals count as start < end
        finite = np.isfinite(start) & np.isfinite(end)
        ordered = start < end
        if not finite.all() or np.count_nonzero(ordered) < dense.count(True):
            i = np.argmax(~finite | (dense & ~ordered))
            if not finite[i]:
                raise InvalidSegment(f"segment {segs[i]} is not finite")
            raise InvalidSegment(
                f"interval [{segs[i].a}, {segs[i].b}] must have a < b")
        if k < len(segs):
            raise InvalidSegment(f"not a segment: {segs[k]!r}")
        discrete = True not in dense
        # past these checks a segment starts before it ends if and only if
        # it is an interval
        segs, dense = list(segs), ordered
        if k > 1:  # in time order, each segment but the last against the next
            order = start.argsort(kind="stable")
            segs = [segs[i] for i in order.tolist()]
            start, end, dense = start[order], end[order], dense[order]
            tol = 1e-12 * np.maximum(1.0, np.abs(end[:-1]))  # _tol(end)
            touch = start[1:] <= end[:-1] + tol
            if touch.any():
                i = np.argmax(touch)
                raise OverlappingSegments(
                    f"segments {segs[i]} and {segs[i + 1]} overlap or touch"
                )
        if not segs:
            raise EndpointNotCovered("empty segment list")
        t0, t_end = ts.t0, ts.t0 + ts.period
        first, last = segs[0], segs[-1]
        if abs(first.start - t0) > _tol(t0):
            raise EndpointNotCovered(f"t0={t0} is not the left extremity")
        if abs(last.end - t_end) > _tol(t_end):
            raise EndpointNotCovered(f"t0+T={t_end} is not the right extremity")
        # without overlaps, starts and ends rise from segment to segment, so
        # only the first and the last segment can leave the window
        lo, hi = t0 - _tol(t0), t_end + _tol(t_end)
        for seg in (first, last):
            if seg.start < lo or seg.end > hi:
                raise EndpointNotCovered(f"segment {seg} outside [t0, t0+T]")

        # snap the extremities exactly
        if isinstance(first, Point):
            segs[0] = Point(t0)
        elif t0 < first.b:
            segs[0] = Interval(t0, first.b)
        else:
            raise InvalidSegment(
                f"interval [{first.a}, {first.b}] would end at or before its "
                f"start once that is snapped to t0={t0}")
        if isinstance(last, Point):
            segs[-1] = Point(t_end)
        elif segs[-1].a < t_end:
            segs[-1] = Interval(segs[-1].a, t_end)
        else:
            raise InvalidSegment(
                f"interval [{last.a}, {last.b}] would start at or after its "
                f"end once that is snapped to t0+T={t_end}")
        start[0], end[0] = segs[0].start, segs[0].end
        start[-1], end[-1] = segs[-1].start, segs[-1].end

        self.t0 = t0
        self.period = ts.period
        self.t_end = t_end
        self.segments: tuple = tuple(segs)
        self.is_discrete = discrete
        self.is_continuous = len(segs) == 1 and not self.is_discrete
        self.starts, self.ends, self.dense = start, end, dense
        self.scattered_t = end[:-1]
        self.scattered_mu = start[1:] - self.scattered_t

    # -- classification ----------------------------------------------------

    def dense_intervals(self) -> list:
        """Closed dense subintervals [a, b] of the stored period, ascending."""
        return list(zip(self.starts[self.dense].tolist(),
                        self.ends[self.dense].tolist()))

    def scattered_with_mu(self) -> list:
        """(t, mu(t)) for every right-scattered t in [t0, t0+T), ascending:
        each segment's end but the last's, and the gap to the next one."""
        return list(zip(self.scattered_t.tolist(), self.scattered_mu.tolist()))

    # -- membership --------------------------------------------------------

    def locate(self, t: float):
        """Return (segment_index, snapped_t) or raise PointNotInTimeScale."""
        if t < self.t0 - _tol(t) or t > self.t_end + _tol(t):
            raise PointNotInTimeScale(f"{t} outside [{self.t0}, {self.t_end}]")
        i = int(np.searchsorted(self.starts, t + _tol(t), side="right")) - 1
        if i < 0:
            raise PointNotInTimeScale(f"{t} not in time scale")
        a, b = float(self.starts[i]), float(self.ends[i])
        if not self.dense[i]:
            if abs(t - a) <= _tol(t):
                return i, a
        elif a - _tol(t) <= t <= b + _tol(t):
            return i, min(max(t, a), b)
        raise PointNotInTimeScale(f"{t} not in time scale")


def inward(a, b):
    """The points (a + eps, b - eps), eps = (b - a) 1e-9, just inside the
    ends of a dense part [a, b], for floats or arrays. Its coefficients are
    read there: their values at the ends are one-sided limits, since an
    isolated-point redefinition lives exactly on the segment boundary."""
    eps = (b - a) * 1e-9
    return a + eps, b - eps


def split_panels(lo, hi, k):
    """The panels [lo, hi] cut into k equal panels each: (parent, lo, hi),
    each new panel's parent index and ends, in time order; a cut lies
    where both panels that share it compute it, and a parent's last panel
    ends at its hi. The series grid and the oracle both cut here."""
    parent = np.repeat(np.arange(len(k)), k)
    kp, start = k[parent], lo[parent]
    j = np.arange(len(parent)) - (np.cumsum(k) - k)[parent]
    width = hi[parent] - start
    return parent, start + width * (j / kp), np.where(
        j + 1 == kp, hi[parent], start + width * ((j + 1) / kp))


def validate(ts: PeriodicTimeScale) -> ValidatedTimeScale:
    """Check all PeriodicTimeScale invariants and canonicalize the segments."""
    return ValidatedTimeScale(ts)
