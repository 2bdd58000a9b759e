"""One period of a T-periodic time scale.

A time scale here is a closed subset of the reals described by an ordered
list of segments: isolated points and closed intervals. Only the window
[t0, t0+T] is stored; the scale repeats with period T, so the graininess
at the right extremity equals the graininess at t0.
"""
from __future__ import annotations

import bisect
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

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, ts: PeriodicTimeScale):
        if not ts.period > 0:
            raise NonpositivePeriod(f"period must be positive, got {ts.period}")
        if not math.isfinite(ts.t0 + ts.period):
            raise TimeScaleError("t0 and t0 + period must be finite, got "
                                 f"t0 = {ts.t0}, period = {ts.period}")
        for seg in ts.segments:
            if not isinstance(seg, (Point, Interval)):
                raise InvalidSegment(f"not a segment: {seg!r}")
            if not (math.isfinite(seg.start) and math.isfinite(seg.end)):
                # a NaN would pass every overlap and coverage comparison
                raise InvalidSegment(f"segment {seg} is not finite")
            if isinstance(seg, Interval) and not seg.a < seg.b:
                raise InvalidSegment(
                    f"interval [{seg.a}, {seg.b}] must have a < b"
                )
        segs = sorted(ts.segments, key=attrgetter("start"))
        for prev, cur in zip(segs, segs[1:]):
            if cur.start <= prev.end + _tol(prev.end):
                raise OverlappingSegments(
                    f"segments {prev} and {cur} overlap or touch"
                )
        if not segs:
            raise EndpointNotCovered("empty segment list")
        t0, t_end = ts.t0, ts.t0 + ts.period
        if abs(segs[0].start - t0) > _tol(t0):
            raise EndpointNotCovered(f"t0={t0} is not the left extremity")
        if abs(segs[-1].end - t_end) > _tol(t_end):
            raise EndpointNotCovered(f"t0+T={t_end} is not the right extremity")
        lo = t0 - _tol(t0)
        hi = t_end + _tol(t_end)
        for seg in segs:
            if seg.start < lo or seg.end > hi:
                raise EndpointNotCovered(f"segment {seg} outside [t0, t0+T]")

        # snap the extremities exactly
        if isinstance(segs[0], Point):
            segs[0] = Point(t0)
        else:
            segs[0] = Interval(t0, segs[0].b)
        if isinstance(segs[-1], Point):
            segs[-1] = Point(t_end)
        else:
            segs[-1] = Interval(segs[-1].a, t_end)

        self.t0 = t0
        self.period = ts.period
        self.t_end = t_end
        self.segments: tuple = tuple(segs)
        self._starts = [s.start for s in segs]

        # right-scattered coordinates in [t0, t0+T) with their graininess
        self._scattered = [(seg.end, nxt.start - seg.end)
                           for seg, nxt in zip(segs, segs[1:])]

    # -- classification ----------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return all(isinstance(s, Point) for s in self.segments)

    @property
    def is_continuous(self) -> bool:
        return len(self.segments) == 1 and isinstance(self.segments[0], Interval)

    def dense_intervals(self) -> list:
        """Closed dense subintervals [a, b] of the stored period, ascending."""
        return [(s.a, s.b) for s in self.segments if isinstance(s, Interval)]

    def scattered_with_mu(self) -> list:
        """(t, mu(t)) for every right-scattered t in [t0, t0+T), ascending."""
        return list(self._scattered)

    def steps(self) -> list:
        """The period walk: (segment, (t, mu)) in time order, the jump at
        the segment's right end t; None for the last segment, at t0+T."""
        return list(zip(self.segments, self._scattered + [None]))

    # -- membership --------------------------------------------------------

    def locate(self, t: float):
        """Return (segment_index, snapped_t) or raise PointNotInTimeScale."""
        if t < self.t0 - _tol(t) or t > self.t_end + _tol(t):
            raise PointNotInTimeScale(f"{t} outside [{self.t0}, {self.t_end}]")
        i = bisect.bisect_right(self._starts, t + _tol(t)) - 1
        if i < 0:
            raise PointNotInTimeScale(f"{t} not in time scale")
        seg = self.segments[i]
        if isinstance(seg, Point):
            if abs(t - seg.x) <= _tol(t):
                return i, seg.x
        else:
            if seg.a - _tol(t) <= t <= seg.b + _tol(t):
                return i, min(max(t, seg.a), seg.b)
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
