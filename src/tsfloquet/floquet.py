"""Floquet multiplier series and the certified stability verdict.

Computes, for x^DD + p(t) x^D + q(t) x = 0 on a periodic time scale:

* the phase function phi solving phi(sigma(t)) phi(t) = q(t),
* the multiplier sum A as a convergent series A = sum_n A_n of nested
  delta integrals, truncated at order n with a rigorous tail bound,
* the multiplier product B by Liouville's formula,
* enclosures of A and B (``Enclosure``): A(n) plus or minus the
  truncation bound, and B widened to 1 within its rounding,
* modulus intervals for the two multipliers over them, and a stability
  verdict decided exactly on the two enclosures by the Schur-Cohn
  conditions.

The nested integrals are never evaluated as literal n-fold quadratures.
On every scale the series is folded into two one-dimensional running
delta integrals per order: writing E(t) = e_{i phi}(t, t0), the kernels
P, Q become real/imaginary parts of E(t) / E(sigma(s)), so each
integration level is a cumulative integral of
W(s) = h(s) / (phi(sigma(s)) E(sigma(s))) against the previous level,
evaluated on a grid of Chebyshev panels plus exact jump contributions at
scattered points. Each panel has 33 Chebyshev-Lobatto nodes, and its
running integral is one product with the panel's spectral integration
matrix (Greengard 1991; Trefethen, Approximation Theory and Approximation
Practice, 2013); a row's running integral adds the cumulative sum of its
panel totals. The layout adapts to each dense cell (``_panel_grid``): it
starts from ceil(2 Delta Phi / 8 rad) equal panels, Delta Phi the cell's
phase, since the level integrands carry e^{-+2i Phi}, and bisects a panel
while the Chebyshev tail of phi or h is above ``_TAIL_TOL``, within a node
cap and a width floor. The dense cells are the rows of one stacked (cells,
nodes) array, padded by whole panels, and an order's two running integrals
are stacked on it, so each order makes one panel-integral call whatever
the number of cells; a walk over the cells and jumps in time order then
carries the running offsets. Short periods walk in a Python loop in
complex arithmetic; from ``_ARRAY_WALK_EVENTS`` cells and jumps on, each
order's walk is one ``np.cumsum`` over its steps, which adds in the
loop's order, with the loop's complex products written out as float
products, so both walks give the same floats.
On a purely discrete scale there are only jumps, so the same level
recursion is exact up to rounding and costs O(n k) for k scattered points.

The paper's truncation bound reads its own uniform sample of the dense
cells, 512 divisions per period and at least 16 per cell, whose phase is
a cumulative Simpson integral (``cumulative_simpson``): the grid's
Simpson weights, a few array products and one cumulative sum, equal bit
for bit to SciPy's ``cumulative_simpson``. That sample is taken first,
and its phase sets the panels' first cut.

The period is one array record that every stage reads: the time scale's
``starts``, ``ends`` and ``dense`` mask by segment, the phase table's phi
at every segment's start and end, and the engine's jump table, the only
per-jump record. ``validate_system`` samples p and then q at every
scattered point with one ``evaluate_array`` call each, in time order, and
q at every dense start with one more, and checks the sample with array
masks. The sample records its system, and the ``PhaseTable`` that
``solve_phi`` builds on it keeps it, so a spec met with another system's
sample or table is refused; a valid analysis makes no scalar
``expr.evaluate`` call. The one series engine per analysis computes each
jump's phi, E, h, 1 / D and mu W once, in the period walk: the terms read
its panels and that table, the bound its uniform sample and the table,
the phase form its row's phase. One array comparison checks phi's dense
limits, each row's first and last panel nodes, against the table's phi
at the dense starts and ends; where phi jumps, the series does not hold,
and A's enclosure is the whole line.
The level recursion is a resumable iterator over orders, seeded by its caller.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from . import expr as ex
from . import tscalc
from .errors import (
    BNotOne,
    DepthBudgetExceeded,
    DomainError,
    InvalidSegment,
    NegativeQOnDense,
    NotContinuousScale,
    NotRegressive,
    PhiVanishes,
)
from .timescale import ValidatedTimeScale, inward, split_panels

class PhiDiscontinuityWarning(UserWarning):
    """phi's dense limit misses the chain's phi at a dense start or end (a
    scattered point or t0 + T); the computation still proceeds."""


_PHI_MIN = 1e-14
# the series grid's panels: degree 32, 33 Chebyshev-Lobatto nodes each; a
# panel's rule integrates polynomials of that degree exactly, and an analytic
# integrand to rounding once its coefficient tail is under _TAIL_TOL
_PANEL_DEGREE = 32
_NODES = _PANEL_DEGREE + 1
# radians of 2 Phi per panel: the level integrands carry e^{-+2i Phi}, and
# 8 rad (1.3 turns) on 33 nodes leave their coefficients at rounding level
_PHASE_CUT = 8.0
# a panel is bisected while its tail, the coefficients of T_30 and T_29
# in the interpolant of its 31 interior values, exceeds this for phi or h,
# relative to the row's largest phi or |p| + |q' / (2 q)|: 1e4 times the
# samples' rounding, two degrees below the 33-node rule's own tail. A is
# then within 6e-13 of a much finer layout's on the committed configs and
# 2e-10 of its size on the benchmark's hybrids, about as close as at 1e-13,
# which cuts every hybrid cell in two
_TAIL_TOL = 1e-12
# no panel is cut below 2^-40 of its row, or below 4096 float spacings,
# where its 33 nodes would no longer be distinct: a kink, whose tail halves
# with each cut, stops there, after at most 41 sampling rounds
_WIDTH_FLOOR = 2.0 ** -40
# no refinement round starts that would pass this many nodes per analysis:
# s = 1e6 of the s-family (~6200 radians of Phi) takes 78 thousand; past
# the cap the analysis goes on with the panels it has
_NODE_CAP = 2 ** 17
# the paper bound's own uniform sample: 512 divisions per period, at least
# 16 per dense cell, read with the jumps by the K1 and K2 tables
_BOUND_DIVISIONS = 512
_BOUNDS_ROWS = 64
_TINY = np.finfo(float).tiny
# the angular window's offsets: columns on three periods of pi, both edges
_RING = np.array([[-np.pi], [0.0], [np.pi]])
_SIDES = np.array([[-1.0], [1.0]])
_MAX_DEPTH_DENSE = 8
# from this many events (rows and jumps) on, the series engine walks them
# as one prefix sum per order; shorter walks are cheaper as a Python loop
_ARRAY_WALK_EVENTS = 64
# overflow on long periods stays in the values, as in Python's float products
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")


@dataclass
class SystemSpec:
    """The analyzed system: time scale and coefficients."""

    ts: ValidatedTimeScale
    p: ex.Expression
    q: ex.Expression
    qprime: Optional[ex.Expression] = None

    def __post_init__(self):
        if self.qprime is None:
            self.qprime = ex.differentiate(self.q)


@dataclass(frozen=True)
class PointSample:
    """``validate_system``'s checked sample of ``spec``: p, q and the step
    factor 1 - mu p + mu^2 q at every right-scattered point, as Python
    floats in time order, and ``starts``, the float array of sqrt(q) at
    each dense start, by dense row."""

    spec: SystemSpec = field(repr=False)
    p: list
    q: list
    factor: list
    starts: np.ndarray


def validate_system(spec: SystemSpec) -> PointSample:
    """Sample p and q at the scattered points and q at the dense starts,
    and check them, for ``solve_phi``, ``compute_B`` and the series engine.

    p at every right-scattered point is one ``evaluate_array`` call, in
    time order, then q there another, so an error p's evaluation raises
    comes before q's. There p and q must be finite, the step factor must
    not vanish within 1e-12 (regressivity) and |q| must exceed
    ``_PHI_MIN``; then q at the dense starts, one more call, must be
    positive and finite. Each set of checks is one array mask: the first
    failing t in time order raises, its checks in that order."""
    ts = spec.ts
    t, mu = ts.scattered_t, ts.scattered_mu
    p = q = factor = []
    if len(t):
        p, q = (ex.evaluate_array(e, t) for e in (spec.p, spec.q))
        with _quiet():
            factor = 1.0 + mu * (-p + mu * q)
            bad = (~(np.isfinite(p) & np.isfinite(q))
                   | (np.abs(factor) <= 1e-12) | (np.abs(q) <= _PHI_MIN))
        p, q, factor = p.tolist(), q.tolist(), factor.tolist()
        if bad.any():
            i = int(np.argmax(bad))
            at = float(t[i])
            _check_finite("p", p[i], at, "at a scattered point")
            _check_finite("q", q[i], at, "at a scattered point")
            if abs(factor[i]) <= 1e-12:
                raise NotRegressive(f"1 - mu*p + mu^2*q vanishes at t={at}")
            raise PhiVanishes(f"q = {q[i]} is within {_PHI_MIN} of 0 at "
                              f"t={at} at a scattered point")
    a = ts.starts[ts.dense]
    starts = a
    if len(a):
        q_a = ex.evaluate_array(spec.q, a)
        bad = (q_a <= 0) | ~np.isfinite(q_a)
        if bad.any():
            j = int(np.argmax(bad))
            v, at = float(q_a[j]), float(a[j])
            if v <= 0:
                raise NegativeQOnDense(f"q({at}) = {v} <= 0 on a dense part")
            _check_finite("q", v, at, "on a dense part")
        starts = np.sqrt(q_a)
    return PointSample(spec, p, q, factor, starts)


def _check_system(spec: SystemSpec, sample: PointSample) -> None:
    """ValueError unless ``sample``, or its table, was taken of ``spec``."""
    if sample.spec is not spec:
        raise ValueError("the sample or phase table is of another system")


@dataclass
class PhaseTable:
    """phi at the start and the end of every segment, ``starts`` and
    ``ends``, float arrays in time order, and the checked sample it was
    built from, which records the system. At a point the two are equal; at
    a dense start phi is the sample's sqrt(q), and every end, a scattered
    point or t0 + T, holds the chain's phi, even where the segment is
    dense. ``engine`` is the analysis's one ``_SeriesEngine``, which
    ``_engine`` builds on first use for the terms, the truncation bound
    and the phase form.
    """

    sample: PointSample
    starts: np.ndarray
    ends: np.ndarray
    engine: Optional[_SeriesEngine] = field(default=None, repr=False)


def _check_phi(v: float, where: float) -> float:
    if abs(v) < _PHI_MIN:
        raise PhiVanishes(f"phi vanishes at t={where}")
    return v


def solve_phi(spec: SystemSpec, seed: Optional[float] = None) -> PhaseTable:
    """Construct the phase function phi with phi(sigma(t)) phi(t) = q(t).

    Dense parts use phi = sqrt(q). On a purely discrete scale the chain
    starts from phi(t0) = seed and runs forward; the default seed
    sqrt(|q(t0)|) keeps phi of the order of sqrt(|q|) along the chain,
    where phi(t0) = 1 would alternate between 1 and q and blow up h on
    long periods. A does not depend on the seed. On hybrid scales each
    scattered run ending at a dense start is back-substituted from sqrt(q)
    there, and the run after the last dense segment from
    phi(t0+T) = phi(t0). One loop fills phi at each segment's start and
    end; the series engine compares the two at each dense segment with
    phi's dense limits there.

    phi reads q at the scattered points and sqrt(q) at the dense starts
    from ``validate_system(spec)``, which solve_phi takes itself, so it
    refuses every system the analysis refuses, a NaN p or a non-regressive
    step too, though phi reads neither. The table keeps the sample, and
    with it the system.
    """
    ts = spec.ts
    sample = validate_system(spec)
    where = ts.ends.tolist()  # t at each segment's end
    # q at the right end of each segment but the last
    q_end = sample.q

    if ts.is_discrete:
        if seed is None:
            seed = math.sqrt(abs(q_end[0]))
        ends = [_check_phi(float(seed), ts.t0)]
        for q, t in zip(q_end, where[1:]):
            ends.append(_check_phi(q / ends[-1], t))
        ends = np.array(ends)
        return PhaseTable(sample, ends, ends)

    dense = ts.dense.tolist()
    starts, ends = [None] * len(dense), [None] * len(dense)
    rows = np.flatnonzero(ts.dense).tolist()
    for i, phi in zip(rows, sample.starts.tolist()):
        starts[i] = phi

    def back_substitute(last, first):
        # phi at the scattered ends of segments last, ..., first, each from
        # phi at the start of the next segment; a point starts there too
        for i in range(last, first - 1, -1):
            ends[i] = _check_phi(q_end[i] / starts[i + 1], where[i])
            if not dense[i]:
                starts[i] = ends[i]

    back_substitute(rows[-1] - 1, 0)  # the runs ending at dense starts
    ends[-1] = _check_phi(starts[0], ts.t_end)
    if not dense[-1]:
        starts[-1] = ends[-1]
    back_substitute(len(dense) - 2, rows[-1])  # through t0+T
    return PhaseTable(sample, np.array(starts), np.array(ends))


def compute_B(spec: SystemSpec,
              sample: Optional[PointSample] = None) -> float:
    """Multiplier product B = e_{-p + mu q}(t0+T, t0) by Liouville's
    formula: the product of 1 - mu p + mu^2 q over the scattered points
    times exp(-integral of p) over the dense intervals, in time order.
    The factors are ``sample``'s, ``validate_system``'s checked sample,
    multiplied left to right; a sample of another system raises
    ValueError. Without it, compute_B takes ``validate_system(spec)``, so
    it refuses every system the analysis refuses, also where B alone is
    defined, as for q <= 0 at a dense start or q = 0 at a scattered point.

    The dense integrals come from ``tscalc.quad_intervals``, to its fixed
    absolute target 1e-9, in rounds of panel halving: each round samples
    p with one ``evaluate_array`` call on the open GK15 panels of the
    dense intervals, in time order and at most 66,666 of them, and a NaN
    or infinite p raises DomainError at the round's first such node.
    Where numpy's exp or power differ from the scalar ones in the last
    ulp, B can move by a few ulps. A B past the float range, once the
    integral of -p exceeds ~709.78, is an infinity with the product's
    sign."""
    if sample is None:
        sample = validate_system(spec)
    _check_system(spec, sample)
    ts = spec.ts
    prod = math.prod(sample.factor)
    integral = 0.0
    for value in tscalc.quad_intervals(
            lambda x: -_finite("p", ex.evaluate_array(spec.p, x), x),
            ts.starts[ts.dense], ts.ends[ts.dense]):
        integral += value
    try:
        growth = math.exp(integral)
    except OverflowError:
        return math.copysign(math.inf, prod)
    return float(prod * growth)


# compute_B's rounding: a conservative system's B = 1 may come out this far
# on either side of 1, so such a B may be exactly 1
_B_ROUNDING = 8 * 2.0 ** -52


def _b_enclosure(B: float) -> Enclosure:
    """B's enclosure: ``compute_B``'s B, reaching 1 within ``_B_ROUNDING``."""
    near = abs(B - 1.0) <= _B_ROUNDING
    return Enclosure(min(B, 1.0), max(B, 1.0)) if near else Enclosure(B, B)


# -- series engine ----------------------------------------------------------

def _sample_dense(coefficients: ex.Forest, x, lo, hi):
    """phi = sqrt(q), the perturbation coefficient h = -p - q' / (2 q) for
    that phi, and |p| + |q' / (2 q)|, the size of h's two parts, on the
    nodes x, each in its [lo, hi], a dense part or a panel of one, with lo
    and hi broadcast to x; a node at either end is read just inside it, as
    the coefficients' values there are one-sided limits.

    ``coefficients`` is the system's ``Forest`` of q, p and q', evaluated
    in one walk on x in order, which the callers keep in time order, so a
    node q' shares with q is evaluated once. q's error comes first, then
    q <= 0, then p's and q''s: a NaN or infinite coefficient value raises
    DomainError naming the first node, and q <= 0 NegativeQOnDense naming
    the minimum over the nodes that share the first failing node's lo.
    """
    a_in, b_in = inward(lo, hi)
    xe = np.where(x == lo, a_in, np.where(x == hi, b_in, x)).ravel()
    values = coefficients.evaluate(xe)
    q = _finite("q", next(values), xe)
    if q.min() <= 0:
        lo = np.broadcast_to(lo, x.shape).ravel()
        same = lo == lo[np.argmax(q <= 0)]
        bad = xe[same][np.argmin(q[same])]
        raise NegativeQOnDense(f"q({bad}) <= 0 on a dense part")
    p = _finite("p", next(values), xe)
    qp = _finite("qprime", next(values), xe)
    drift = qp / (2.0 * q)
    return tuple(v.reshape(x.shape)
                 for v in (np.sqrt(q), -p - drift, np.abs(p) + np.abs(drift)))


def _finite(name: str, values, x):
    """values, unless one is NaN or infinite: then DomainError naming the
    coefficient and the first such node."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        _check_finite(name, values[i], x[i], "on a dense part")
    return values


def _check_finite(name: str, value: float, t: float, where: str) -> None:
    """DomainError naming the coefficient, t and where t lies if value is
    NaN or infinite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} is not finite at t={t} {where}")


def cumulative_simpson(y, x):
    """Running Simpson integrals of y along its last axis, 0 at the first
    node, on the grid x (odd node count >= 3, strictly increasing along
    the last axis; one row per y row, or one row for all): SciPy's
    ``cumulative_simpson(y, x=x, initial=0.0)``, bit for bit.

    Subinterval 2m is integrated forward over nodes 2m, 2m + 1, 2m + 2
    with x21 = dx[2m], x32 = dx[2m + 1]; subinterval 2m + 1 over the same
    nodes backward, with x21 = dx[2m + 1], x32 = dx[2m]. The coefficients are
    SciPy's unequal-interval ones, x21 / 6 and 3 - x21/x31,
    3 + x21^2/(x31 x32) + x21/x31, -x21^2/(x31 x32), in its operation order.
    """
    if x.shape[-1] < 3 or x.shape[-1] % 2 == 0:
        raise ValueError("Simpson grids need an odd number of nodes >= 3, "
                         f"got {x.shape[-1]}")
    dx = np.diff(x, axis=-1)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")  # SciPy's

    def coefficients(x21, x32):
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return (x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31,
                -x21x21_x31x32)

    w, c1, c2, c3 = coefficients(dx[..., 0::2], dx[..., 1::2])
    v, d1, d2, d3 = coefficients(dx[..., 1::2], dx[..., 0::2])
    f0, f1, f2 = y[..., 0:-2:2], y[..., 1:-1:2], y[..., 2::2]
    out = np.empty(y.shape, dtype=np.result_type(y, 1.0))
    out[..., 0] = 0.0
    run = out[..., 1:]
    run[..., 0::2] = w * (c1 * f0 + c2 * f1 + c3 * f2)
    run[..., 1::2] = v * (d1 * f2 + d2 * f1 + d3 * f0)
    np.cumsum(run, axis=-1, out=run)
    run += 0.0  # as SciPy's initial=0.0 does: -0.0 becomes 0.0
    return out


def _chebyshev_panel(m: int):
    """The degree-m Chebyshev-Lobatto panel on [-1, 1]: its m + 1 nodes t,
    ascending, the integration matrix whose row i maps the panel's values
    to the integral of their interpolant from -1 to t_i (Greengard, SIAM J.
    Numer. Anal. 28, 1991), and the two rows that map them to the
    coefficients of T_{m-3} and T_{m-2} in the interpolant of the m - 1
    interior values: a panel's tail must not see its end values, which are
    read just inside it (``inward``). Built with elementwise products only,
    so importing the module starts no BLAS."""
    j = np.arange(m + 1)
    t = np.sin(np.pi * (2 * j - m) / (2 * m))  # symmetric, t[m / 2] = 0
    T = np.cos(np.outer(np.pi * (m - j) / m, np.arange(m + 2)))  # T_k(t_j)
    # values to coefficients: c_k = (2 / m) sum'' T_k(t_j) y_j, with the
    # terms at j = 0, m and the coefficients c_0, c_m halved
    ends = np.where((j == 0) | (j == m), 0.5, 1.0)
    to_coefficients = (2.0 / m) * ends[:, None] * (T[:, :m + 1] * ends[:, None]).T
    # the integral of T_k from -1 to t: t + 1, (t^2 - 1) / 2, and from k = 2
    # on (T_{k+1} / (k + 1) - T_{k-1} / (k - 1)) / 2 less its value at -1
    k = np.arange(2, m + 1)
    at_minus_one = (-1.0) ** (k + 1)
    integrals = np.empty((m + 1, m + 1))
    integrals[:, 0] = t + 1.0
    integrals[:, 1] = (t * t - 1.0) / 2.0
    integrals[:, 2:] = ((T[:, 3:] - at_minus_one) / (2.0 * (k + 1))
                        - (T[:, 1:m] - at_minus_one) / (2.0 * (k - 1)))
    integrate = (integrals[:, :, None] * to_coefficients).sum(axis=1)
    integrate[0] = 0.0
    # the interior nodes cos(theta), theta = k pi / m, are the zeros of
    # U_{m-1}, where sum sin^2(theta) U_i U_k is (m / 2) delta_ik; the top
    # U coefficients give the top T ones twice over, U_n = 2 T_n + ...
    theta = np.pi * (m - j[1:m]) / m
    tail = np.zeros((2, m + 1))
    tail[:, 1:m] = (4.0 / m) * np.sin(theta) * np.sin(
        np.outer([m - 2, m - 1], theta))
    return t, integrate, tail


_T, _INTEGRATE, _TAIL = _chebyshev_panel(_PANEL_DEGREE)
# a panel's layout rows: its Clenshaw-Curtis weights and its two tail rows
_LAYOUT = np.vstack([_INTEGRATE[-1:], _TAIL])


def _panel_integrals(y, half):
    """Running integrals of y along its last axis, 0 at each row's first
    node, on panel rows with half-widths ``half`` (rows, panels): within a
    panel, half times the integration matrix applied to its values; across
    panels, a cumulative sum of the panel totals. y is (..., rows, panels *
    _NODES), real or complex.

    Each panel's real and imaginary parts are the two columns of one
    (_NODES, _NODES) by (_NODES, 2) matrix product, the same BLAS call for
    every panel, so its values do not depend on how many rows and panels
    are stacked with it: a product over a stack of panels may round a row
    differently with the stack's shape (a single row takes gemv, which
    sums in another order)."""
    parts = np.ascontiguousarray(y, dtype=complex).view(float)
    local = np.matmul(_INTEGRATE, parts.reshape(*y.shape[:-1], -1, _NODES, 2))
    local *= half[..., None, None]
    totals = np.cumsum(local[..., -1, :], axis=-2)
    local[..., 1:, :, :] += totals[..., :-1, None, :]
    out = local.view(complex).reshape(y.shape)
    return out if np.iscomplexobj(y) else out.real.copy()


def _panel_nodes(lo, hi):
    """The (panels, _NODES) nodes of the panels [lo, hi], ends exact."""
    x = lo[:, None] + ((hi - lo) / 2.0)[:, None] * (1.0 + _T)
    x[:, -1] = hi
    return x


def _cuts(phi, h, lo, hi, limits, floor):
    """How many equal panels each panel [lo, hi] of a layout becomes in the
    next round: ceil(2 Delta Phi / ``_PHASE_CUT``) for its phase Delta Phi,
    at least 2 where the tail of phi or h exceeds its ``limits`` (a row of
    two per panel), and none narrower than its ``floor``."""
    # per panel, (its phi, its h) by (weights, two tail rows)
    dense = np.matmul(_LAYOUT, np.stack([phi, h], axis=-1))
    turns = (hi - lo) * dense[:, 0, 0] / _PHASE_CUT  # 2 Delta Phi / cut
    rough = np.any(np.abs(dense[:, 1:]).max(axis=1) > limits, axis=1)
    k = np.minimum(np.maximum(np.ceil(turns), 1.0 + rough),
                   np.floor((hi - lo) / floor))
    return np.maximum(k, 1.0).astype(int)


def _float_floor(a, b):
    """The narrowest panel of each dense cell [a, b]: 2^-40 of the cell,
    and at least 4096 float spacings at its larger end, where a panel's 33
    nodes stay distinct and near the Chebyshev points. A cell narrower
    than those spacings raises InvalidSegment, as too short for its grid
    steps; the engine asks once, before it samples anything, as a period
    that small would underflow the bound's spacing T / 512 to 0."""
    ulps = 4096.0 * np.spacing(np.maximum(abs(a), abs(b)))
    if np.any(b - a < ulps):
        r = int(np.argmax(b - a < ulps))
        raise InvalidSegment(
            f"interval [{float(a[r])}, {float(b[r])}] is too short for its "
            f"{_PANEL_DEGREE} grid steps at the float spacing")
    return np.maximum(_WIDTH_FLOOR * (b - a), ulps)


def _panel_grid(coefficients: ex.Forest, a, b, floor, turns, scales):
    """The series grid of the dense cells [a, b], ascending, whose panels
    are no narrower than ``floor`` (``_float_floor``), laid out in rounds
    by ``split_panels`` from what the bound's sample shows of each cell: its
    ``turns``, 2 Delta Phi / ``_PHASE_CUT``, and its ``scales``, its
    largest phi and |p| + |q' / (2 q)| (see ``_sample_dense``), the sizes
    the tails of phi and h are measured against. The first round cuts each
    cell into ceil(turns) equal panels (one per cell where that would pass
    ``_NODE_CAP`` nodes); each later round cuts panels as ``_cuts`` says.
    Every round samples q, p and q' on its new panels only, each panel's
    end values read 1e-9 of its width inside it (``inward``), so a jump
    that falls on a cut is read from its own side by each panel. The
    layout is final when no panel is cut, or when the next round would pass
    ``_NODE_CAP`` nodes, and no panel is cut below its cell's floor.

    Returns (x, phi, h, half, panels, rounds): (cells, nodes) rows of the
    nodes and of phi and h, a row's panels in time order and padded with
    whole panels at x = b, phi = 1 and h = 0 to the longest row; the
    (cells, panels) half-widths, 0 on padding; each row's panel count; and
    the number of sampling rounds."""
    limits = _TAIL_TOL * scales
    k = np.maximum(np.minimum(np.ceil(turns), np.floor((b - a) / floor)),
                   1.0).astype(int)
    if k.sum() * _NODES > _NODE_CAP:
        k[:] = 1
    row, lo, hi = split_panels(a, b, k)
    x = _panel_nodes(lo, hi)
    phi, h, _ = _sample_dense(coefficients, x, lo[:, None], hi[:, None])
    rounds = 1
    while True:
        k = _cuts(phi, h, lo, hi, limits[row], floor[row])
        if k.sum() == len(k) or k.sum() * _NODES > _NODE_CAP:
            break
        parent, lo, hi = split_panels(lo, hi, k)
        row, new = row[parent], k[parent] > 1
        x, phi, h = x[parent], phi[parent], h[parent]
        x[new] = _panel_nodes(lo[new], hi[new])
        phi[new], h[new], _ = _sample_dense(coefficients, x[new],
                                            lo[new, None], hi[new, None])
        rounds += 1
    panels = np.bincount(row, minlength=len(a))
    half = (hi - lo) / 2.0
    if panels.min() < panels.max():  # pad the shorter rows
        at = (row, np.arange(len(row)) - (np.cumsum(panels) - panels)[row])
        shape = (len(a), panels.max())
        X = np.repeat(b, shape[1] * _NODES).reshape(*shape, _NODES)
        PHI, H, HALF = np.ones(X.shape), np.zeros(X.shape), np.zeros(shape)
        X[at], PHI[at], H[at], HALF[at] = x, phi, h, half
        x, phi, h, half = X, PHI, H, HALF
    rows = (len(a), -1)
    return (x.reshape(rows), phi.reshape(rows), h.reshape(rows),
            half.reshape(rows), panels, rounds)


def _check_dense_limits(table: PhaseTable, first, last) -> bool:
    """Warn where phi's dense limit at the start or the end of a dense
    cell, the ``first`` or ``last`` node of its row, is more than 1e-6
    from the chain's phi there: sqrt(q) from the sample at a start, and the
    chain's own value at an end. One ``PhiDiscontinuityWarning`` per such
    place, in time order, naming t as the time scale holds it. Returns
    whether phi jumps anywhere."""
    ts = table.sample.spec.ts
    # every row's start, then every row's end
    chain = np.concatenate([table.starts[ts.dense], table.ends[ts.dense]])
    limits = np.concatenate([first, last])
    jumps = np.flatnonzero(np.abs(chain - limits) > 1e-6).tolist()
    if jumps:
        at = np.concatenate([ts.starts[ts.dense], ts.ends[ts.dense]]).tolist()
    for j in sorted(jumps, key=lambda j: (j % len(first), j)):
        warnings.warn(
            f"phi is discontinuous at t={at[j]}: chain value "
            f"{chain[j]} vs dense limit {limits[j]}", PhiDiscontinuityWarning)
    return bool(jumps)


def _uniform_rows(a, b, step):
    """The dense cells [a, b] as rows of equally spaced nodes, no further
    apart than ``step`` and at least 16 per cell, an even number: row c
    holds the n + 1 nodes a + k (b - a) / n of cell c, as np.linspace
    computes them, padded past its last node, b, to the longest row with x
    still increasing. Returns (x, last, real): the nodes, each row's last
    node index and the mask of real nodes."""
    n = np.maximum(16.0, np.ceil((b - a) / step))
    n += n % 2
    last = n.astype(int)
    x = np.arange(last.max() + 1.0) * ((b - a) / n)[:, None] + a[:, None]
    x[np.arange(len(a)), last] = b
    return x, last, np.arange(x.shape[1]) <= last[:, None]


class _SeriesEngine:
    """Precomputed grids for the series terms A_n and their tail bound.

    The dense cells are the rows of one stacked (cells, nodes) grid of
    Chebyshev panels (``_panel_grid``), which holds x, phi, h, the phase
    (the running integral of phi), the complex phase factor
    E(t) = e_{i phi}(t, t0), D = phi E (sigma(t) = t there) and the level
    weight W = h / D; ``half`` holds the panels' half-widths, ``panels``
    each row's panel count and ``rounds`` the layout's sampling rounds.
    ``_check_dense_limits`` warns (``PhiDiscontinuityWarning``) where a
    row's first or last phi, its dense limit at that end, is more than
    1e-6 from ``table.starts`` or ``table.ends`` there, and ``phi_jumps``
    records whether it warned. At the scattered
    points, phi(t) = ``table.ends[:-1]``, phi(sigma(t)) =
    ``table.starts[1:]`` and h(t) = -p - (phi(sigma(t)) - phi(t)) / (mu
    phi(t)) are one array expression; then the period walk, over the
    ``dense`` mask, records the E each row starts from and, in CPython
    scalars, E before the point's own step, 1 / D with D = phi(sigma(t))
    E(sigma(t)), and mu W = mu (h / D), the weight of a level's step at
    t. ``jump_table`` holds them as the (5, jumps) complex rows phi, E, h,
    1 / D and mu W, and ``order`` the events in time order, True for a
    row and False for a jump.
    Overflow on long periods stays in the values, and numpy's error state
    is the caller's at every return and yield. Each series order is the
    two running integrals J and K of W against the previous level's G and
    H: one ``_panel_integrals`` call over the (2, cells, nodes) stack of
    W G and W H, then a walk over the events, cells and jumps in time
    order, that carries both running offsets, adding a cell's row totals
    or a jump's exact (mu W) g and (mu W) h steps; the offsets reach the
    rows in one assignment.

    There are two walks, chosen by the number of events. Below
    ``_ARRAY_WALK_EVENTS`` a scalar loop adds the steps in Python complex
    arithmetic, reading the row totals with one ``tolist`` and the jump
    table's phi, E and mu W with one per analysis. From there on
    one order's steps fill a (2, events + 1) array behind a +0 slot and
    one ``np.cumsum`` adds them: it adds strictly left to right, so every
    running value is the loop's bit for bit. The steps and the next
    level's values at the jumps are the loop's complex products written
    out as float ufuncs, never numpy's complex product, which may fuse
    into an FMA and round once where CPython rounds twice. State is
    per-instance, and no method changes it, so the series and the bound
    share one engine; the bound reads its own uniform sample
    (``bound_sample``).
    """

    def __init__(self, table: PhaseTable):
        spec = table.sample.spec
        ts = spec.ts
        a, b = ts.starts[ts.dense], ts.ends[ts.dense]
        self.rows = len(a)
        self.phi_jumps = False
        if self.rows:
            floor = _float_floor(a, b)
            coefficients = ex.Forest((spec.q, spec.p, spec.qprime))
            # the bound's own sample first, padded with phi = 1, h = size =
            # 0: its phase sets the first panels
            x, last, real = _uniform_rows(a, b, ts.period / _BOUND_DIVISIONS)
            cell = np.nonzero(real)[0]
            phi, (h, size) = np.ones(x.shape), np.zeros((2, *x.shape))
            phi[real], h[real], size[real] = _sample_dense(
                coefficients, x[real], a[cell], b[cell])
            phase = cumulative_simpson(phi, x)
            self.bound = x, phi, h, phase, real
            turns = 2.0 * phase[np.arange(self.rows), last] / _PHASE_CUT
            scales = np.stack([np.where(real, phi, 0.0).max(axis=1),
                               size.max(axis=1)], axis=-1)
            (self.x, self.phi, self.h, self.half, self.panels,
             self.rounds) = _panel_grid(coefficients, a, b, floor, turns,
                                        scales)
            self.last = (self.panels * _NODES - 1).tolist()
            self.phase = _panel_integrals(self.phi, self.half)
            U = np.exp(1j * self.phase)
            self.E = np.empty_like(U)
            # each row's last node, as a flat index into a (cells, nodes) plane
            self.tips = np.arange(self.rows) * self.x.shape[1] + self.last
            self.phi_jumps = _check_dense_limits(table, self.phi[:, 0],
                                                 self.phi.take(self.tips))
        self.E_in = []  # the E each dense row starts from
        self.order = []  # in time order, True for a dense row, False a jump
        E_t, M_t, muW_t = [], [], []  # each jump's E, 1 / D and muW
        # past a dense row E is a numpy scalar; its overflow stays in the values
        with _quiet():
            # each point t ends a segment and sigma(t) starts the next one
            mu, p = ts.scattered_mu, np.array(table.sample.p)
            phi_t, phi_sigma = table.ends[:-1], table.starts[1:]
            h_t = -p - (phi_sigma - phi_t) / (mu * phi_t)
            steps = zip(mu.tolist(), phi_t.tolist(), phi_sigma.tolist(),
                        h_t.tolist())
            E = 1.0 + 0.0j
            row = 0
            for dense, step in zip(ts.dense.tolist(), [*steps, None]):
                if dense:
                    # E carries on from the row's last node: the scalar
                    # product E * U[row, last] would round differently
                    self.E_in.append(E)
                    np.multiply(E, U[row], out=self.E[row])
                    E = self.E[row, self.last[row]]
                    self.order.append(True)
                    row += 1
                if step is not None:  # the point t ending the segment
                    mu, phi, phi_sigma, h = step
                    E_sigma = (1.0 + 1j * mu * phi) * E
                    D = phi_sigma * E_sigma
                    E_t.append(E)
                    M_t.append(1.0 / D)
                    muW_t.append(mu * (h / D))
                    self.order.append(False)
                    E = E_sigma
            if self.rows:
                self.D = self.phi * self.E
                self.W = self.h / self.D
            self.E_T = E
            self.phi0 = float(table.starts[0])
            self.phiT = float(table.ends[-1])
            self.jump_table = np.array([phi_t, E_t, h_t, M_t, muW_t],
                                       dtype=complex)
            # the seeds G_0 and H_0 at the jumps, as Python's float products
            phi, E = self.jump_table[0].real, self.jump_table[1]
            self.jump_GH = phi * np.array([E.imag, E.real])
            self.slots = None
            if len(self.order) >= _ARRAY_WALK_EVENTS:
                # the array walk's columns: each row's and each jump's slot,
                # 1 + its place in time order, and the slots before them;
                # and the (jumps, 2) factors and terms of a jump's step.
                # CPython's (mu W) * g is (Re mu W g - Im mu W 0.0,
                # Re mu W 0.0 + Im mu W g): the factors are (Re mu W,
                # Im mu W) and the terms (Im mu W (-0.0), Re mu W 0.0), NaN
                # where a part of mu W is infinite
                slots = np.arange(1, len(self.order) + 1)
                is_row = np.array(self.order)
                rows, jumps = slots[is_row], slots[~is_row]
                self.slots = rows, jumps, rows - 1, jumps - 1
                muW = self.jump_table[4]
                factor = np.stack([muW.real, muW.imag], axis=-1)
                self.step = factor, factor[:, ::-1] * [-0.0, 0.0]

    def trace_seeds(self):
        """The seeds of the trace series, G_0 = phi sin_phi and
        H_0 = phi cos_phi: the (2, cells, nodes) stack GH on the rows (None
        without rows) and ``jump_GH``, the (2, jumps) array of g and h at
        the jumps, formed once from the jump table."""
        if not self.rows:
            return None, self.jump_GH
        with _quiet():
            return (self.phi * np.stack([self.E.imag, self.E.real]),
                    self.jump_GH)

    def levels(self, seeds):
        """Yield the terms A_1, A_2, ... of the level recursion started
        from ``seeds``, as ``trace_seeds`` gives them.

        The walk of a level leaves that level's G and H at the jumps as a
        by-product; its G and H on the rows, the (2, cells, nodes) stack,
        are formed only when the next level is pulled, so a caller that
        stops after A_n forms no row stack past level n - 1. Long engines
        walk the events as one prefix sum per order, short ones in a
        scalar loop (see the class); both yield the same floats.
        """
        GH, at_jumps = seeds
        ratio = self.phiT / self.phi0
        E_T = self.E_T
        if self.slots is None:
            walk = functools.partial(self._scalar_walk, self._scalar_jumps())
            at_jumps = at_jumps.T.tolist()
        else:
            walk = self._array_walk
        S = None
        while True:
            if self.rows:
                with _quiet():
                    if S is not None:  # this level's rows, from the last's
                        # the running offsets of J and K at each row
                        off = np.array(offsets, dtype=complex)[..., None]
                        GH = self.phi * (self.E * (off + S)).real
                    S = _panel_integrals(self.W * GH, self.half)
                    totals = S.reshape(2, -1).take(self.tips, axis=1)
                    (accJ, accK), offsets, at_jumps = walk(totals, at_jumps)
                    A = -(E_T * accJ).imag + ratio * (E_T * accK).real
            else:  # Python's arithmetic, or the array walk's own error state
                (accJ, accK), _, at_jumps = walk(None, at_jumps)
                A = -(E_T * accJ).imag + ratio * (E_T * accK).real
            # + 0.0 turns the -0.0 of a terminated discrete series into 0.0
            yield A + 0.0

    def _scalar_jumps(self) -> list:
        """Each jump's (phi, E, mu W) as Python numbers, from the jump
        table, for ``_scalar_walk``."""
        phi, E, _, _, muW = self.jump_table
        return list(zip(phi.real.tolist(), E.tolist(), muW.tolist()))

    def _scalar_walk(self, jumps, totals, at_jumps):
        """One order's walk in Python complex arithmetic: the final J and
        K, their offsets at each row and the next level's (g, h) pairs at
        the jumps, from each jump's (phi, E, mu W), the (2, cells) row
        totals and this level's pairs."""
        if self.rows:
            totalJ, totalK = totals.tolist()
        accJ = 0.0 + 0.0j
        accK = 0.0 + 0.0j
        offJ, offK = [], []
        jumps, seeds, at_jumps = iter(jumps), iter(at_jumps), []
        row = 0
        for is_row in self.order:
            if is_row:
                offJ.append(accJ)
                offK.append(accK)
                accJ = accJ + totalJ[row]
                accK = accK + totalK[row]
                row += 1
            else:
                phi, E, muW = next(jumps)
                g, h = next(seeds)
                # running value excludes the jump at the point itself
                at_jumps.append((phi * (E * accJ).real, phi * (E * accK).real))
                accJ = accJ + muW * g
                accK = accK + muW * h
        return (accJ, accK), (offJ, offK), at_jumps

    def _array_walk(self, totals, GH):
        """``_scalar_walk`` as one prefix sum: the steps fill a
        (2, events + 1) array behind a +0 slot, as the loop starts from
        0j, and ``np.cumsum`` adds them in the loop's order. A jump's step
        is CPython's (mu W) * g from the ``step`` columns, and the next
        level's values are phi (Re E Re J - Im E Im J), each product
        rounded on its own, so NaN and inf fall where the loop's do.
        ``GH`` and the returned values at the jumps are (2, jumps) arrays,
        the offsets a (2, cells) one; overflow stays in the values, and
        numpy's error state is left as it was."""
        rows, jumps, before_rows, before_jumps = self.slots
        phi, E = self.jump_table[0].real, self.jump_table[1]
        factor, term = self.step
        acc = np.empty((2, len(self.order) + 1), dtype=complex)
        parts = acc.view(float).reshape(2, -1, 2)  # (Re, Im) of each slot
        with _quiet():
            acc[:, 0] = 0.0
            if self.rows:
                acc[:, rows] = totals
            parts[:, jumps] = GH[..., None] * factor + term
            np.cumsum(acc, axis=1, out=acc)
            # running values exclude the event at their own slot
            run = acc[:, before_jumps]
            GH = phi * (E.real * run.real - E.imag * run.imag)
            offsets = acc[:, before_rows]
        return acc[:, -1].tolist(), offsets, GH

    def terms(self, n: int) -> list:
        """[A_0, ..., A_n] by the level recursion."""
        out = [(1.0 + self.phiT / self.phi0) * self.E_T.real]
        out += islice(self.levels(self.trace_seeds()), n)
        return out

    # -- supremum grids for the truncation bound ---------------------------

    def bound_sample(self):
        """The paper bound's own sample of the dense rows: ``_uniform_rows``
        at ``_BOUND_DIVISIONS`` per period, sampled by ``_sample_dense``,
        with the phase integrated by ``cumulative_simpson`` and E carried
        on from the E each row starts from in the period walk. Returns
        (x, phi, h, E, real), the nodes, phi, h and E there and the mask of
        real nodes."""
        x, phi, h, phase, real = self.bound
        with _quiet():
            E = np.array(self.E_in, dtype=complex)[:, None] * np.exp(
                1j * phase)
        return x, phi, h, E, real

    # on long periods E overflows and the tables hold inf and NaN;
    # error_bound reads a NaN constant as an infinite bound
    @_quiet()
    def bound_constants(self):
        """(K1, K2, K3): grid suprema of |h(t,s)|, |Q(t,s)|, |h(t)|, over
        the real nodes of ``bound_sample`` and every jump.

        K2 is the maximum of |Re(u_t M_s)| and K1 of |a_t QT_s - b_t PT_s|
        over every pair (t, s) of nodes and jumps. Each entry is the 2-D
        dot product v_t . w_s of a row vector and a column vector: for K2
        v_t = (Re u_t, Im u_t) and w_s = (Re M_s, -Im M_s), for K1
        v_t = (a_t phi0, b_t) and w_s = (QT_s / phi0, -PT_s). Rescaling
        K1's rows by phi0 and its columns by 1 / phi0 leaves every product
        unchanged and makes the norms |u_t| and |E_T M_s| (for phiT =
        phi0), the scales of the entries: the norms of (a_t, b_t) and
        (QT_s, PT_s) mix components that phi0 scales apart, and on
        mathieu/h1_3 (phi0 = 2.8) the first lower bound is 0.35 of their
        largest product against 0.98 of the rescaled one.
        ``_windowed_max`` evaluates only the pairs whose norms and angles
        can reach an entry already seen, with the same elementwise
        expressions as the full tables, so K1 and K2 equal the full
        tables' maxima bit for bit.
        """
        # phi, E, h and 1 / D at the bound's dense nodes, then at every jump:
        # the constants are maxima, so the order of the nodes does not matter
        phi_t, E_t, h_t, M_s = [], [], [], []
        if self.rows:
            _, phi, h, E, nodes = self.bound_sample()
            phi_t, E_t, h_t, M_s = (phi[nodes], E[nodes], h[nodes],
                                    1.0 / (phi * E)[nodes])
        phi, E, h, M, _ = self.jump_table
        phi_t = np.concatenate([phi_t, phi.real, [self.phiT]])
        E_t = np.concatenate([E_t, E, [self.E_T]])
        h_t = np.concatenate([h_t, h.real])
        M_s = np.concatenate([M_s, M, [1.0 / (self.phiT * self.E_T)]])

        K3 = float(np.max(np.abs(h_t)))
        E_TM = self.E_T * M_s
        QT = self.phiT * E_TM.real
        PT = E_TM.imag
        u_t = phi_t * E_t
        a_t = E_t.real * phi_t / self.phi0
        b_t = E_t.imag * phi_t
        K2 = _windowed_max(lambda u, M: (u * M).real, (u_t,), (M_s,),
                           (u_t.real, u_t.imag), (M_s.real, -M_s.imag))
        K1 = _windowed_max(lambda a, b, Q, P: a * Q - b * P,
                           (a_t, b_t), (QT, PT),
                           (a_t * self.phi0, b_t), (QT / self.phi0, -PT))
        return K1, K2, K3


def _blocked_max(entry, rows, cols) -> float:
    """max |entry| over the whole table of row operands ``rows`` against
    column operands ``cols``, a block of rows at a time, so memory stays
    O(N) for long periods. The operands are shaped as np.outer shapes
    them: numpy's complex product is fused into an FMA on its vector
    loop but not on the scalar one, which a (1, 1) by (1,) product
    takes."""
    return float(np.max([
        np.abs(entry(*[a[i:i + _BOUNDS_ROWS, None] for a in rows],
                     *[a[None, :] for a in cols])).max()
        for i in range(0, len(rows[0]), _BOUNDS_ROWS)]))


def _windowed_max(entry, rows, cols, v, w) -> float:
    """max |entry(rows[t], cols[s])| over every pair (t, s), the row
    operands indexed by t and the column operands by s, where the exact
    entry is the dot product of v_t = (v[0][t], v[1][t]) and
    w_s = (w[0][s], w[1][s]), that is |v_t| |w_s| cos(alpha_t - beta_s)
    for their angles alpha_t and beta_s. ``entry`` is elementwise.

    lo, the largest entry of the row at argmax |v| and of the column at
    argmax |w|, is itself an entry, and a pair matters only if its float
    entry exceeds lo. The float entry is within 2u |v_t| |w_s| of the
    exact one (u = 2^-53), whether or not numpy fuses the complex product
    into an FMA, plus at most 2^-1074 of underflow, under u lo as lo is
    normal. So a pair that matters has
    |cos(alpha_t - beta_s)| >= kappa_t = lo / (|v_t| max|w|) - 1e-12:
    the 1e-12 covers those 3u and the few u by which hypot's norms, K1's
    rescaled components and kappa_t's own division round. Such pairs lie
    in the rows with |v_t| max|w| (1 + 1e-12) >= lo and the columns with
    |w_s| max|v| (1 + 1e-12) >= lo, and in row t only the columns whose
    angle lies within arccos(kappa_t) of alpha_t modulo pi, the period of
    |cos|. The window's margin of 1e-9 rad covers the angles' errors:
    arctan2 and the reduction mod pi are off by a few ulps of pi, a
    rescaled component tilts its vector by at most u, and the ring's
    offsets and the window's edges round by an ulp of 2 pi, under 1e-14
    rad together. kappa_t is capped at 1 - 1e-12, where arccos's slope
    1 / sqrt(1 - kappa^2) is at most ~7.1e5, so even an ulp of kappa
    (1.1e-16) that the 1e-12 missed would move the window by < 1e-10 rad.

    The kept columns are sorted by angle on a ring of three periods, one
    searchsorted call finds both edges of every row's window, and the
    windowed pairs are evaluated in one gathered call, a block of rows at
    a time once they outnumber a block of the full table, so memory
    stays O(N); the gathered 1-D products take numpy's vector loop, as
    np.outer's rows do, so the entries equal the full table's bit for
    bit. A kept sub-table of one block or less is reduced whole.

    Below the smallest normal float rounding is no longer relative, so
    the slack does not cover it: the whole table is reduced when max|v|,
    max|w| or lo is subnormal, or when max|v| max|w| is not finite (an
    overflowed E, whose NaN must reach the bound), and if any norm is
    subnormal, every row and column whose norm bound reaches lo or whose
    norm is subnormal is reduced, with no angular window.
    """
    rn, cn = np.hypot(*v), np.hypot(*w)
    i, j = rn.argmax(), cn.argmax()
    rmax, cmax = rn[i], cn[j]
    # one block of rows costs less than finding the ones to keep
    if not (len(rn) > _BOUNDS_ROWS and math.isfinite(rmax * cmax)
            and min(rmax, cmax) >= _TINY):
        return _blocked_max(entry, rows, cols)
    lo = max(np.abs(entry(*[a[i] for a in rows], *cols)).max(),
             np.abs(entry(*rows, *[a[j] for a in cols])).max())
    if lo < _TINY:
        return _blocked_max(entry, rows, cols)
    bound = rn * cmax
    keep_t = bound * (1.0 + 1e-12) >= lo
    keep_s = cn * (rmax * (1.0 + 1e-12)) >= lo
    subnormal = min(rn.min(), cn.min()) < _TINY
    if subnormal:
        keep_t |= rn < _TINY
        keep_s |= cn < _TINY
    t, s = np.flatnonzero(keep_t), np.flatnonzero(keep_s)
    # one block of the sub-table costs less than finding its windows
    if subnormal or len(t) * len(s) <= _BOUNDS_ROWS ** 2:
        return _blocked_max(entry, [a[t] for a in rows], [a[s] for a in cols])
    beta = _half_turn(np.arctan2(w[1][s], w[0][s]))
    order = beta.argsort()
    s, ring = s[order], (beta[order] + _RING).ravel()
    alpha = _half_turn(np.arctan2(v[1][t], v[0][t]))
    half = np.arccos(np.minimum(lo / bound[t], 1.0) - 1e-12) + 1e-9
    first, last = np.searchsorted(ring, alpha + half * _SIDES)
    # a window of pi or more holds every column: its first len(s) entries
    count = np.minimum(last - first, len(s))
    budget = _BOUNDS_ROWS * len(cn)
    block = len(t) if count.sum() <= budget else budget // len(s)
    for r in range(0, len(t), block):
        n = count[r:r + block]
        ends = n.cumsum()
        at = np.arange(ends[-1]) + np.repeat(first[r:r + block] - ends + n, n)
        ti, si = np.repeat(t[r:r + block], n), s[at % len(s)]
        lo = np.abs(entry(*[a[ti] for a in rows],
                          *[a[si] for a in cols])).max(initial=lo)
    return float(lo)


def _half_turn(angle):
    """arctan2's angles, in [-pi, pi], taken modulo pi into [0, pi]."""
    return np.where(angle < 0.0, angle + np.pi, angle)


def _series_terms(spec: SystemSpec, table: PhaseTable, n: int) -> list:
    if n < 0:
        raise ValueError("n must be >= 0")
    if not spec.ts.is_discrete and n > _MAX_DEPTH_DENSE:
        raise DepthBudgetExceeded(
            f"n={n} exceeds the depth budget {_MAX_DEPTH_DENSE} on a "
            "non-discrete scale"
        )
    return _engine(spec, table).terms(n)


def _engine(spec: SystemSpec, table: PhaseTable) -> _SeriesEngine:
    """The table's series engine, built on first use: one per analysis.
    A table of another system than ``spec`` raises ValueError."""
    _check_system(spec, table.sample)
    if table.engine is None:
        table.engine = _SeriesEngine(table)
    return table.engine


def a_term(spec: SystemSpec, table: PhaseTable, n: int) -> float:
    """The n-th series term A_n."""
    return _series_terms(spec, table, n)[n]


def a_partial(spec: SystemSpec, table: PhaseTable, n: int) -> float:
    """The partial sum A(n) = A_0 + ... + A_n."""
    return math.fsum(_series_terms(spec, table, n))


def estimate_bounds(spec: SystemSpec, table: PhaseTable):
    """(K1, K2, K3): suprema of the two-argument kernel |h(t,s)|, of
    |Q(t,s)| and of |h(t)|, estimated on all scattered points plus the
    series engine's uniform bound sample, 512 divisions per period and at
    least 16 per cell."""
    return _engine(spec, table).bound_constants()


@dataclass(frozen=True)
class ErrorBound:
    """Truncation bound for |A - A(n)|; exact=True means the series has
    terminated and the bound is identically zero."""

    value: float
    exact: bool = False


def _exp_tail(z: float, n: int) -> float:
    """sum_{k>n} z^k / k! for z >= 0, summed directly: e^z minus the
    partial sum cancels once the tail is far below e^z (0.0 for 5.4e-18
    at z = 0.05, n = 8).

    The first term z^(n+1) / (n+1)! is one power and one division, each
    later one the last times z / k. Once z / (k + 1) < 1 the terms from
    t_k on fall at least as fast as a geometric series of that ratio, so
    they sum to at most t_k / (1 - z / (k + 1)); the sum ends by adding
    that bound in place of t_k once it is under 2^-53 of the terms so
    far, and takes ``fsum`` of them. A sum past the float range is inf,
    and a first term past it raises OverflowError.

    ``fsum`` returns the correctly rounded sum of its terms' exact values,
    which does not depend on their order, and, as every term is positive,
    overflows in every order or in none. It takes them in descending
    order: the terms rise up to k ~ z and then fall, so in the order of k
    every falling term meets the partial sums that the rising ones left,
    and in descending order few (at z = 332, n = 3, 490 terms, the sort
    and the sum took ~11 us against ~160 us for the sum in the order of
    k, on the machine of README's timings)."""
    k = n + 1
    term = z ** k / math.factorial(k)
    terms = [term]
    total = term
    while total < math.inf:
        k += 1
        term *= z / k
        if z < k + 1:
            rest = term / (1.0 - z / (k + 1))
            if rest <= 2.0 ** -53 * total:
                terms.append(rest)
                terms.sort(reverse=True)
                return math.fsum(terms)
        terms.append(term)
        total += term
    return math.inf


def error_bound(spec: SystemSpec, table: PhaseTable, n: int) -> ErrorBound:
    """Tail bound (K1/K2) sum_{k>n} z^k / k!, z = K2 K3 T, the remainder
    of e^z after its Taylor polynomial of degree n (``_exp_tail``).

    On a purely discrete scale with k scattered points the series is a
    finite sum, computed by the same level recursion as on other scales
    (exact up to rounding, O(n k) work), so the bound is exact zero once
    n >= k. When the remainder, z^(n+1) or (n+1)! is beyond the float
    range, or a bound constant or the bound is NaN, the bound is
    infinite, which leaves the verdict undetermined unless B decides it.
    """
    ts = spec.ts
    if ts.is_discrete and n >= len(ts.scattered_t):
        return ErrorBound(0.0, exact=True)
    K1, K2, K3 = estimate_bounds(spec, table)
    if any(math.isnan(k) for k in (K1, K2, K3)):
        return ErrorBound(math.inf)
    if K3 == 0.0:
        return ErrorBound(0.0, exact=True)
    try:
        tail = _exp_tail(K2 * K3 * ts.period, n)
    except OverflowError:
        return ErrorBound(math.inf)
    bound = (K1 / K2) * tail
    if math.isnan(bound):  # 0 * inf, or inf / inf
        return ErrorBound(math.inf)
    return ErrorBound(bound)


def shi_continuous_a(spec: SystemSpec, table: PhaseTable, n: int,
                     B: Optional[float] = None) -> float:
    """A(n) on a purely continuous scale with B = 1, via the cosine-phase
    form of the series, on the one row of the table's series engine.

    ``n`` counts integration levels the way the reference computation
    does: the 2m-fold integrals for 2m <= n contribute, odd levels are
    identically zero. ``B`` is ``compute_B(spec)`` when the caller has it
    already; the scale is checked first either way.
    """
    if not spec.ts.is_continuous:
        raise NotContinuousScale("the phase-form series needs a purely "
                                 "continuous scale")
    if B is None:
        B = compute_B(spec, table.sample)
    if abs(B - 1.0) > 1e-9:
        raise BNotOne(f"B = {B} differs from 1 beyond 1e-9")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 2 * _MAX_DEPTH_DENSE:
        raise DepthBudgetExceeded(f"n={n} exceeds the depth budget")

    engine = _engine(spec, table)
    phase = engine.phase
    u = np.exp(-2j * phase)  # e^{-2i Phi(t)}
    outer_phase = cmath.exp(1j * phase[0, -1])

    total = 2.0 * math.cos(phase[0, -1])
    F = np.ones(phase.shape, dtype=complex)
    for level in range(1, n + 1):
        factor = engine.h / u if level % 2 == 1 else engine.h * u
        F = _panel_integrals(factor * F, engine.half)
        if level % 2 == 0:
            total += 2.0 ** (1 - level) * (outer_phase * F[0, -1]).real
    return total


# -- multipliers and verdict -------------------------------------------------

class Enclosure(NamedTuple):
    """The closed interval [lo, hi] that holds A or B."""
    lo: float
    hi: float


def _moduli_at(A: float, B: float):
    """(|A/2 - r|, |A/2 + r|) with r = sqrt(A^2/4 - B): the moduli of the
    two roots of rho^2 - A rho + B, unsorted. For two distinct real roots
    the larger is |A|/2 + r and the smaller |B| divided by it, at most the
    larger, as |A/2 -+ r| cancels where A^2/4 >> |B|; where A^2/4
    overflows with A and B finite, the larger is |A|/2 (1 + sqrt(1 - B /
    (A/2)^2)) instead. A complex pair, a double root, an infinite A or B or
    a NaN take the complex root."""
    disc = A * A / 4.0 - B
    if 0.0 < disc < math.inf:
        large = abs(A) / 2.0 + math.sqrt(disc)
    elif disc == math.inf and math.isfinite(A) and math.isfinite(B):
        half = A / 2.0  # A^2/4 overflows, B does not
        large = abs(half) * (1.0 + math.sqrt(1.0 - (B / half) / half))
    else:
        root = cmath.sqrt(complex(disc))
        return abs(A / 2.0 - root), abs(A / 2.0 + root)
    small = min(abs(B) / large, large)
    return (small, large) if A >= 0.0 else (large, small)


def multipliers(a: Enclosure, b: Enclosure):
    """Modulus intervals (smaller, larger) of the two multipliers as A
    ranges over ``a`` and B over the ends of ``b``: the modulus functions
    are piecewise monotone in A with breakpoints at 0 and +-2 sqrt(B), so
    endpoint plus breakpoint evaluation is exact; at an infinite A the
    roots tend to B / A -> 0 and A -> inf. Between b's ends only the larger
    dips, to |A| / 2 at B = A^2 / 4, ulps from 1 in ``_b_enclosure``'s."""
    moduli = []
    for B in dict.fromkeys(b):  # each end once
        r = 2.0 * math.sqrt(B) if B > 0 else 0.0
        cands = [a.lo, a.hi] + [c for c in (0.0, r, -r) if a.lo < c < a.hi]
        moduli += [(0.0, math.inf) if math.isinf(A)
                   else sorted(_moduli_at(A, B)) for A in cands]
    small, large = zip(*moduli)
    return (min(small), max(small)), (min(large), max(large))


class Verdict(str, Enum):
    STABLE = "stable"
    EXPONENTIALLY_STABLE = "exponentially stable"
    UNSTABLE = "unstable"
    UNDETERMINED = "undetermined"


def verdict(a: Enclosure, b: Enclosure):
    """(Verdict, justification) for A in ``a`` and B in ``b``, decided on
    the exact box, not on rounded moduli. By Schur-Cohn both roots of
    rho^2 - A rho + B lie in the closed unit disk iff B <= 1 and |A| <= 1 +
    B, and in the open one iff B < 1 and |A| < 1 + B; fsum takes the sign
    of |A| - 1 - B exactly. UNSTABLE needs every (A, B) of the box to put
    a root outside the closed disk, EXPONENTIALLY_STABLE every one to hold
    both in the open disk, and STABLE every one to hold both in the closed
    disk with |A| < 2, so that a root on the circle is simple. An ``a``
    with a NaN end, from a NaN or infinite A(n), says nothing of A, and
    then only B can decide."""
    known = a.lo <= a.hi  # False where an end is NaN
    least = max(a.lo, -a.hi, 0.0) if known else 0.0  # the least |A|
    if b.lo > 1.0 or least > 2.0 or math.fsum((least, -1.0, -b.hi)) > 0.0:
        if known:
            return (Verdict.UNSTABLE,
                    "a multiplier modulus interval lies entirely above 1")
        return (Verdict.UNSTABLE,
                "|B| > 1 forces a multiplier modulus above 1")
    if b.hi <= 1.0 and -2.0 < a.lo and a.hi < 2.0:
        gap = math.fsum((max(-a.lo, a.hi), -1.0, -b.lo))  # max|A| - 1 - B
        if b.hi < 1.0 and gap < 0.0:
            return (Verdict.EXPONENTIALLY_STABLE,
                    "both multiplier modulus intervals lie entirely below 1")
        if gap <= 0.0:
            return Verdict.STABLE, (
                "B = 1 and the A interval lies inside (-2, 2): two distinct "
                "unit-circle multipliers")
    return (Verdict.UNDETERMINED,
            "increase n or handle the unit-modulus critical case manually")


# -- top-level report --------------------------------------------------------

@dataclass
class FloquetReport:
    n: int
    A_terms: list
    A_partial: float
    B: float
    err_bound: ErrorBound
    rho_moduli: tuple  # ((lo, hi) smaller, (lo, hi) larger)
    point_moduli: tuple  # (|rho_minus|, |rho_plus|) at A = A(n)
    verdict: Verdict
    justification: str
    method: str  # "discrete" | "series" | "phase-form"
    is_discrete: bool


def default_order(ts: ValidatedTimeScale) -> int:
    """k (the series terminates there) on discrete scales, else 3."""
    if ts.is_discrete:
        return len(ts.scattered_t)
    return 3


def analyze(spec: SystemSpec, n: Optional[int] = None,
            use_shi: bool = False) -> FloquetReport:
    """Run the full pipeline and assemble a certified report: the verdict
    reads A's enclosure, A(n) +- err (infinite where A(n) is not finite or
    phi jumps), and B's (``_b_enclosure``)."""
    ts = spec.ts
    if n is None:
        n = default_order(ts)
    table = solve_phi(spec)
    B = compute_B(spec, table.sample)
    if use_shi:
        A = shi_continuous_a(spec, table, n, B)
        terms = []
        method = "phase-form"
    else:
        terms = _series_terms(spec, table, n)
        A = math.fsum(terms)
        method = "discrete" if ts.is_discrete else "series"
    err = error_bound(spec, table, n)
    # a NaN or infinite A(n) is never exact, and the series does not hold
    # across a jump of phi: A's enclosure is then the whole line
    if not math.isfinite(A) or table.engine.phi_jumps:
        err = ErrorBound(math.inf)
    a, b = Enclosure(A - err.value, A + err.value), _b_enclosure(B)
    v, why = verdict(a, b)
    return FloquetReport(
        n=n,
        A_terms=list(terms),
        A_partial=A,
        B=B,
        err_bound=err,
        rho_moduli=multipliers(a, b),
        point_moduli=_moduli_at(A, B),
        verdict=v,
        justification=why,
        method=method,
        is_discrete=ts.is_discrete,
    )
