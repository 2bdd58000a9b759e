"""Reference time-scale calculus: the literal definitions.

Delta integrals, the generalized exponential e_g(t,s), the time-scale
trigonometric functions cos_phi/sin_phi, and the pointwise phi^Delta,
h and kernels P, Q of the Floquet series, each evaluated from its
definition with the scalar reference walk ``expr_reference.evaluate``
(the math module's sin, cos, exp and ``**``), the scale's locate query
and the pointwise mu and sigma written out here, and a scalar adaptive
GK(7,15) quadrature (``_adaptive_quad``) on the nodes and weights of
``tsfloquet.tscalc``. The runtime never calls them: ``compute_B`` walks
the period once and refines its dense integrals in array rounds, and the
series engine folds the kernels into running integrals. Tests check the
engine against these.

``reference_sample`` is the per-point sample of p and q that
``validate_system`` replaced with array masks: one scalar evaluation of p
and then q at each scattered point, in time order, each point checked as
soon as it is sampled, then sqrt(q) at every dense start, whose NaN or
infinity the analysis used to name only where the series read it.
"""
from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, Union

from tsfloquet import expr as ex, tscalc
from tsfloquet.errors import (
    CalculusError,
    NegativeQOnDense,
    NotRegressive,
    PhiVanishes,
    PointNotInTimeScale,
    QuadratureNonConvergence,
)
from tsfloquet.floquet import (
    _PHI_MIN,
    PhaseTable,
    SystemSpec,
    _check_finite,
)
from tsfloquet.timescale import Interval, Point, ValidatedTimeScale
from tsfloquet.tscalc import _EVAL_BUDGET, _WG, _WGK, _XGK

import expr_reference

Number = Union[float, complex]


class EndpointsNotInTimeScale(CalculusError):
    """A delta integral's endpoints are not in the time scale, or a > b."""


# -- pointwise coefficients and jump operators -------------------------------

def p_at(spec: SystemSpec, t: float) -> float:
    """p(t) by the scalar reference walk."""
    return expr_reference.evaluate(spec.p, t)


def q_at(spec: SystemSpec, t: float) -> float:
    """q(t) by the scalar reference walk."""
    return expr_reference.evaluate(spec.q, t)


def contains(ts: ValidatedTimeScale, t: float) -> bool:
    """Whether t lies in the scale, within ``locate``'s tolerance."""
    try:
        ts.locate(t)
        return True
    except PointNotInTimeScale:
        return False


def segments(ts: ValidatedTimeScale) -> list:
    """The snapped segments in time order, rebuilt from the scale's arrays
    as ``Point`` and ``Interval`` objects with float ends."""
    return [Interval(a, b) if dense else Point(a) for a, b, dense in zip(
        ts.starts.tolist(), ts.ends.tolist(), ts.dense.tolist())]


def dense_intervals(ts: ValidatedTimeScale) -> list:
    """The closed dense parts (a, b) of the stored period, ascending."""
    return list(zip(ts.starts[ts.dense].tolist(), ts.ends[ts.dense].tolist()))


def steps(ts: ValidatedTimeScale) -> list:
    """The period walk: (segment, (t, mu)) in time order, the jump at the
    segment's right end t; None for the last segment, at t0+T."""
    return list(zip(segments(ts), ts.scattered_with_mu() + [None]))


def mu_at(ts: ValidatedTimeScale, t: float) -> float:
    """Graininess: gap to the next time-scale point, 0 at dense points.

    mu(t0+T) = mu(t0) by T-periodicity.
    """
    i, t = ts.locate(t)
    if t == ts.t_end:
        return mu_at(ts, ts.t0)
    if t < ts.ends[i]:
        return 0.0
    # a Point, or the right end of an Interval
    return float(ts.starts[i + 1]) - t


def sigma_at(ts: ValidatedTimeScale, t: float) -> float:
    """Forward jump operator sigma(t) = t + mu(t)."""
    _, t = ts.locate(t)
    return t + mu_at(ts, t)


# -- the per-point sample ------------------------------------------------------

def _scattered_sample(spec: SystemSpec):
    """(t, mu, p(t), q(t)) at every right-scattered t, in time order; p is
    evaluated before q at each point."""
    for t, mu in spec.ts.scattered_with_mu():
        yield t, mu, p_at(spec, t), q_at(spec, t)


def _step_factor(t: float, mu: float, p: float, q: float) -> float:
    """The factor 1 - mu p + mu^2 q of one step from the scattered point t;
    NotRegressive where it vanishes within 1e-12."""
    factor = 1.0 + mu * (-p + mu * q)
    if abs(factor) <= 1e-12:
        raise NotRegressive(f"1 - mu*p + mu^2*q vanishes at t={t}")
    return factor


def _sqrt_q(q_expr: ex.Expression, t: float) -> float:
    """sqrt(q(t)), the value of phi on a dense part: NaN or infinite where
    q(t) is, as the callers name such a value later, in time order."""
    q = expr_reference.evaluate(q_expr, t)
    if q <= 0:
        raise NegativeQOnDense(f"q({t}) = {q} <= 0 on a dense part")
    return math.sqrt(q)


def reference_sample(spec: SystemSpec) -> tuple:
    """(p, q, factor, starts) as ``validate_system`` returns them,
    lists over the scattered points and sqrt(q) by dense row,
    from one scalar evaluation at a time: each point is checked as soon as
    it is sampled, then sqrt(q) is taken at every dense start in time
    order, and last the starts are checked for a NaN or infinite q."""
    sample = []
    for t, mu, p, q in _scattered_sample(spec):
        _check_finite("p", p, t, "at a scattered point")
        _check_finite("q", q, t, "at a scattered point")
        factor = _step_factor(t, mu, p, q)
        if abs(q) <= _PHI_MIN:
            raise PhiVanishes(f"q = {q} is within {_PHI_MIN} of 0 at t={t} "
                              "at a scattered point")
        sample.append((p, q, factor))
    starts = [(a, _sqrt_q(spec.q, a)) for a, _ in dense_intervals(spec.ts)]
    for a, phi in starts:
        _check_finite("q", phi, a, "on a dense part")
    columns = [list(c) for c in zip(*sample)] or [[] for _ in range(3)]
    return (*columns, [phi for _, phi in starts])


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel: returns (K15, |K15 - G7|), with f called
    once per node, in ``tscalc._gk15``'s order."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = [c]
    for j in range(7):
        x = h * _XGK[j]
        nodes += [c - x, c + x]
    fx = [f(x) for x in nodes]
    kron = _WGK[7] * fx[0]
    gauss = _WG[3] * fx[0]
    for j in range(7):
        fsum = fx[2 * j + 1] + fx[2 * j + 2]
        kron = kron + _WGK[j] * fsum
        if j % 2 == 1:
            gauss = gauss + _WG[j // 2] * fsum
    kron = kron * h
    gauss = gauss * h
    return kron, abs(kron - gauss)


def _adaptive_quad(f, a: float, b: float, tol: float) -> Number:
    """Adaptive panel-halving GK(7,15) with absolute tolerance tol."""
    if b <= a:
        return 0.0
    evals = 0
    total = 0.0
    stack = [(a, b, tol)]
    while stack:
        lo, hi, budget = stack.pop()
        value, err = _gk15(f, lo, hi)
        evals += 15
        if evals > _EVAL_BUDGET:
            raise QuadratureNonConvergence(
                f"tolerance {tol} unreachable within {_EVAL_BUDGET} evaluations"
            )
        if err <= budget or (hi - lo) <= 1e-14 * max(1.0, abs(hi)):
            total += value
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * budget))
            stack.append((mid, hi, 0.5 * budget))
    return total


def _dense_overlaps(ts: ValidatedTimeScale, a: float, b: float):
    for ia, ib in dense_intervals(ts):
        lo, hi = max(a, ia), min(b, ib)
        if hi > lo:
            yield lo, hi


def scattered_points_in(ts: ValidatedTimeScale, a: float, b: float) -> list:
    """All right-scattered t with a <= t < b, ascending."""
    return [t for t, _ in ts.scattered_with_mu() if a <= t < b]


def delta_integral(
    f: Callable[[float], Number],
    a: float,
    b: float,
    ts: ValidatedTimeScale,
    tol: float = 1e-9,
) -> Number:
    """Delta integral of a rd-continuous f over [a, b] in the time scale.

    Sum of mu(t) f(t) over right-scattered t in [a, b) plus adaptive
    quadrature over the dense parts. Both endpoints must lie in the scale.
    """
    try:
        _, a = ts.locate(a)
        _, b = ts.locate(b)
    except PointNotInTimeScale as exc:
        raise EndpointsNotInTimeScale(str(exc)) from exc
    if a > b:
        raise EndpointsNotInTimeScale(f"need a <= b, got {a} > {b}")
    total: Number = 0.0
    for t in scattered_points_in(ts, a, b):
        total += mu_at(ts, t) * f(t)
    for lo, hi in _dense_overlaps(ts, a, b):
        total += _adaptive_quad(f, lo, hi, tol)
    return total


def ts_exponential(
    g: Callable[[float], Number],
    t: float,
    s: float,
    ts: ValidatedTimeScale,
    tol: float = 1e-9,
) -> Number:
    """Generalized exponential e_g(t, s).

    Product of (1 + mu g) over scattered points in [s, t) times the
    classical exponential of the dense integral of g. The product form is
    the cylinder-transform definition and stays correct when factors are
    negative or complex. For t < s the reciprocal 1 / e_g(s, t) is
    returned.
    """
    try:
        _, t = ts.locate(t)
        _, s = ts.locate(s)
    except PointNotInTimeScale as exc:
        raise EndpointsNotInTimeScale(str(exc)) from exc
    if t < s:
        return 1.0 / ts_exponential(g, s, t, ts, tol)
    prod: Number = 1.0
    for tau in scattered_points_in(ts, s, t):
        factor = 1.0 + mu_at(ts, tau) * g(tau)
        if abs(factor) < 1e-14:
            raise NotRegressive(f"1 + mu*g vanishes at t={tau}")
        prod *= factor
    integral: Number = 0.0
    for lo, hi in _dense_overlaps(ts, s, t):
        integral += _adaptive_quad(g, lo, hi, tol)
    if isinstance(integral, complex) or isinstance(prod, complex):
        return prod * cmath.exp(integral)
    return prod * math.exp(integral)


def cos_phi(
    phi: Callable[[float], float],
    t: float,
    s: float,
    ts: ValidatedTimeScale,
    tol: float = 1e-9,
) -> float:
    """Time-scale cosine: real part of e_{i phi}(t, s)."""
    return complex(ts_exponential(lambda u: 1j * phi(u), t, s, ts, tol)).real


def sin_phi(
    phi: Callable[[float], float],
    t: float,
    s: float,
    ts: ValidatedTimeScale,
    tol: float = 1e-9,
) -> float:
    """Time-scale sine: imaginary part of e_{i phi}(t, s)."""
    return complex(ts_exponential(lambda u: 1j * phi(u), t, s, ts, tol)).imag


def _checked_sqrt_q(q_expr, t: float) -> float:
    """sqrt(q(t)) on a dense part; a NaN or infinite q(t) raises
    DomainError."""
    _check_finite("q", expr_reference.evaluate(q_expr, t), t,
                  "on a dense part")
    return _sqrt_q(q_expr, t)


def phase_value(table: PhaseTable, t: float) -> float:
    """phi(t): the value ``solve_phi`` stored at the right end of a
    segment (a scattered point, or t0 + T), else sqrt(q(t)) on a dense
    part. The system is the one the table's sample records."""
    spec = table.sample.spec
    i, t = spec.ts.locate(t)
    if t == spec.ts.ends[i]:
        return float(table.ends[i])  # a Python float, as the walk's are
    return _checked_sqrt_q(spec.q, t)


def phi_delta(table: PhaseTable, t: float) -> float:
    """Delta derivative of phi: difference quotient at scattered t,
    q'(t) / (2 sqrt(q(t))) at dense t."""
    spec = table.sample.spec
    ts = spec.ts
    _, t = ts.locate(t)
    mu = mu_at(ts, t)
    if mu > 0 and t != ts.t_end:
        return (phase_value(table, t + mu) - phase_value(table, t)) / mu
    sqrt_q = _checked_sqrt_q(spec.q, t)
    return expr_reference.evaluate(spec.qprime, t) / (2.0 * sqrt_q)


def h_fn(spec: SystemSpec, table: PhaseTable, t: float) -> float:
    """Perturbation coefficient h(t) = -p(t) - phi^D(t) / phi(t)."""
    return -p_at(spec, t) - phi_delta(table, t) / phase_value(table, t)


def kernel_P(spec: SystemSpec, table: PhaseTable, t: float, s: float) -> float:
    """P(t, s) = sin_phi(t, sigma(s)) / phi(sigma(s))."""
    ss = sigma_at(spec.ts, s)
    phi = partial(phase_value, table)
    return (
        sin_phi(phi, t, ss, spec.ts, tscalc._QUAD_TOL)
        / phase_value(table, ss)
    )


def kernel_Q(spec: SystemSpec, table: PhaseTable, t: float, s: float) -> float:
    """Q(t, s) = phi(t) cos_phi(t, sigma(s)) / phi(sigma(s))."""
    ss = sigma_at(spec.ts, s)
    phi = partial(phase_value, table)
    return (
        phase_value(table, t)
        * cos_phi(phi, t, ss, spec.ts, tscalc._QUAD_TOL)
        / phase_value(table, ss)
    )
