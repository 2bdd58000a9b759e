"""Floquet multiplier series and the certified stability verdict.

Computes, for x^DD + p(t) x^D + q(t) x = 0 on a periodic time scale:

* the phase function phi solving phi(sigma(t)) phi(t) = q(t),
* the multiplier sum A as a convergent series A = sum_n A_n of nested
  delta integrals, truncated at order n with a rigorous tail bound,
* the multiplier product B by Liouville's formula,
* modulus intervals for the two multipliers and a stability verdict that
  accounts for the truncation error.

The nested integrals are never evaluated as literal n-fold quadratures.
On every scale the series is folded into two one-dimensional running
delta integrals per order: writing E(t) = e_{i phi}(t, t0), the kernels
P, Q become real/imaginary parts of E(t) / E(sigma(s)), so each
integration level is a cumulative integral of
W(s) = h(s) / (phi(sigma(s)) E(sigma(s))) against the previous level,
evaluated on a fixed refinement grid (spacing <= T/4096) plus exact jump
contributions at scattered points. On a purely discrete scale there are
only jumps, so the same level recursion is exact up to rounding and costs
O(n k) for k scattered points.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from . import expr as ex
from . import tscalc
from .errors import (
    BNotOne,
    DepthBudgetExceeded,
    NegativeQOnDense,
    NotContinuousScale,
    NotRegressive,
    PhiVanishes,
)
from .timescale import Interval, Point, ValidatedTimeScale

class PhiDiscontinuityWarning(UserWarning):
    """phi does not match sqrt(q) where a dense interval meets its
    scattered right endpoint; the computation still proceeds."""


_PHI_MIN = 1e-14
_GRID_DIVISIONS = 4096
_BOUNDS_GRID = 512
_BOUNDS_ROWS = 64
_MAX_DEPTH_DENSE = 8


@dataclass
class SystemSpec:
    """The analyzed system: time scale, coefficients and tolerances."""

    ts: ValidatedTimeScale
    p: ex.Expression
    q: ex.Expression
    qprime: Optional[ex.Expression] = None
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.qprime is None:
            self.qprime = ex.differentiate(self.q)

    def p_at(self, t: float) -> float:
        return ex.evaluate(self.p, t)

    def q_at(self, t: float) -> float:
        return ex.evaluate(self.q, t)

    def qprime_at(self, t: float) -> float:
        return ex.evaluate(self.qprime, t)


def validate_system(spec: SystemSpec) -> None:
    """Check regressivity and the sign conditions on q at scattered points."""
    ts = spec.ts
    for t, mu in ts.scattered_with_mu():
        p, q = spec.p_at(t), spec.q_at(t)
        if abs(1.0 - mu * p + mu * mu * q) <= 1e-12:
            raise NotRegressive(f"1 - mu*p + mu^2*q vanishes at t={t}")
        if abs(q) <= _PHI_MIN:
            raise PhiVanishes(f"q(t)=0 at scattered t={t}")


@dataclass
class PhaseTable:
    """phi at the scattered points plus the sqrt(q) rule on dense parts."""

    ts: ValidatedTimeScale
    q: ex.Expression
    qprime: ex.Expression
    values: dict = field(default_factory=dict)  # scattered coord (and t0+T) -> phi

    def value(self, t: float) -> float:
        _, t = self.ts.locate(t)
        if t in self.values:
            return self.values[t]
        q = ex.evaluate(self.q, t)
        if q <= 0:
            raise NegativeQOnDense(f"q({t}) = {q} <= 0 on a dense part")
        return math.sqrt(q)


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
    scattered run ending at the left endpoint of a dense interval is
    back-substituted from sqrt(q) there; scattered points after the last
    dense interval are back-substituted from phi(t0+T) = phi(t0).
    """
    ts = spec.ts
    table = PhaseTable(ts, spec.q, spec.qprime)
    values = table.values
    segs = ts.segments

    if ts.is_discrete:
        chain = [s.x for s in segs]
        if seed is None:
            seed = math.sqrt(abs(spec.q_at(chain[0])))
        phi = _check_phi(float(seed), chain[0])
        values[chain[0]] = phi
        for c, nxt in zip(chain, chain[1:]):
            phi = _check_phi(spec.q_at(c) / phi, nxt)
            values[nxt] = phi
        return table

    def sqrt_q(t: float) -> float:
        q = spec.q_at(t)
        if q <= 0:
            raise NegativeQOnDense(f"q({t}) = {q} <= 0 on a dense part")
        return math.sqrt(q)

    def seg_end(s):
        return s.x if isinstance(s, Point) else s.b

    def seg_start(s):
        return s.x if isinstance(s, Point) else s.a

    last_interval = max(i for i, s in enumerate(segs) if isinstance(s, Interval))

    # runs that terminate at a dense left endpoint
    for i in range(last_interval - 1, -1, -1):
        c = seg_end(segs[i])
        succ = seg_start(segs[i + 1])
        phi_succ = values[succ] if succ in values else sqrt_q(succ)
        values[c] = _check_phi(spec.q_at(c) / phi_succ, c)

    phi0 = values[ts.t0] if ts.t0 in values else sqrt_q(ts.t0)
    values[ts.t_end] = _check_phi(phi0, ts.t_end)

    # trailing run after the last dense interval, wrapped through t0+T
    for i in range(len(segs) - 2, last_interval - 1, -1):
        c = seg_end(segs[i])
        succ = seg_start(segs[i + 1])
        values[c] = _check_phi(spec.q_at(c) / values[succ], c)

    # phi may be discontinuous where a dense interval meets its scattered
    # right endpoint; the computation proceeds, but the user is told
    for seg in segs:
        if isinstance(seg, Interval):
            stored = values.get(seg.b)
            if stored is not None and abs(stored - sqrt_q(seg.b)) > 1e-6:
                warnings.warn(
                    f"phi is discontinuous at t={seg.b}: chain value "
                    f"{stored} vs dense limit {sqrt_q(seg.b)}",
                    PhiDiscontinuityWarning,
                    stacklevel=2,
                )
    return table


def phi_delta(table: PhaseTable, t: float) -> float:
    """Delta derivative of phi: difference quotient at scattered t,
    q'(t) / (2 sqrt(q(t))) at dense t."""
    ts = table.ts
    _, t = ts.locate(t)
    mu = ts.mu(t)
    if mu > 0 and t != ts.t_end:
        return (table.value(t + mu) - table.value(t)) / mu
    q = ex.evaluate(table.q, t)
    if q <= 0:
        raise NegativeQOnDense(f"q({t}) = {q} <= 0 on a dense part")
    return ex.evaluate(table.qprime, t) / (2.0 * math.sqrt(q))


def h_fn(spec: SystemSpec, table: PhaseTable, t: float) -> float:
    """Perturbation coefficient h(t) = -p(t) - phi^D(t) / phi(t)."""
    return -spec.p_at(t) - phi_delta(table, t) / table.value(t)


def kernel_P(spec: SystemSpec, table: PhaseTable, t: float, s: float) -> float:
    """P(t, s) = sin_phi(t, sigma(s)) / phi(sigma(s))."""
    ss = spec.ts.sigma(s)
    return (
        tscalc.sin_phi(table.value, t, ss, spec.ts, spec.quad_tol)
        / table.value(ss)
    )


def kernel_Q(spec: SystemSpec, table: PhaseTable, t: float, s: float) -> float:
    """Q(t, s) = phi(t) cos_phi(t, sigma(s)) / phi(sigma(s))."""
    ss = spec.ts.sigma(s)
    return (
        table.value(t)
        * tscalc.cos_phi(table.value, t, ss, spec.ts, spec.quad_tol)
        / table.value(ss)
    )


def compute_B(spec: SystemSpec) -> float:
    """Multiplier product B = e_{-p + mu q}(t0+T, t0) (Liouville)."""
    ts = spec.ts

    def g(t: float) -> float:
        return -spec.p_at(t) + ts.mu(t) * spec.q_at(t)

    return float(tscalc.ts_exponential(g, ts.t_end, ts.t0, ts, spec.quad_tol))


# -- series engine ----------------------------------------------------------

def _sample_dense(spec: SystemSpec, a: float, b: float, n: int):
    """(x, sqrt(q), h) on the n + 1 equally spaced nodes x of [a, b],
    where h = -p - q' / (2 q) is the perturbation coefficient for
    phi = sqrt(q)."""
    x = np.linspace(a, b, n + 1)
    # endpoint samples are nudged inward: coefficient values on a dense
    # part are one-sided limits, and isolated-point redefinitions live
    # exactly on the segment boundary
    xe = x.copy()
    eps = (b - a) * 1e-9
    xe[0] += eps
    xe[-1] -= eps
    q = np.array([spec.q_at(t) for t in xe])
    if np.any(q <= 0):
        bad = xe[np.argmin(q)]
        raise NegativeQOnDense(f"q({bad}) <= 0 on a dense part")
    p = np.array([spec.p_at(t) for t in xe])
    qp = np.array([spec.qprime_at(t) for t in xe])
    return x, np.sqrt(q), -p - qp / (2.0 * q)


class _DenseCell:
    """One dense interval with its refinement grid and cached samples."""

    __slots__ = ("x", "sqrtq", "h", "E", "W")

    def __init__(self, spec: SystemSpec, a: float, b: float, E0: complex,
                 divisions: int):
        spacing = spec.ts.period / divisions
        n = max(16, int(math.ceil((b - a) / spacing)))
        n += n % 2
        self.x, self.sqrtq, self.h = _sample_dense(spec, a, b, n)
        phase = _cumint(self.sqrtq, self.x)
        self.E = E0 * np.exp(1j * phase)
        self.W = self.h / (self.sqrtq * self.E)


class _Jump:
    """One right-scattered point."""

    __slots__ = ("t", "mu", "phi", "phi_sigma", "h", "E_before", "E_after", "W")

    def __init__(self, spec, table, t, mu, E_before):
        self.t = t
        self.mu = mu
        self.phi = table.value(t)
        self.phi_sigma = table.value(t + mu)
        self.h = -spec.p_at(t) - (self.phi_sigma - self.phi) / (mu * self.phi)
        self.E_before = E_before
        factor = 1.0 + 1j * mu * self.phi
        self.E_after = factor * E_before
        self.W = self.h / (self.phi_sigma * self.E_after)


def _cumint(y, x):
    """Cumulative integral of samples y over nodes x, starting at 0."""
    if np.iscomplexobj(y):
        return (
            cumulative_simpson(y.real, x=x, initial=0.0)
            + 1j * cumulative_simpson(y.imag, x=x, initial=0.0)
        )
    return cumulative_simpson(y, x=x, initial=0.0)


class _SeriesEngine:
    """Precomputed grids for evaluating the series terms A_n.

    Walks the period once, carrying the complex phase factor
    E(t) = e_{i phi}(t, t0) across dense cells and scattered jumps; each
    series order is then two cumulative integrals over the same grid.
    State is per-instance, never shared.
    """

    def __init__(self, spec: SystemSpec, table: PhaseTable,
                 divisions: int = _GRID_DIVISIONS):
        self.spec = spec
        self.table = table
        ts = spec.ts
        self.events = []  # ("cell", _DenseCell) | ("jump", _Jump)
        E = 1.0 + 0.0j
        scattered = dict(ts.scattered_with_mu())
        for i, seg in enumerate(ts.segments):
            if isinstance(seg, Interval):
                cell = _DenseCell(spec, seg.a, seg.b, E, divisions)
                self.events.append(("cell", cell))
                E = cell.E[-1]
            end = seg.x if isinstance(seg, Point) else seg.b
            if i < len(ts.segments) - 1:
                jump = _Jump(spec, table, end, scattered[end], E)
                self.events.append(("jump", jump))
                E = jump.E_after
        self.E_T = E
        self.phi0 = table.value(ts.t0)
        self.phiT = table.value(ts.t_end)

    def term0(self) -> float:
        return (1.0 + self.phiT / self.phi0) * self.E_T.real

    def terms(self, n: int) -> list:
        """[A_0, ..., A_n] by the level recursion."""
        out = [self.term0()]
        if n == 0:
            return out
        # seeds: G_0 = phi sin_phi, H_0 = phi cos_phi
        G, H = [], []
        for kind, ev in self.events:
            if kind == "cell":
                G.append(ev.sqrtq * ev.E.imag)
                H.append(ev.sqrtq * ev.E.real)
            else:
                G.append(ev.phi * ev.E_before.imag)
                H.append(ev.phi * ev.E_before.real)
        ratio = self.phiT / self.phi0
        for _ in range(n):
            accJ = 0.0 + 0.0j
            accK = 0.0 + 0.0j
            J, K = [], []
            newG, newH = [], []
            for (kind, ev), g, h in zip(self.events, G, H):
                if kind == "cell":
                    cumJ = accJ + _cumint(ev.W * g, ev.x)
                    cumK = accK + _cumint(ev.W * h, ev.x)
                    accJ = cumJ[-1]
                    accK = cumK[-1]
                    newG.append(ev.sqrtq * (ev.E * cumJ).real)
                    newH.append(ev.sqrtq * (ev.E * cumK).real)
                else:
                    # running value excludes the jump at the point itself
                    newG.append(ev.phi * (ev.E_before * accJ).real)
                    newH.append(ev.phi * (ev.E_before * accK).real)
                    accJ = accJ + ev.mu * ev.W * g
                    accK = accK + ev.mu * ev.W * h
            out.append(
                -(self.E_T * accJ).imag + ratio * (self.E_T * accK).real
            )
            G, H = newG, newH
        return out

    # -- supremum grids for the truncation bound ---------------------------

    def bound_constants(self):
        """(K1, K2, K3): grid suprema of |h(t,s)|, |Q(t,s)|, |h(t)|."""
        phis, Es, hs, Ms = [], [], [], []
        for kind, ev in self.events:
            if kind == "cell":
                phis.append(ev.sqrtq)
                Es.append(ev.E)
                hs.append(ev.h)
                Ms.append(1.0 / (ev.sqrtq * ev.E))
            else:
                phis.append(np.array([ev.phi]))
                Es.append(np.array([ev.E_before]))
                hs.append(np.array([ev.h]))
                Ms.append(np.array([1.0 / (ev.phi_sigma * ev.E_after)]))
        phi_t = np.concatenate(phis + [np.array([self.phiT])])
        E_t = np.concatenate(Es + [np.array([self.E_T])])
        h_t = np.concatenate(hs)
        M_s = np.concatenate(Ms + [np.array([1.0 / (self.phiT * self.E_T)])])

        K3 = float(np.max(np.abs(h_t)))
        QT = self.phiT * (self.E_T * M_s).real
        PT = (self.E_T * M_s).imag
        u_t = phi_t * E_t
        a_t = E_t.real * phi_t / self.phi0
        b_t = E_t.imag * phi_t
        # the N x N tables are reduced a block of rows at a time, so memory
        # stays O(N) for long discrete periods
        blocks = [slice(i, i + _BOUNDS_ROWS)
                  for i in range(0, len(u_t), _BOUNDS_ROWS)]
        K2 = float(np.max([np.abs(np.outer(u_t[r], M_s).real).max()
                           for r in blocks]))
        K1 = float(np.max([
            np.abs(np.outer(a_t[r], QT) - np.outer(b_t[r], PT)).max()
            for r in blocks]))
        return K1, K2, K3


def _series_terms(spec: SystemSpec, table: PhaseTable, n: int) -> list:
    if n < 0:
        raise ValueError("n must be >= 0")
    if not spec.ts.is_discrete and n > _MAX_DEPTH_DENSE:
        raise DepthBudgetExceeded(
            f"n={n} exceeds the depth budget {_MAX_DEPTH_DENSE} on a "
            "non-discrete scale"
        )
    return _SeriesEngine(spec, table).terms(n)


def a_term(spec: SystemSpec, table: PhaseTable, n: int) -> float:
    """The n-th series term A_n."""
    return _series_terms(spec, table, n)[n]


def a_partial(spec: SystemSpec, table: PhaseTable, n: int) -> float:
    """The partial sum A(n) = A_0 + ... + A_n."""
    return math.fsum(_series_terms(spec, table, n))


def estimate_bounds(spec: SystemSpec, table: PhaseTable):
    """(K1, K2, K3): suprema of the two-argument kernel |h(t,s)|, of
    |Q(t,s)| and of |h(t)|, estimated on all scattered points plus dense
    grids of 512 points per period, at least 16 per dense cell."""
    return _SeriesEngine(spec, table, divisions=_BOUNDS_GRID).bound_constants()


@dataclass(frozen=True)
class ErrorBound:
    """Truncation bound for |A - A(n)|; exact=True means the series has
    terminated and the bound is identically zero."""

    value: float
    exact: bool = False


def error_bound(spec: SystemSpec, table: PhaseTable, n: int) -> ErrorBound:
    """Tail bound (K1/K2) (e^{K2 K3 T} - sum_{k<=n} (K2 K3 T)^k / k!).

    On a purely discrete scale with k scattered points the series is a
    finite sum, computed by the same level recursion as on other scales
    (exact up to rounding, O(n k) work), so the bound is exact zero once
    n >= k. When e^z or z^k is beyond the float range the bound is
    infinite, which leaves the verdict undetermined unless B decides it.
    """
    ts = spec.ts
    if ts.is_discrete and n >= len(ts.scattered_with_mu()):
        return ErrorBound(0.0, exact=True)
    K1, K2, K3 = estimate_bounds(spec, table)
    if K2 <= _PHI_MIN or K3 == 0.0:
        return ErrorBound(0.0, exact=True)
    z = K2 * K3 * ts.period
    try:
        partial = math.fsum(z ** k / math.factorial(k) for k in range(n + 1))
        tail = math.exp(z) - partial
    except OverflowError:
        return ErrorBound(math.inf)
    return ErrorBound(max(0.0, (K1 / K2) * tail))


def shi_continuous_a(spec: SystemSpec, n: int) -> float:
    """A(n) on a purely continuous scale with B = 1, via the cosine-phase
    form of the series.

    ``n`` counts integration levels the way the reference computation
    does: the 2m-fold integrals for 2m <= n contribute, odd levels are
    identically zero.
    """
    ts = spec.ts
    if not ts.is_continuous:
        raise NotContinuousScale("the phase-form series needs a purely "
                                 "continuous scale")
    B = compute_B(spec)
    if abs(B - 1.0) > 1e-9:
        raise BNotOne(f"B = {B} differs from 1 beyond 1e-9")
    if n > 2 * _MAX_DEPTH_DENSE:
        raise DepthBudgetExceeded(f"n={n} exceeds the depth budget")

    a, b = ts.dense_intervals()[0]
    npts = 8192
    x, sqrtq, h = _sample_dense(spec, a, b, npts)
    phase = _cumint(sqrtq, x)
    u = np.exp(-2j * phase)  # e^{-2i Phi(t)}
    outer_phase = cmath.exp(1j * phase[-1])

    total = 2.0 * math.cos(phase[-1])
    F = np.ones(npts + 1, dtype=complex)
    for level in range(1, n + 1):
        factor = h / u if level % 2 == 1 else h * u
        F = _cumint(factor * F, x)
        if level % 2 == 0:
            total += 2.0 ** (1 - level) * (outer_phase * F[-1]).real
    return total


# -- multipliers and verdict -------------------------------------------------

def _moduli_at(A: float, B: float):
    if math.isinf(A):
        # the roots of rho^2 - A rho + B tend to B / A -> 0 and A -> inf
        return 0.0, math.inf
    root = cmath.sqrt(complex(A * A / 4.0 - B))
    lo, hi = sorted((abs(A / 2.0 - root), abs(A / 2.0 + root)))
    return lo, hi


def multipliers(a_interval, B: float):
    """Modulus intervals (smaller, larger) of the two multipliers as A
    ranges over ``a_interval``.

    The modulus functions are piecewise monotone in A with breakpoints at
    0 and +-2 sqrt(B), so endpoint plus breakpoint evaluation is exact.
    """
    lo, hi = a_interval
    cands = [lo, hi]
    breakpoints = [0.0]
    if B > 0:
        r = 2.0 * math.sqrt(B)
        breakpoints += [r, -r]
    cands += [c for c in breakpoints if lo < c < hi]
    small, large = zip(*(_moduli_at(A, B) for A in cands))
    return (min(small), max(small)), (min(large), max(large))


class Verdict(str, Enum):
    STABLE = "stable"
    EXPONENTIALLY_STABLE = "exponentially stable"
    UNSTABLE = "unstable"
    UNDETERMINED = "undetermined"


def verdict(a_interval, B: float):
    """(Verdict, justification) for A in ``a_interval`` and exact B."""
    (slo, shi_), (llo, lhi) = multipliers(a_interval, B)
    if slo > 1.0 or llo > 1.0:
        return Verdict.UNSTABLE, (
            "a multiplier modulus interval lies entirely above 1"
        )
    if shi_ < 1.0 and lhi < 1.0:
        return Verdict.EXPONENTIALLY_STABLE, (
            "both multiplier modulus intervals lie entirely below 1"
        )
    if abs(B - 1.0) <= 1e-9 and a_interval[0] > -2.0 and a_interval[1] < 2.0:
        return Verdict.STABLE, (
            "B = 1 and the A interval lies inside (-2, 2): two distinct "
            "unit-circle multipliers"
        )
    return Verdict.UNDETERMINED, (
        "increase n or handle the unit-modulus critical case manually"
    )


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
        return len(ts.scattered_with_mu())
    return 3


def analyze(spec: SystemSpec, n: Optional[int] = None,
            use_shi: bool = False) -> FloquetReport:
    """Run the full pipeline and assemble a certified report."""
    validate_system(spec)
    ts = spec.ts
    if n is None:
        n = default_order(ts)
    table = solve_phi(spec)
    B = compute_B(spec)
    if use_shi:
        A = shi_continuous_a(spec, n)
        terms = []
        method = "phase-form"
    else:
        terms = _series_terms(spec, table, n)
        A = math.fsum(terms)
        method = "discrete" if ts.is_discrete else "series"
    err = error_bound(spec, table, n)
    interval = (A - err.value, A + err.value)
    rho = multipliers(interval, B)
    root = cmath.sqrt(complex(A * A - 4.0 * B))
    point_moduli = (abs((A - root) / 2.0), abs((A + root) / 2.0))
    v, why = verdict(interval, B)
    return FloquetReport(
        n=n,
        A_terms=list(terms),
        A_partial=A,
        B=B,
        err_bound=err,
        rho_moduli=rho,
        point_moduli=point_moduli,
        verdict=v,
        justification=why,
        method=method,
        is_discrete=ts.is_discrete,
    )
