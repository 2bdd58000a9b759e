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
contributions at scattered points. The dense cells are the rows of one
stacked (cells, nodes) array, so each order makes one cumulative Simpson
call per running integral whatever the number of cells; a scalar walk
over the cells and jumps in time order then carries the running offsets.
The grid owns its Simpson weights: ``simpson_weights`` computes them once
per grid, and each running integral is then a few array products and one
cumulative sum, equal bit for bit to SciPy's ``cumulative_simpson``.
On a purely discrete scale there are only jumps, so the same level
recursion is exact up to rounding and costs O(n k) for k scattered points.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

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
from .timescale import Interval, ValidatedTimeScale

class PhiDiscontinuityWarning(UserWarning):
    """phi does not match sqrt(q) where a dense interval meets its
    scattered right endpoint; the computation still proceeds."""


_PHI_MIN = 1e-14
_GRID_DIVISIONS = 4096
_BOUNDS_GRID = 512
_BOUNDS_ROWS = 64
_TINY = np.finfo(float).tiny
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


def validate_system(spec: SystemSpec) -> None:
    """Check regressivity and the sign conditions on q at scattered points."""
    ts = spec.ts
    for t, mu in ts.scattered_with_mu():
        p, q = spec.p_at(t), spec.q_at(t)
        if abs(1.0 - mu * p + mu * mu * q) <= 1e-12:
            raise NotRegressive(f"1 - mu*p + mu^2*q vanishes at t={t}")
        if abs(q) <= _PHI_MIN:
            raise PhiVanishes(f"q(t)=0 at scattered t={t}")


def _sqrt_q(q_expr: ex.Expression, t: float) -> float:
    """sqrt(q(t)), the value of phi on a dense part."""
    q = ex.evaluate(q_expr, t)
    if q <= 0:
        raise NegativeQOnDense(f"q({t}) = {q} <= 0 on a dense part")
    return math.sqrt(q)


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
        return _sqrt_q(self.q, t)


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

    last_interval = max(i for i, s in enumerate(segs) if isinstance(s, Interval))

    # runs that terminate at a dense left endpoint
    for i in range(last_interval - 1, -1, -1):
        c, succ = segs[i].end, segs[i + 1].start
        phi_succ = values[succ] if succ in values else _sqrt_q(spec.q, succ)
        values[c] = _check_phi(spec.q_at(c) / phi_succ, c)

    phi0 = values[ts.t0] if ts.t0 in values else _sqrt_q(spec.q, ts.t0)
    values[ts.t_end] = _check_phi(phi0, ts.t_end)

    # trailing run after the last dense interval, wrapped through t0+T
    for i in range(len(segs) - 2, last_interval - 1, -1):
        c, succ = segs[i].end, segs[i + 1].start
        values[c] = _check_phi(spec.q_at(c) / values[succ], c)

    # phi may be discontinuous where a dense interval meets its scattered
    # right endpoint; the computation proceeds, but the user is told. The
    # dense limit is read just inside the interval, as _sample_dense does,
    # because q(b) itself may be an isolated-point redefinition
    for a, b in ts.dense_intervals():
        stored = values.get(b)
        if stored is None:
            continue
        limit = _sqrt_q(spec.q, b - (b - a) * 1e-9)
        if abs(stored - limit) > 1e-6:
            warnings.warn(
                f"phi is discontinuous at t={b}: chain value "
                f"{stored} vs dense limit {limit}",
                PhiDiscontinuityWarning,
                stacklevel=2,
            )
    return table


def compute_B(spec: SystemSpec) -> float:
    """Multiplier product B = e_{-p + mu q}(t0+T, t0) by Liouville's
    formula: the product of 1 - mu p + mu^2 q over the scattered points
    times exp(-integral of p) over the dense intervals, in time order."""
    ts = spec.ts
    prod = 1.0
    for t, mu in ts.scattered_with_mu():
        factor = 1.0 + mu * (-spec.p_at(t) + mu * spec.q_at(t))
        if abs(factor) < 1e-14:
            raise NotRegressive(f"1 - mu*p + mu^2*q vanishes at t={t}")
        prod *= factor
    integral = 0.0
    for a, b in ts.dense_intervals():
        integral += tscalc._adaptive_quad(lambda t: -spec.p_at(t), a, b,
                                          spec.quad_tol)
    return float(prod * math.exp(integral))


# -- series engine ----------------------------------------------------------

def _sample_dense(spec: SystemSpec, cells: list):
    """The dense cells ``[(a, b, n), ...]``, ascending with n even, sampled
    as one stacked grid: row c holds the n + 1 equally spaced nodes of cell
    c, padded past its last node to the longest row.

    Returns (x, phi, h, last): (cells, nodes) arrays of the nodes, of
    phi = sqrt(q) and of the perturbation coefficient h = -p - q' / (2 q)
    for that phi, and each row's last node index. Padded nodes keep x
    increasing and hold phi = 1, h = 0; as every n is even, Simpson never
    carries them into a real node. Each expression is evaluated once, on
    the real nodes of all cells in time order. A row that does not strictly
    increase raises InvalidSegment naming the first such cell, and a NaN or
    infinite coefficient value raises DomainError naming the first node.
    """
    last = [n for _, _, n in cells]
    width = max(last) + 1
    a, b, n = np.array(cells).T
    # node k is a + k (b - a) / n, as np.linspace computes it
    x = np.arange(float(width)) * ((b - a) / n)[:, None] + a[:, None]
    tip = (range(len(cells)), last)
    x[tip] = b
    # an interval shorter than its grid steps at the float spacing repeats
    # nodes; it is named before any coefficient is evaluated
    stalled = np.any(np.diff(x, axis=1) <= 0, axis=1)
    if stalled.any():
        lo, hi, m = cells[int(np.argmax(stalled))]
        raise InvalidSegment(f"interval [{lo}, {hi}] is too short for its "
                             f"{m} grid steps at the float spacing")
    # endpoint samples are nudged inward: coefficient values on a dense
    # part are one-sided limits, and isolated-point redefinitions live
    # exactly on the segment boundary
    eps = (b - a) * 1e-9
    xe = x.copy()
    xe[:, 0] += eps
    xe[tip] -= eps
    real = np.arange(width) <= n[:, None]
    xe = xe[real]
    q = _finite("q", ex.evaluate_array(spec.q, xe), xe)
    if np.any(q <= 0):
        # named by the minimum of the first cell, in time order, that fails
        ends = np.cumsum([m + 1 for m in last])
        c = int(np.searchsorted(ends, np.argmax(q <= 0), side="right"))
        lo = ends[c] - last[c] - 1
        bad = xe[lo + np.argmin(q[lo:ends[c]])]
        raise NegativeQOnDense(f"q({bad}) <= 0 on a dense part")
    p = _finite("p", ex.evaluate_array(spec.p, xe), xe)
    qp = _finite("qprime", ex.evaluate_array(spec.qprime, xe), xe)
    phi, h = np.sqrt(q), -p - qp / (2.0 * q)
    phi_rows, h_rows = np.ones(x.shape), np.zeros(x.shape)
    phi_rows[real] = phi
    h_rows[real] = h
    return x, phi_rows, h_rows, last


def _finite(name: str, values, x):
    """values, unless one is NaN or infinite: then DomainError naming the
    coefficient and the first such node."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"{name} = {values[i]} is not finite at t={x[i]} "
                          "on a dense part")
    return values


def simpson_weights(x):
    """The cumulative Simpson weights of the grid x (odd node count >= 3,
    strictly increasing along the last axis; 2-D for a stack of rows).

    Returns ((w, c1, c2, c3) for the even subintervals, (w, c1, c2, c3)
    for the odd ones), each with one value per pair of subintervals.
    Subinterval 2m is integrated forward over nodes 2m, 2m + 1, 2m + 2
    with x21 = dx[2m], x32 = dx[2m + 1]; subinterval 2m + 1 over the same
    nodes backward, with x21 = dx[2m + 1], x32 = dx[2m]. The coefficients are
    SciPy's unequal-interval ones, x21 / 6 and 3 - x21/x31,
    3 + x21^2/(x31 x32) + x21/x31, -x21^2/(x31 x32), in its operation order,
    so ``cumulative_simpson`` reproduces its values bit for bit.
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

    return (coefficients(dx[..., 0::2], dx[..., 1::2]),
            coefficients(dx[..., 1::2], dx[..., 0::2]))


def cumulative_simpson(y, weights):
    """Running Simpson integrals of y along its last axis, 0 at the first
    node, on the grid whose ``simpson_weights`` are given: SciPy's
    ``cumulative_simpson(y, x=x, initial=0.0)``, bit for bit."""
    (w, c1, c2, c3), (v, d1, d2, d3) = weights
    f0, f1, f2 = y[..., 0:-2:2], y[..., 1:-1:2], y[..., 2::2]
    out = np.empty(y.shape, dtype=np.result_type(y, 1.0))
    out[..., 0] = 0.0
    run = out[..., 1:]
    run[..., 0::2] = w * (c1 * f0 + c2 * f1 + c3 * f2)
    run[..., 1::2] = v * (d1 * f2 + d2 * f1 + d3 * f0)
    np.cumsum(run, axis=-1, out=run)
    run += 0.0  # as SciPy's initial=0.0 does: -0.0 becomes 0.0
    return out


class _Jump:
    """One right-scattered point t with graininess mu and, as scalars, the
    fields a dense row holds per node: phi(t), E before the point's own
    step, h(t) and D = phi(sigma(t)) E(sigma(t)); also the level weight
    W = h / D and E_after = E(sigma(t))."""

    __slots__ = ("mu", "phi", "E", "h", "D", "W", "E_after")

    def __init__(self, spec, table, t, mu, E):
        self.mu = mu
        self.phi = table.value(t)
        phi_sigma = table.value(t + mu)
        self.h = -spec.p_at(t) - (phi_sigma - self.phi) / (mu * self.phi)
        self.E = E
        self.E_after = (1.0 + 1j * mu * self.phi) * E
        self.D = phi_sigma * self.E_after
        self.W = self.h / self.D


class _SeriesEngine:
    """Precomputed grids for evaluating the series terms A_n.

    The dense cells are the rows of one stacked (cells, nodes) grid that
    holds x, phi, h, the complex phase factor E(t) = e_{i phi}(t, t0) and
    D = phi E (sigma(t) = t there); the scattered points are scalar
    ``_Jump``s with the same fields. Each series order is two running
    integrals of W = h / D against the previous level: one Simpson call
    over the whole stack for each, then a scalar walk over cells and jumps
    in time order that carries the running offsets, adding a cell's row
    total or a jump's exact mu W g step, and broadcasts them onto the rows.
    State is per-instance, never shared.
    """

    def __init__(self, spec: SystemSpec, table: PhaseTable,
                 divisions: int = _GRID_DIVISIONS):
        self.spec = spec
        self.table = table
        ts = spec.ts
        spacing = ts.period / divisions
        cells = []
        for a, b in ts.dense_intervals():
            n = max(16, int(math.ceil((b - a) / spacing)))
            cells.append((a, b, n + n % 2))
        self.rows = len(cells)
        if cells:
            self.x, self.phi, self.h, self.last = _sample_dense(spec, cells)
            self.weights = simpson_weights(self.x)
            U = np.exp(1j * cumulative_simpson(self.phi, self.weights))
            self.E = np.empty_like(U)
        self.events = []  # dense row index | _Jump, in time order
        self.jumps = []
        E = 1.0 + 0.0j
        row = 0
        for seg, step in ts.steps():
            if isinstance(seg, Interval):
                # E carries on from the row's last node: the scalar product
                # E * U[row, last] would round differently
                np.multiply(E, U[row], out=self.E[row])
                E = self.E[row, self.last[row]]
                self.events.append(row)
                row += 1
            if step is not None:
                jump = _Jump(spec, table, *step, E)
                self.events.append(jump)
                self.jumps.append(jump)
                E = jump.E_after
        if cells:
            self.D = self.phi * self.E
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
        # seeds: G_0 = phi sin_phi, H_0 = phi cos_phi, on the rows and at
        # the jumps
        if self.rows:
            W = self.h / self.D
            G = self.phi * self.E.imag
            H = self.phi * self.E.real
            last = self.last
            # the running offsets of the J and K integrals at each row
            offJ, offK = np.empty((2, self.rows, 1), dtype=complex)
        Gj = [ev.phi * ev.E.imag for ev in self.jumps]
        Hj = [ev.phi * ev.E.real for ev in self.jumps]
        ratio = self.phiT / self.phi0
        for level in range(1, n + 1):
            if self.rows:
                SJ = cumulative_simpson(W * G, self.weights)
                SK = cumulative_simpson(W * H, self.weights)
            accJ = 0.0 + 0.0j
            accK = 0.0 + 0.0j
            at_jumps = zip(Gj, Hj)
            Gj, Hj = [], []
            for ev in self.events:
                if isinstance(ev, _Jump):
                    g, h = next(at_jumps)
                    # running value excludes the jump at the point itself
                    Gj.append(ev.phi * (ev.E * accJ).real)
                    Hj.append(ev.phi * (ev.E * accK).real)
                    accJ = accJ + ev.mu * ev.W * g
                    accK = accK + ev.mu * ev.W * h
                else:
                    offJ[ev] = accJ
                    offK[ev] = accK
                    accJ = accJ + SJ[ev, last[ev]]
                    accK = accK + SK[ev, last[ev]]
            # + 0.0 turns the -0.0 of a terminated discrete series into 0.0
            out.append(
                -(self.E_T * accJ).imag + ratio * (self.E_T * accK).real + 0.0
            )
            if self.rows and level < n:  # the last order needs only totals
                G = self.phi * (self.E * (offJ + SJ)).real
                H = self.phi * (self.E * (offK + SK)).real
        return out

    # -- supremum grids for the truncation bound ---------------------------

    # on long periods E overflows and the tables hold inf and NaN;
    # error_bound reads a NaN constant as an infinite bound
    @np.errstate(invalid="ignore", over="ignore")
    def bound_constants(self):
        """(K1, K2, K3): grid suprema of |h(t,s)|, |Q(t,s)|, |h(t)|.

        K2 is the maximum of |Re(u_t M_s)| and K1 of |a_t QT_s - b_t PT_s|
        over every pair (t, s) of nodes and jumps, a 2-D dot product per
        pair. By Cauchy-Schwarz each float entry is at most
        rn[t] cn[s] (1 + 1e-12), with rn = |u_t|, cn = |M_s| for K2 and
        rn = hypot(a_t, b_t), cn = hypot(QT_s, PT_s) for K1; the 1e-12
        slack covers the few roundings of the entry and of rn and cn.
        ``_pruned_max`` takes the largest entry of the row at argmax rn
        and of the column at argmax cn as a lower bound lo, keeps only the
        rows and columns whose bound reaches lo and reduces that sub-table:
        every pair left out is below lo, itself a table entry, so K1 and
        K2 equal the full tables' maxima bit for bit. Nothing is pruned
        when max(rn) max(cn) is not finite (an overflowed E, whose NaN
        must reach the bound) or lo is below the smallest normal float,
        where rounding is no longer relative.
        """
        stack = (self.phi, self.E, self.h, 1.0 / self.D) if self.rows else ()
        # phi, E, h and 1 / D at every node and jump, in time order
        nodes = [(ev.phi, ev.E, ev.h, 1.0 / ev.D) if isinstance(ev, _Jump)
                 else [a[ev, :self.last[ev] + 1] for a in stack]
                 for ev in self.events]
        phi_t, E_t, h_t, M_s = zip(*nodes)
        phi_t = np.hstack(phi_t + (self.phiT,))
        E_t = np.hstack(E_t + (self.E_T,))
        h_t = np.hstack(h_t)
        M_s = np.hstack(M_s + (1.0 / (self.phiT * self.E_T),))

        K3 = float(np.max(np.abs(h_t)))
        QT = self.phiT * (self.E_T * M_s).real
        PT = (self.E_T * M_s).imag
        u_t = phi_t * E_t
        a_t = E_t.real * phi_t / self.phi0
        b_t = E_t.imag * phi_t
        K2 = _pruned_max(lambda u, M: np.outer(u, M).real,
                         (u_t,), (M_s,), np.abs(u_t), np.abs(M_s))
        K1 = _pruned_max(lambda a, b, Q, P: np.outer(a, Q) - np.outer(b, P),
                         (a_t, b_t), (QT, PT),
                         np.hypot(a_t, b_t), np.hypot(QT, PT))
        return K1, K2, K3


def _pruned_max(table, rows, cols, rn, cn) -> float:
    """max |table(*rows, *cols)|, the row operands indexed by t and the
    column operands by s, where |table(t, s)| <= rn[t] cn[s] (1 + 1e-12):
    rows and columns whose bound falls below an entry already seen are
    left out. The table is reduced a block of rows at a time, so memory
    stays O(N) for long periods."""
    rmax, cmax = rn.max(), cn.max()
    # one block of rows costs less than finding the ones to keep
    if len(rn) > _BOUNDS_ROWS and math.isfinite(rmax * cmax):
        i, j = rn.argmax(), cn.argmax()
        lo = np.maximum(
            np.abs(table(*[a[i:i + 1] for a in rows], *cols)).max(),
            np.abs(table(*rows, *[a[j:j + 1] for a in cols])).max())
        if lo >= _TINY:
            keep_t = rn * cmax * (1.0 + 1e-12) >= lo
            keep_s = cn * rmax * (1.0 + 1e-12) >= lo
            rows = [a[keep_t] for a in rows]
            cols = [a[keep_s] for a in cols]
    return float(np.max([
        np.abs(table(*[a[i:i + _BOUNDS_ROWS] for a in rows], *cols)).max()
        for i in range(0, len(rows[0]), _BOUNDS_ROWS)]))


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
    n >= k. When e^z or z^k is beyond the float range, or a bound constant
    or the tail is NaN, the bound is infinite, which leaves the verdict
    undetermined unless B decides it.
    """
    ts = spec.ts
    if ts.is_discrete and n >= len(ts.scattered_with_mu()):
        return ErrorBound(0.0, exact=True)
    K1, K2, K3 = estimate_bounds(spec, table)
    if any(math.isnan(k) for k in (K1, K2, K3)):
        return ErrorBound(math.inf)
    if K2 <= _PHI_MIN or K3 == 0.0:
        return ErrorBound(0.0, exact=True)
    z = K2 * K3 * ts.period
    try:
        partial = math.fsum(z ** k / math.factorial(k) for k in range(n + 1))
        tail = math.exp(z) - partial
    except OverflowError:
        return ErrorBound(math.inf)
    bound = (K1 / K2) * tail
    if math.isnan(bound):  # a NaN tail, or inf / inf
        return ErrorBound(math.inf)
    return ErrorBound(max(0.0, bound))


def shi_continuous_a(spec: SystemSpec, n: int,
                     B: Optional[float] = None) -> float:
    """A(n) on a purely continuous scale with B = 1, via the cosine-phase
    form of the series.

    ``n`` counts integration levels the way the reference computation
    does: the 2m-fold integrals for 2m <= n contribute, odd levels are
    identically zero. ``B`` is ``compute_B(spec)`` when the caller has it
    already; the scale is checked first either way.
    """
    ts = spec.ts
    if not ts.is_continuous:
        raise NotContinuousScale("the phase-form series needs a purely "
                                 "continuous scale")
    if B is None:
        B = compute_B(spec)
    if abs(B - 1.0) > 1e-9:
        raise BNotOne(f"B = {B} differs from 1 beyond 1e-9")
    if n > 2 * _MAX_DEPTH_DENSE:
        raise DepthBudgetExceeded(f"n={n} exceeds the depth budget")

    a, b = ts.dense_intervals()[0]
    npts = 8192
    x, sqrtq, h = (r[0] for r in _sample_dense(spec, [(a, b, npts)])[:3])
    weights = simpson_weights(x)
    phase = cumulative_simpson(sqrtq, weights)
    u = np.exp(-2j * phase)  # e^{-2i Phi(t)}
    outer_phase = cmath.exp(1j * phase[-1])

    total = 2.0 * math.cos(phase[-1])
    F = np.ones(npts + 1, dtype=complex)
    for level in range(1, n + 1):
        factor = h / u if level % 2 == 1 else h * u
        F = cumulative_simpson(factor * F, weights)
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
    if math.isnan(llo) and abs(B) > 1.0:  # B overflowed, the moduli are NaN
        return Verdict.UNSTABLE, "|B| > 1 forces a multiplier modulus above 1"
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
        A = shi_continuous_a(spec, n, B)
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
