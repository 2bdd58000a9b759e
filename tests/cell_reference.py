"""Reference for the stacked series engine on scales with dense cells.

The per-cell level loop the stacked engine replaced: each dense cell is
laid out on its own Chebyshev panels (``floquet._panel_grid`` on that cell
alone), integrates its phase and J and K at every order panel by panel,
one matrix product per panel and a running sum of the panel totals, and
the running offsets are added cell by cell. The truncation bound samples
each cell on its own uniform grid of 512 divisions per period and
integrates the phase there with SciPy's ``cumulative_simpson``. Tests
compare ``tsfloquet.floquet._SeriesEngine``'s terms and bound constants
against it for equality, since the stacked engine keeps every
floating-point operation of this loop.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import cumulative_simpson

from tsfloquet import expr as ex
from tsfloquet.errors import NegativeQOnDense
from tsfloquet.floquet import (
    _BOUND_DIVISIONS,
    _BOUNDS_ROWS,
    _INTEGRATE,
    _NODES,
    _PHASE_CUT,
    PhaseTable,
    SystemSpec,
    _float_floor,
    _panel_grid,
)
from tsfloquet.timescale import Interval

from calculus_reference import p_at, phase_value, steps


def _sample_dense(spec: SystemSpec, a: float, b: float, n: int):
    """(x, sqrt(q), h, |p| + |q' / (2 q)|) on the n + 1 equally spaced
    nodes x of [a, b], where h = -p - q' / (2 q) is the perturbation
    coefficient for phi = sqrt(q)."""
    x = np.linspace(a, b, n + 1)
    # endpoint samples are nudged inward: coefficient values on a dense
    # part are one-sided limits, and isolated-point redefinitions live
    # exactly on the segment boundary
    xe = x.copy()
    eps = (b - a) * 1e-9
    xe[0] += eps
    xe[-1] -= eps
    q = ex.evaluate_array(spec.q, xe)
    if np.any(q <= 0):
        bad = xe[np.argmin(q)]
        raise NegativeQOnDense(f"q({bad}) <= 0 on a dense part")
    p = ex.evaluate_array(spec.p, xe)
    qp = ex.evaluate_array(spec.qprime, xe)
    drift = qp / (2.0 * q)
    return x, np.sqrt(q), -p - drift, np.abs(p) + np.abs(drift)


def _panel_integrals(y, half):
    """Running integrals of y over a cell's panels, one after the other:
    each panel's real and imaginary parts are the columns of one product
    with the integration matrix, scaled by its half-width, and the sum of
    the totals of the panels before it is added."""
    out = np.empty(len(half) * _NODES, dtype=complex)
    before = None  # the panels' totals so far, as (real, imaginary)
    for k, w in enumerate(half):
        cut = slice(k * _NODES, (k + 1) * _NODES)
        panel = np.ascontiguousarray(y[cut], dtype=complex)
        local = np.matmul(_INTEGRATE, panel.view(float).reshape(_NODES, 2))
        local *= w
        total = local[-1].copy()
        if before is not None:
            local += before
            total = before + total
        before = total
        out[cut] = local.view(complex)[:, 0]
    return out if np.iscomplexobj(y) else out.real.copy()


class _DenseCell:
    """One dense interval on its own panel grid x, with the fields it
    shares per node with this module's ``_Jump`` and the engine's jump
    table: phi = sqrt(q), the phase factor E, h, D = phi E (sigma(t) = t
    here) and the level weight W = h / D. The bound's uniform grid is
    sampled first, as ``bound``: its nodes, phi and h there, and its
    Simpson phase, whose total sets the first panel count. E0 is E at the
    interval's start."""

    __slots__ = ("bound", "x", "half", "phi", "E0", "E", "h", "D", "W")

    def __init__(self, spec: SystemSpec, a: float, b: float, E0: complex):
        n = max(16, int(math.ceil((b - a) / (spec.ts.period
                                             / _BOUND_DIVISIONS))))
        x, phi, h, size = _sample_dense(spec, a, b, n + n % 2)
        phase = cumulative_simpson(phi, x=x, initial=0.0)
        self.bound = x, phi, h, phase
        turns = np.array([2.0 * phase[-1] / _PHASE_CUT])
        scales = np.array([[phi.max(), size.max()]])
        ends = np.array([a]), np.array([b])
        coefficients = ex.Forest((spec.q, spec.p, spec.qprime))
        x, phi, h, half, _, _ = _panel_grid(coefficients, *ends,
                                            _float_floor(*ends), turns, scales)
        self.x, self.phi, self.h, self.half = x[0], phi[0], h[0], half[0]
        self.E0 = E0
        self.E = E0 * np.exp(1j * _panel_integrals(self.phi, self.half))
        self.D = self.phi * self.E
        self.W = self.h / self.D


class _Jump:
    """One right-scattered point t with graininess mu and the fields of
    ``_DenseCell`` as scalars: phi(t), E before the point's own step, h(t),
    D = phi(sigma(t)) E(sigma(t)) and W = h / D; E_after = E(sigma(t))."""

    __slots__ = ("mu", "phi", "E", "h", "D", "W", "E_after")

    def __init__(self, spec, table, t, mu, E):
        self.mu = mu
        self.phi = phase_value(table, t)
        phi_sigma = phase_value(table, t + mu)
        self.h = -p_at(spec, t) - (phi_sigma - self.phi) / (mu * self.phi)
        self.E = E
        self.E_after = (1.0 + 1j * mu * self.phi) * E
        self.D = phi_sigma * self.E_after
        self.W = self.h / self.D


class CellEngine:
    """The per-cell series engine: precomputed grids for evaluating the
    series terms A_n.

    Walks the period once, carrying the complex phase factor
    E(t) = e_{i phi}(t, t0) across dense cells and scattered jumps, which
    hold their nodes' phi, E, h, D and W under the same names; each series
    order is then two running integrals over those nodes: panel by panel
    within a cell, the exact mu W step at a jump. State is per-instance,
    never shared.
    """

    def __init__(self, spec: SystemSpec, table: PhaseTable):
        self.spec = spec
        self.table = table
        ts = spec.ts
        self.events = []  # _DenseCell | _Jump, in time order
        E = 1.0 + 0.0j
        for seg, step in steps(ts):
            if isinstance(seg, Interval):
                cell = _DenseCell(spec, seg.a, seg.b, E)
                self.events.append(cell)
                E = cell.E[-1]
            if step is not None:
                jump = _Jump(spec, table, *step, E)
                self.events.append(jump)
                E = jump.E_after
        self.E_T = E
        self.phi0 = phase_value(table, ts.t0)
        self.phiT = phase_value(table, ts.t_end)

    def term0(self) -> float:
        return (1.0 + self.phiT / self.phi0) * self.E_T.real

    def terms(self, n: int) -> list:
        """[A_0, ..., A_n] by the level recursion."""
        out = [self.term0()]
        if n == 0:
            return out
        # seeds: G_0 = phi sin_phi, H_0 = phi cos_phi
        G = [ev.phi * ev.E.imag for ev in self.events]
        H = [ev.phi * ev.E.real for ev in self.events]
        ratio = self.phiT / self.phi0
        for _ in range(n):
            accJ = 0.0 + 0.0j
            accK = 0.0 + 0.0j
            newG, newH = [], []
            for ev, g, h in zip(self.events, G, H):
                if isinstance(ev, _DenseCell):
                    runJ = accJ + _panel_integrals(ev.W * g, ev.half)
                    runK = accK + _panel_integrals(ev.W * h, ev.half)
                    accJ = runJ[-1]
                    accK = runK[-1]
                else:
                    # running value excludes the jump at the point itself
                    runJ, runK = accJ, accK
                    accJ = accJ + ev.mu * ev.W * g
                    accK = accK + ev.mu * ev.W * h
                newG.append(ev.phi * (ev.E * runJ).real)
                newH.append(ev.phi * (ev.E * runK).real)
            # + 0.0 turns the -0.0 of a terminated discrete series into 0.0
            out.append(
                -(self.E_T * accJ).imag + ratio * (self.E_T * accK).real + 0.0
            )
            G, H = newG, newH
        return out

    # -- supremum grids for the truncation bound ---------------------------

    # as in the engine: on long periods E overflows and the tables hold inf
    # and NaN
    @np.errstate(invalid="ignore", over="ignore")
    def bound_constants(self):
        """(K1, K2, K3): grid suprema of |h(t,s)|, |Q(t,s)|, |h(t)| over
        every jump and every node of each cell's uniform grid of 512
        divisions per period, at least 16 per cell, whose phase is
        integrated by Simpson's rule from the E the cell starts from."""
        fields = []  # (phi, E, h, 1 / D) at the nodes read, in time order
        for e in self.events:
            if isinstance(e, _DenseCell):
                _, phi, h, phase = e.bound
                E = e.E0 * np.exp(1j * phase)
                fields.append((phi, E, h, 1.0 / (phi * E)))
            else:
                fields.append(([e.phi], [e.E], [e.h], [1.0 / e.D]))
        phi_t, E_t, h_t, M_s = (np.hstack(f) for f in zip(*fields))
        phi_t = np.hstack([phi_t, [self.phiT]])
        E_t = np.hstack([E_t, [self.E_T]])
        M_s = np.hstack([M_s, [1.0 / (self.phiT * self.E_T)]])

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

