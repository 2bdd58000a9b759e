"""Brute-force monodromy matrix, independent of the series code.

Propagates the 2x2 identity across one period of the first-order system
Y' = S(t) Y with S = [[0, 1], [-q, -p]]. Each dense interval is cut into
panels, and each panel's propagator comes from one step of the 3-stage
Gauss-Legendre method (order 6): for a linear system its stage equations
are one 6x6 linear solve, batched over every panel of the period at once.
Refinement compares each panel's propagator with the product of its two
halves' and bisects only the panels that disagree beyond rk_tol; each
round samples p and q with one ``evaluate_array`` call each, at the Gauss
nodes of every active half-panel. The accepted propagators of an interval
are multiplied in time order by pairwise products, and each scattered
point applies its exact one-step product Y <- (I + mu S) Y. Shares nothing
with the series path except expression evaluation. ``cross_check`` compares
the trace and determinant with the A(n), B and error bound of a report
that ``analyze`` produced, so it checks the numbers the user sees without
recomputing them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# unused here; kept because benchmarks/tracer.py wraps it in this module
from scipy.integrate import solve_ivp  # noqa: F401

from . import expr as ex
from .errors import CheckFailed, StepSizeUnderflow
from .floquet import FloquetReport, SystemSpec
# unused here; kept because benchmarks/tracer.py wraps them in this module
from .floquet import a_partial, compute_B, error_bound, solve_phi  # noqa: F401
from .timescale import Interval

# coefficient samples (p and q at one node count once) over all rounds
_EVAL_BUDGET = 1_000_000

# Gauss-Legendre (3 stages, order 6) nodes, stage matrix and weights on [0, 1]
_R15 = math.sqrt(15.0)
_C = np.array([0.5 - _R15 / 10, 0.5, 0.5 + _R15 / 10])
_A = np.array([
    [5 / 36, 2 / 9 - _R15 / 15, 5 / 36 - _R15 / 30],
    [5 / 36 + _R15 / 24, 2 / 9, 5 / 36 - _R15 / 24],
    [5 / 36 + _R15 / 30, 2 / 9 + _R15 / 15, 5 / 36],
])
_B = np.array([5 / 18, 4 / 9, 5 / 18])
# the stage matrix broadcast against S_j with axes (panel, i, r, j, c)
_A5 = _A[None, :, None, :, None]
_I6 = np.eye(6)
_STAGE_RHS = np.tile(np.eye(2), (3, 1))


def _S(spec: SystemSpec, t: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-spec.q_at(t), -spec.p_at(t)]])


def _propagators(spec, lo, hi, ends, interval):
    """One Gauss-Legendre step of Y' = S Y from Y = I across each panel
    [lo, hi] of the dense interval ends[interval]: a (panels, 2, 2) stack.

    With h = hi - lo and S_j = S(lo + c_j h), the stage values Y_i solve
    Y_i - h sum_j a_ij S_j Y_j = I, one 6x6 system per panel with entries
    M[(i, r), (j, c)] = delta_ij delta_rc - h a_ij S_j[r, c], and the step
    is I + h sum_i b_i S_i Y_i.
    """
    a, b = ends[interval].T
    h = hi - lo
    # nodes are clamped inward: coefficient values on a dense part are
    # one-sided limits at the segment boundary
    eps = (b - a) * 1e-9
    t = np.clip(lo[:, None] + h[:, None] * _C, (a + eps)[:, None],
                (b - eps)[:, None]).ravel()
    q = ex.evaluate_array(spec.q, t).reshape(-1, 3)
    p = ex.evaluate_array(spec.p, t).reshape(-1, 3)
    _check_panels(np.isfinite(q) & np.isfinite(p), ends, interval,
                  "non-finite coefficient")
    S = np.zeros((len(h), 3, 2, 2))
    S[..., 0, 1] = 1.0
    S[..., 1, 0] = -q
    S[..., 1, 1] = -p
    M = _I6 - (h[:, None, None, None, None] * _A5
               * S.transpose(0, 2, 1, 3)[:, None]).reshape(-1, 6, 6)
    Y = np.linalg.solve(M, _STAGE_RHS).reshape(-1, 3, 2, 2)
    return np.eye(2) + h[:, None, None] * np.einsum("i,pird->prd", _B, S @ Y)


def _check_panels(ok, ends, interval, what):
    """StepSizeUnderflow naming the first interval with a panel not ok."""
    ok = ok.reshape(len(interval), -1).all(axis=1)
    if not ok.all():
        a, b = ends[interval[~ok].min()]
        raise StepSizeUnderflow(f"{what} on [{a}, {b}]")


def _ordered_product(R) -> np.ndarray:
    """R[-1] @ ... @ R[0] for a (m, 2, 2) stack, by pairwise products."""
    while len(R) > 1:
        odd = R[-1:] if len(R) % 2 else R[:0]
        R = np.concatenate([R[1::2] @ R[0:len(R) - 1:2], odd])
    return R[0]


# a panel whose propagator overflows is reported, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _dense_flows(spec: SystemSpec, intervals: list, rk_tol: float) -> list:
    """The propagator of each dense interval [a, b], in the given order."""
    if not intervals:
        return []
    ends = np.array(intervals, dtype=float)
    interval = np.arange(len(ends))
    lo, hi = ends.T
    R = _propagators(spec, lo, hi, ends, interval)
    evals = 3 * len(interval)
    done = []  # (interval index, left end, propagator) of accepted panels
    while len(interval):
        evals += 6 * len(interval)
        if evals > _EVAL_BUDGET:
            a, b = ends[interval.min()]
            raise StepSizeUnderflow(
                f"rk_tol {rk_tol} unreachable within {_EVAL_BUDGET} "
                f"coefficient evaluations on [{a}, {b}]")
        mid = 0.5 * (lo + hi)
        RL, RR = np.split(_propagators(
            spec, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
            ends, np.concatenate([interval, interval])), 2)
        fine = RR @ RL
        # a non-finite half makes the product non-finite
        _check_panels(np.isfinite(fine), ends, interval,
                      "non-finite propagator")
        err = np.abs(R - fine).max(axis=(1, 2))
        ok = err <= rk_tol * np.maximum(1.0, np.abs(fine).max(axis=(1, 2)))
        done.append((interval[ok], lo[ok], fine[ok]))
        bad = ~ok
        interval = np.concatenate([interval[bad], interval[bad]])
        lo, hi = (np.concatenate([lo[bad], mid[bad]]),
                  np.concatenate([mid[bad], hi[bad]]))
        R = np.concatenate([RL[bad], RR[bad]])
    interval, lo, R = (np.concatenate(parts) for parts in zip(*done))
    order = np.lexsort((lo, interval))
    cuts = np.searchsorted(interval[order], np.arange(1, len(ends)))
    return [_ordered_product(part) for part in np.split(R[order], cuts)]


def monodromy(spec: SystemSpec, rk_tol: float = 1e-10) -> np.ndarray:
    """Phi_S(t0+T, t0) as a 2x2 array.

    A panel is accepted once its propagator and the product of its two
    halves' differ by at most rk_tol max(1, max|entry of the product|), and
    the product is kept. StepSizeUnderflow names the first dense interval
    with a NaN or infinite coefficient or propagator, or whose panels still
    disagree after _EVAL_BUDGET coefficient samples over all rounds.
    """
    ts = spec.ts
    flows = iter(_dense_flows(spec, ts.dense_intervals(), rk_tol))
    Y = np.eye(2)
    # on long discrete periods Y overflows to inf and NaN, which fails
    # cross_check
    with np.errstate(over="ignore", invalid="ignore"):
        for seg, step in ts.steps():
            if isinstance(seg, Interval):
                Y = next(flows) @ Y
            if step is not None:
                t, mu = step
                Y = (np.eye(2) + mu * _S(spec, t)) @ Y
    return Y


@dataclass(frozen=True)
class CheckResult:
    a_oracle: float
    b_oracle: float
    a_delta: float  # |A_oracle - A(n)|
    b_delta: float  # |B_oracle - B|
    allowed: float  # report.err_bound.value + tol


def cross_check(spec: SystemSpec, report: FloquetReport, tol: float = 1e-8,
                rk_tol: float = 1e-10) -> CheckResult:
    """Compare the report's A(n) and B against the monodromy trace and det.

    The A comparison allows the report's truncation bound plus tol; B is
    exact up to quadrature, so only tol is allowed. A delta that is NaN
    fails the check.
    """
    Y = monodromy(spec, rk_tol)
    a_oracle = float(np.trace(Y))
    with np.errstate(over="ignore", invalid="ignore"):
        b_oracle = float(np.linalg.det(Y))
    allowed = report.err_bound.value + tol
    result = CheckResult(
        a_oracle=a_oracle,
        b_oracle=b_oracle,
        a_delta=abs(a_oracle - report.A_partial),
        b_delta=abs(b_oracle - report.B),
        allowed=allowed,
    )
    # written so that a NaN delta (an overflowed A, B or monodromy) fails
    if not (result.a_delta <= allowed and result.b_delta <= tol):
        raise CheckFailed(
            f"oracle disagreement: |A_oracle - A({report.n})| = "
            f"{result.a_delta} (allowed {allowed}), |B_oracle - B| = "
            f"{result.b_delta} (allowed {tol})",
            a_delta=result.a_delta,
            b_delta=result.b_delta,
        )
    return result
