"""Brute-force monodromy matrix, independent of the series code.

Propagates the 2x2 identity across one period of the first-order system
Y' = S(t) Y with S = [[0, 1], [-q, -p]]: an adaptive Runge-Kutta
integration over each dense interval and the exact one-step product
Y <- (I + mu S) Y at each scattered point. Shares nothing with the series
path except expression evaluation. ``cross_check`` compares the trace and
determinant with the A(n), B and error bound of a report that ``analyze``
produced, so it checks the numbers the user sees without recomputing them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CheckFailed, StepSizeUnderflow
from .floquet import FloquetReport, SystemSpec
# unused here; kept because benchmarks/tracer.py wraps them in this module
from .floquet import a_partial, compute_B, error_bound, solve_phi  # noqa: F401
from .timescale import Interval


def _S(spec: SystemSpec, t: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-spec.q_at(t), -spec.p_at(t)]])


def monodromy(spec: SystemSpec, rk_tol: float = 1e-10) -> np.ndarray:
    """Phi_S(t0+T, t0) as a 2x2 array."""
    ts = spec.ts
    Y = np.eye(2)
    for seg, step in ts.steps():
        if isinstance(seg, Interval):
            a, b = seg.a, seg.b
            eps = (b - a) * 1e-9

            def rhs(t, y):
                # clamp inward: coefficient values on a dense part are
                # one-sided limits at the segment boundary
                tc = min(max(t, a + eps), b - eps)
                return (_S(spec, tc) @ y.reshape(2, 2)).ravel()

            sol = solve_ivp(rhs, (a, b), Y.ravel(), method="RK45",
                            rtol=rk_tol, atol=rk_tol)
            if not sol.success:
                raise StepSizeUnderflow(
                    f"integration failed on [{a}, {b}]: {sol.message}"
                )
            Y = sol.y[:, -1].reshape(2, 2)
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
