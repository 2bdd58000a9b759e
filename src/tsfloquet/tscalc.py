"""Adaptive Gauss-Kronrod quadrature for the dense parts of a time scale.

One GK(7,15) panel and its adaptive panel-halving loop, with an
absolute tolerance and an evaluation budget. The panel nodes are strictly
interior, so isolated-point redefinitions of piecewise coefficients at
segment endpoints never contaminate a dense integral. ``compute_B``
integrates -p over each dense interval with it. The time-scale calculus
built on it (delta integrals, e_g(t, s), cos_phi/sin_phi) is kept, as the
literal definitions the engine is tested against, in
``tests/calculus_reference.py``.
"""
from __future__ import annotations

from typing import Union

from .errors import QuadratureNonConvergence

Number = Union[float, complex]

_EVAL_BUDGET = 1_000_000

# Gauss-Kronrod (7,15) abscissae and weights on [-1, 1], positive half.
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel: returns (K15, |K15 - G7|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        x = h * _XGK[j]
        fsum = f(c - x) + f(c + x)
        kron += _WGK[j] * fsum
        if j % 2 == 1:
            gauss += _WG[j // 2] * fsum
    kron *= h
    gauss *= h
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
