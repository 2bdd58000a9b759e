"""Adaptive Gauss-Kronrod quadrature for the dense parts of a time scale.

One GK(7,15) panel and its adaptive panel-halving loop, with an
absolute tolerance and an evaluation budget. The panel nodes are strictly
interior, so isolated-point redefinitions of piecewise coefficients at
segment endpoints never contaminate a dense integral. ``compute_B``
integrates -p over every dense interval with ``quad_intervals`` to the
fixed absolute target ``_QUAD_TOL``: one array pass over the first panels
of all intervals, then the scalar loop on the intervals whose first panel
falls short of it. The time-scale calculus built on it (delta integrals,
e_g(t, s), cos_phi/sin_phi) is kept, as the literal definitions the engine
is tested against, in ``tests/calculus_reference.py``.
"""
from __future__ import annotations

from typing import Union

import numpy as np

from .errors import QuadratureNonConvergence

Number = Union[float, complex]

_EVAL_BUDGET = 1_000_000
# the absolute target of every dense integral of B, not a setting: at
# 1e-12 B moves by at most an ulp on the committed configs and seeded
# hybrids, while a loose target can carry B across 1 unseen, as the
# verdict allows B only 8 ulps of rounding
_QUAD_TOL = 1e-9

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


# The panel arithmetic is one IEEE operation per step, so floats and
# arrays of panels (elementwise) give the same values bit for bit.

def _panel_nodes(a, b):
    """(h, nodes): the half-width of [a, b] and its 15 GK(7,15) nodes in
    evaluation order: the midpoint c, then c - x_j and c + x_j for
    j = 0..6."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    nodes = [c]
    for j in range(7):
        x = h * _XGK[j]
        nodes += [c - x, c + x]
    return h, nodes


def _panel_sums(h, fx):
    """(K15, |K15 - G7|) from the values fx at ``_panel_nodes``' nodes."""
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


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod panel: returns (K15, |K15 - G7|)."""
    h, nodes = _panel_nodes(a, b)
    return _panel_sums(h, [f(x) for x in nodes])


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


def quad_intervals(f, f_array, intervals: list) -> list:
    """``_adaptive_quad(f, a, b, _QUAD_TOL)`` for each (a, b) of
    ``intervals``, in order, bit for bit where ``f_array`` agrees with f.

    ``f_array`` gives f at every node of an array. It is called once, on
    the first panel's nodes of all intervals; an interval whose first
    panel meets the acceptance rule gives 0.0 + K15, as the loop does,
    and any other runs the loop from its start. If ``f_array`` raises,
    every interval runs the loop, so the exception raised is the one the
    loop meets first.
    """
    if not intervals:
        return []
    a, b = np.array(intervals, dtype=float).T
    # Python float arithmetic overflows silently, numpy's would warn
    with np.errstate(all="ignore"):
        h, nodes = _panel_nodes(a, b)
        try:
            fx = f_array(np.array(nodes).T.ravel())
        except Exception:
            # the array pass may name a later t than the loop meets first
            return [_adaptive_quad(f, lo, hi, _QUAD_TOL)
                    for lo, hi in intervals]
        value, err = _panel_sums(h, fx.reshape(len(intervals), 15).T)
        # the loop's acceptance rule for a first panel, whose budget is
        # the whole target
        done = (a < b) & ((err <= _QUAD_TOL)
                          | ((b - a) <= 1e-14 * np.maximum(1.0, abs(b))))
    return [0.0 + v if ok else _adaptive_quad(f, lo, hi, _QUAD_TOL)
            for (lo, hi), v, ok in zip(intervals, value.tolist(),
                                       done.tolist())]
