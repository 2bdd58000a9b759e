"""Adaptive Gauss-Kronrod quadrature for the dense parts of a time scale.

``compute_B`` integrates -p over every dense interval with
``quad_intervals`` to the fixed absolute target ``_QUAD_TOL``, by
panel-halving GK(7,15) (Kronrod's rule, as in QUADPACK) in rounds: each
round evaluates the open panels of every interval, at most
``_ROUND_PANELS`` of them, with one call of the array function
(``_gk15``), accepts the panels that meet their budget and halves the
rest. The panel nodes are strictly interior, so isolated-point
redefinitions of piecewise coefficients at segment endpoints never
contaminate a dense integral. The time-scale calculus built on the same
rule (delta integrals, e_g(t, s), cos_phi/sin_phi) is kept, with the
scalar panel-halving loop it uses, as the literal definitions the engine
is tested against, in ``tests/calculus_reference.py``.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureNonConvergence

_EVAL_BUDGET = 1_000_000
# the absolute target of every dense integral of B, not a setting: at
# 1e-12 B moves by at most an ulp on the committed configs and seeded
# hybrids, while a loose target can carry B across 1 unseen, as the
# verdict allows B only 8 ulps of rounding
_QUAD_TOL = 1e-9
# the most panels one round evaluates, _EVAL_BUDGET samples, so that a
# round's arrays stay small however many intervals refine at once; one
# interval's round never reaches it before its budget runs out
_ROUND_PANELS = _EVAL_BUDGET // 15

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

# the nodes c - x_j, c + x_j (j = 0..6) of a panel as multiples of its
# half-width h, one row each: c + h (-x) is c - h x bit for bit
_OFFSETS = np.array([[s * x] for x in _XGK[:7] for s in (-1.0, 1.0)])
# the weights of K15 and G7 on f(c) and the pair sums
# f(c - x_j) + f(c + x_j), one row each: K15 takes every pair, G7 the odd j
_KRONROD = np.array(_WGK[7:] + _WGK[:7])[:, None]
_GAUSS = np.array(_WG[3:] + _WG[:3])[:, None]


def _gk15(f, lo, hi):
    """(K15, |K15 - G7|) of each panel [lo[i], hi[i]], from one call of f
    on the 15 nodes of every panel: panel by panel, each in evaluation
    order, the midpoint c, then c - x_j and c + x_j for j = 0..6."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = np.empty((15, len(c)))  # node by node, a column per panel
    x[0] = c
    np.multiply(_OFFSETS, h, out=x[1:])
    x[1:] += c
    fx = f(x.T.ravel()).reshape(-1, 15).T
    pairs = np.empty((8, len(c)))
    pairs[0] = fx[0]
    np.add(fx[1::2], fx[2::2], out=pairs[1:])
    # accumulate adds each panel's weighted terms in order, from the first
    kron = np.add.accumulate(pairs * _KRONROD)[-1] * h
    gauss = np.add.accumulate(pairs[::2] * _GAUSS)[-1] * h
    return kron, np.abs(kron - gauss)


def quad_intervals(f, a, b) -> list:
    """The integral of f over each [a[i], b[i]], a[i] < b[i], in order, to
    the absolute target ``_QUAD_TOL``. f maps an array of nodes to f's
    values there.

    Panel-halving GK(7,15) in rounds, from one panel per interval. The
    open panels are kept in order, by interval and left to right within
    one. A round evaluates the first ``_ROUND_PANELS`` of them (all of
    them, unless many intervals refine at once) with one ``_gk15`` call.
    It accepts a panel whose |K15 - G7| is at most its budget, _QUAD_TOL
    halved once per halving that made it, or whose width is at most
    1e-14 max(1, |hi|), and puts each other one back in its place as its
    two halves, split at mid = 0.5 (lo + hi). So the earliest intervals
    refine first once a round is full, and the open panels grow by at
    most ``_ROUND_PANELS`` a round. Each interval's accepted panels are
    added right to left from 0.0, the order in which a depth-first loop
    that takes the right half first meets them. Each interval may take
    ``_EVAL_BUDGET`` samples: QuadratureNonConvergence is raised before a
    round that would take one past it.
    """
    n = len(a)
    if not n:
        return []
    panels = np.empty((n, 3))  # the open panels' (lo, hi, budget)
    panels[:, 0], panels[:, 1], panels[:, 2] = a, b, _QUAD_TOL
    owner = np.arange(n)  # and each one's interval
    spent = np.zeros(n, dtype=int)
    accepted = []  # (owner, lo, K15) of each round's accepted panels
    # Python float arithmetic overflows silently, numpy's would warn
    with np.errstate(all="ignore"):
        while True:
            head, mine = panels[:_ROUND_PANELS], owner[:_ROUND_PANELS]
            spent += 15 * np.bincount(mine, minlength=n)
            if spent.max() > _EVAL_BUDGET:
                raise QuadratureNonConvergence(
                    f"tolerance {_QUAD_TOL} unreachable within "
                    f"{_EVAL_BUDGET} evaluations")
            lo, hi, budget = head.T
            value, err = _gk15(f, lo, hi)
            ok = (err <= budget) | (hi - lo
                                    <= 1e-14 * np.maximum(1.0, np.abs(hi)))
            accepted.append((mine[ok], lo[ok], value[ok]))
            if len(mine) == len(owner) and ok.all():
                break
            # each rejected panel becomes its two halves, left first, in
            # its place
            halves = head[~ok].repeat(2, axis=0)
            halves[::2, 1] = halves[1::2, 0] = 0.5 * (halves[::2, 0]
                                                      + halves[1::2, 1])
            halves[:, 2] *= 0.5
            panels = np.concatenate((halves, panels[_ROUND_PANELS:]))
            owner = np.concatenate((mine[~ok].repeat(2),
                                    owner[_ROUND_PANELS:]))
    owner, lo, value = (np.concatenate(part) for part in zip(*accepted))
    order = np.lexsort((-lo, owner))
    totals = [0.0] * n
    for i, v in zip(owner[order].tolist(), value[order].tolist()):
        totals[i] += v
    return totals
