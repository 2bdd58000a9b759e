"""Brute-force monodromy matrix, independent of the series code.

Propagates the 2x2 identity across one period of the first-order system
Y' = S(t) Y with S = [[0, 1], [-q, -p]]. Each dense interval [a, b] is
cut into panels, their ends offsets from a so that halving is exact far
from 0, and each panel's propagator is one step of the 3-stage
Gauss-Legendre method (order 6): for a linear system its stage equations
are one 6x6 linear solve, batched over every panel of the period at once.
Refinement runs in rounds. Each round takes one step over every active
panel and over both of its halves, sampling p and q with one
``evaluate_array`` call each, and accepts the panels whose propagator
agrees with the product of its halves' to _RK_TOL. A rejected panel's
disagreement predicts how finely to cut it: an order-6 step's local error
scales like h^7, so each factor of 2^7 = 128 by which it misses the
tolerance asks for one more halving, and a margin of 3 more factors of 2
aims the new panels 8 times under the tolerance, at least one halving
and at most six (64 equal panels) per round. Smooth coefficients and most
committed Mathieu equations finish in two rounds, the others in three.
Each scattered point contributes its exact one-step product I + mu S,
from q and p at all the points sampled with one ``evaluate_array`` call
each. The accepted panels and these steps form one stack, put in time
order by one sort, and the period is the stack's product, formed once
by pairwise products. Shares nothing with the series path but expression
evaluation and panel geometry (``timescale.inward`` and
``split_panels``). ``cross_check`` compares the trace and determinant
with the A(n), B and error bound of a report that ``analyze`` produced,
so it checks the numbers the user sees without recomputing them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import CheckFailed, StepSizeUnderflow
from .floquet import FloquetReport, SystemSpec
# unused here; kept because benchmarks/tracer.py wraps them in this module
from .floquet import a_partial, compute_B, error_bound, solve_phi  # noqa: F401
from .timescale import inward, split_panels

# coefficient samples (p and q at one node count once) over all rounds
_EVAL_BUDGET = 1_000_000
# a panel's accepted propagator error, relative to max(1, its largest entry)
_RK_TOL = 1e-10
# halvings beyond the bare prediction for a rejected panel: each sub-panel
# aims 2^_MARGIN = 8 times under the tolerance
_MARGIN = 3
# what cross_check allows beyond the report's truncation bound
_CHECK_TOL = 1e-8
# unit roundoff of a float
_U = 2.0 ** -53

# Gauss-Legendre (3 stages, order 6) nodes, stage matrix and weights on [0, 1]
_R15 = math.sqrt(15.0)
_C = np.array([0.5 - _R15 / 10, 0.5, 0.5 + _R15 / 10])
_A = np.array([
    [5 / 36, 2 / 9 - _R15 / 15, 5 / 36 - _R15 / 30],
    [5 / 36 + _R15 / 24, 2 / 9, 5 / 36 - _R15 / 24],
    [5 / 36 + _R15 / 30, 2 / 9 + _R15 / 15, 5 / 36],
])
_B = np.array([5 / 18, 4 / 9, 5 / 18])
_I2 = np.eye(2)
_I3 = np.eye(3)
# delta_ij delta_c1 with axes (i, j, c): the identity in M's (1, 1) blocks
_I3_C1 = np.stack([np.zeros((3, 3)), _I3], axis=-1)
_STAGE_RHS = np.vstack([_I2] * 3)
# W's rows, with axes (i, k): b_i (0, 1), and -b_i times (q_i, p_i)
_W0 = np.stack([np.zeros(3), _B], axis=-1)
_NEG_B = -_B[:, None]


def __getattr__(name: str):
    # solve_ivp is unused here; benchmarks/tracer.py wraps it in this
    # module. It is imported on first access, so importing the package
    # does not load SciPy
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _propagators(spec, lo, hi, ends, interval):
    """One Gauss-Legendre step of Y' = S Y from Y = I across each panel
    [a + lo, a + hi] of the dense interval [a, b] = ends[interval]: a
    (panels, 2, 2) stack.

    With h = hi - lo and S_j = S(a + (lo + c_j h)), the stage values
    Y_i solve Y_i - h sum_j a_ij S_j Y_j = I, one 6x6 system per panel
    with entries M[(i, r), (j, c)] = delta_ij delta_rc - h a_ij S_j[r, c],
    and the step is I + h sum_i b_i S_i Y_i. As S_j's first row is (0, 1),
    M's first block row holds delta_ij and -h a_ij, its second h a_ij q_j
    and delta_ij + h a_ij p_j. S_i Y_i has rows Y_i[1] and
    -q_i Y_i[0] - p_i Y_i[1], so the sum is W Y, with Y's rows Y_i[k]
    stacked over (i, k) and W[0, (i, k)] = b_i delta_k1,
    W[1, (i, k)] = -b_i (q_i, p_i)[k].
    """
    a, b = ends[interval].T
    h = hi - lo
    # nodes are clamped inward: coefficient values on a dense part are
    # one-sided limits at the segment boundary
    a_in, b_in = inward(a, b)
    t = np.clip(a[:, None] + (lo[:, None] + h[:, None] * _C), a_in[:, None],
                b_in[:, None]).ravel()
    # q_j and p_j with axes (panel, j, c)
    qp = np.empty((len(t), 2))
    qp[:, 0] = ex.evaluate_array(spec.q, t)
    qp[:, 1] = ex.evaluate_array(spec.p, t)
    if not np.isfinite(qp).all():
        _check_panels(np.isfinite(qp), ends, interval,
                      "non-finite coefficient")
    qp = qp.reshape(-1, 3, 2)
    hA = h[:, None, None] * _A
    # axes (panel, i, r, j, c)
    M = np.empty((len(h), 3, 2, 3, 2))
    M[:, :, 0, :, 0] = _I3
    M[:, :, 0, :, 1] = -hA
    M[:, :, 1] = hA[..., None] * qp[:, None] + _I3_C1
    # stage values with axes (panel, (i, k), d)
    Y = np.linalg.solve(M.reshape(-1, 6, 6), _STAGE_RHS)
    W = np.empty((len(h), 2, 3, 2))
    W[:, 0] = _W0
    W[:, 1] = _NEG_B * qp
    return _I2 + h[:, None, None] * (W.reshape(-1, 2, 6) @ Y)


def _check_panels(ok, ends, interval, what):
    """StepSizeUnderflow naming the first interval with a panel not ok."""
    ok = ok.reshape(len(interval), -1).all(axis=1)
    if not ok.all():
        a, b = ends[interval[~ok].min()]
        raise StepSizeUnderflow(f"{what} on [{a}, {b}]")


def _ordered_product(R) -> np.ndarray:
    """R[-1] @ ... @ R[0] for a (m, 2, 2) stack, by pairwise products."""
    while len(R) > 1:
        P = R[1::2] @ R[:-1:2]
        R = np.concatenate([P, R[-1:]]) if len(R) % 2 else P
    return R[0]


def _dense_flows(spec: SystemSpec, ends, interval) -> list:
    """The accepted panels of the dense segments [a, b] = ends[interval],
    one (segment index, left offset, propagator) triple of arrays per
    round, in no particular order.

    Each round takes one ``_propagators`` call over every active panel and
    both of its halves. A rejected panel is cut into 2^k equal panels for
    the next round, with k = ceil((log2(err / allowed) + _MARGIN) / 7).
    The 7 is the order of the local error of an order-6 step, which scales
    like h^7: each of the 2^k new panels has about 2^(-7k) of the cut
    panel's error, so k = ceil(log2(err / allowed) / 7) would just bring
    it under the tolerance where that scaling holds. Such a prediction
    lands near the tolerance and misses it about as often as not, which
    costs a whole further round of numpy calls, however few panels it
    holds. The + 3 aims each new panel 2^3 = 8 times under the tolerance,
    a step factor of 8^(-1/7) ~ 0.74, the safety factor of step-size
    control (Hairer, Norsett and Wanner, Solving Ordinary Differential
    Equations I, section II.4). k is 1 where err / allowed is not finite,
    at least 1, and at most 6 so that one round multiplies a panel's cost
    by at most 64 and the budget, checked before each round, stops a panel
    far from that regime, whose error estimate says little, before it asks
    for 2^147 panels at once.
    """
    # offsets from each interval's left end, so that halving is exact
    lo, hi = np.zeros(len(interval)), (ends[:, 1] - ends[:, 0])[interval]
    evals = 0
    done = []
    while len(interval):
        evals += 9 * len(interval)
        if evals > _EVAL_BUDGET:
            a, b = ends[interval.min()]
            raise StepSizeUnderflow(
                f"rk_tol {_RK_TOL} unreachable within {_EVAL_BUDGET} "
                f"coefficient evaluations on [{a}, {b}]")
        mid = 0.5 * (lo + hi)
        n = len(interval)
        R = _propagators(spec, np.concatenate([lo, lo, mid]),
                         np.concatenate([hi, mid, hi]), ends,
                         np.concatenate([interval] * 3))
        fine = R[2 * n:] @ R[n:2 * n]
        R = R[:n]
        # a non-finite half makes the product non-finite
        if not np.isfinite(fine).all():
            _check_panels(np.isfinite(fine), ends, interval,
                          "non-finite propagator")
        err = np.abs(R - fine).max(axis=(1, 2))
        allowed = _RK_TOL * np.maximum(1.0, np.abs(fine).max(axis=(1, 2)))
        ok = err <= allowed
        done.append((interval[ok], lo[ok], fine[ok]))
        if ok.all():
            break
        bad = ~ok
        ratio = err[bad] / allowed[bad]
        k = np.where(np.isfinite(ratio), np.clip(
            np.ceil((np.log2(ratio) + _MARGIN) / 7), 1, 6), 1)
        parent, lo, hi = split_panels(lo[bad], hi[bad], 2 ** k.astype(int))
        interval = interval[bad][parent]
    return done


# a panel whose propagator overflows is reported, not warned about; on long
# discrete periods the product overflows to inf and NaN, which fails
# cross_check
@np.errstate(over="ignore", invalid="ignore")
def monodromy(spec: SystemSpec, factors: list | None = None) -> np.ndarray:
    """Phi_S(t0+T, t0) as a 2x2 array: the product of one stack that holds
    every accepted panel propagator and every scattered point's step
    I + mu S, in time order. ``np.lexsort`` orders the stack by segment,
    and within a segment its panels by left offset, then the step of the
    point that ends it (the i-th scattered point ends segment i);
    ``_ordered_product`` multiplies it.

    A panel is accepted once its propagator and the product of its two
    halves' differ by at most _RK_TOL max(1, max|entry of the product|), and
    the product is kept. StepSizeUnderflow names the first dense interval
    with a NaN or infinite coefficient or propagator, or whose panels still
    disagree when the next round would take the coefficient samples over
    all rounds past _EVAL_BUDGET. If ``factors`` is a list, the stack's
    length, the number of panels and scattered points multiplied into the
    result, is appended to it.
    """
    ts = spec.ts
    flows = _dense_flows(spec, np.array([ts.starts, ts.ends]).T,
                         ts.dense.nonzero()[0])
    t, mu = ts.scattered_t, ts.scattered_mu
    # entries 1, mu, -mu q and 1 - mu p; evaluating at no nodes would still
    # walk each expression
    steps = np.empty((len(t), 2, 2))
    steps[:, 0, 0] = 1.0
    steps[:, 0, 1] = mu
    if len(t):
        steps[:, 1, 0] = -mu * ex.evaluate_array(spec.q, t)
        steps[:, 1, 1] = 1.0 - mu * ex.evaluate_array(spec.p, t)
    # the i-th point's step comes after every panel of segment i
    parts = [(np.arange(len(t)), np.full(len(t), np.inf), steps), *flows]
    segment, offset, stack = map(np.concatenate, zip(*parts))
    if factors is not None:
        factors.append(len(stack))
    return _ordered_product(stack[np.lexsort((offset, segment))])


@dataclass(frozen=True)
class CheckResult:
    a_oracle: float
    b_oracle: float
    a_delta: float  # |A_oracle - A(n)|
    b_delta: float  # |B_oracle - B|
    allowed: float  # err_bound + _CHECK_TOL max(1, |A_oracle|)
    # the largest of _CHECK_TOL |B_oracle| (_CHECK_TOL where B_oracle is not
    # finite), gamma_{4m-2} (|Y00 Y11| + |Y01 Y10|) and (4m - 2) 2^-1074
    b_allowed: float


def _scale(x: float) -> float:
    """max(1, |x|), and 1 where x is not finite, so that an overflowed
    oracle value allows no more than a unit one."""
    return max(1.0, abs(x)) if math.isfinite(x) else 1.0


def cross_check(spec: SystemSpec, report: FloquetReport) -> CheckResult:
    """Compare the report's A(n) and B against the monodromy trace and det.

    The A comparison allows the report's truncation bound plus _CHECK_TOL
    relative to the trace. B is exact up to quadrature, so the B comparison
    allows _CHECK_TOL relative to the determinant or, where it is larger,
    the rounding that det(Y) can amplify. In the model
    fl(x op y) = (x op y)(1 + delta), |delta| <= u = 2^-53, a 2x2 product
    rounds each term of an entry twice, in its multiply and in its add.
    However the m - 1 products of the m factors (panels and scattered
    points) are parenthesized, every term of an entry of Y, a product of
    one entry from every factor, passes through all of them: 2 (m - 1)
    roundings, which compound to at most gamma_k = k u / (1 - k u) with
    k = 2 (m - 1) (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 3.1 and section 3.5). A term of Y00 Y11 or of Y01 Y10 multiplies
    two entries, 4 (m - 1) roundings, and det(Y) = Y00 Y11 - Y01 Y10,
    formed as written, rounds each term twice more, in its multiply and in
    the subtraction. Where no entry's terms cancel, as when every factor
    is nonnegative, det's rounding is then at most
    gamma_{4m-2} (|Y00 Y11| + |Y01 Y10|), however much the two products
    cancel: with 12 unit steps of q = -2 + 0.1 cos(t) that sum is 7.8e8
    at det(Y) = 1.01, where _CHECK_TOL alone would fail a correct B, and
    the computed det(Y) lies within 0.4 u (|Y00 Y11| + |Y01 Y10|) of the
    exact determinant of the exact product of the same float factors,
    under 1% of the allowance. det(Y) is not ``np.linalg.det``, which
    multiplies its LU pivots as exp(log|u00| + log|u11|), an error
    relative to det(Y) that grows with the logarithms, not a count of
    roundings. Where det(Y) does not cancel, the rounding term is far
    below _CHECK_TOL |det(Y)| (at most 1.5e-13 on the committed configs),
    which stays the allowance, however small det(Y) is; where det(Y) is
    not finite, the allowance is _CHECK_TOL. A non-finite rounding term
    is ignored, as an overflowed monodromy may not widen the check.
    Below the smallest normal float a rounding is no longer relative: a
    product there adds up to 2^-1075 whatever its size (Higham's model
    with underflow), so a det(Y) or B that underflows, as on long damped
    discrete scales, is allowed at least 2^-1074 per rounding of the two
    products, (4m - 2) 2^-1074 in all: half of it for det(Y)'s roundings,
    and the other half covers compute_B's k - 1 <= m products. A delta
    that is NaN fails the check.
    """
    factors = []
    Y = monodromy(spec, factors)
    # an overflowed Y can hold infinities of both signs on its diagonal
    with np.errstate(over="ignore", invalid="ignore"):
        a_oracle = float(np.trace(Y))
        terms = float(Y[0, 0] * Y[1, 1]), float(Y[0, 1] * Y[1, 0])
        b_oracle = terms[0] - terms[1]
        roundings = 4 * factors[0] - 2
        k_u = roundings * _U
        cancel = k_u / (1 - k_u) * (abs(terms[0]) + abs(terms[1]))
    result = CheckResult(
        a_oracle=a_oracle,
        b_oracle=b_oracle,
        a_delta=abs(a_oracle - report.A_partial),
        b_delta=abs(b_oracle - report.B),
        allowed=report.err_bound.value + _CHECK_TOL * _scale(a_oracle),
        b_allowed=max(_CHECK_TOL * (abs(b_oracle) if math.isfinite(b_oracle)
                                    else 1.0),
                      cancel if math.isfinite(cancel) else 0.0,
                      roundings * 2.0 ** -1074),
    )
    # written so that a NaN delta (an overflowed A, B or monodromy) fails
    if not (result.a_delta <= result.allowed
            and result.b_delta <= result.b_allowed):
        raise CheckFailed(
            f"oracle disagreement: |A_oracle - A({report.n})| = "
            f"{result.a_delta} (allowed {result.allowed}), |B_oracle - B| = "
            f"{result.b_delta} (allowed {result.b_allowed})",
            a_delta=result.a_delta,
            b_delta=result.b_delta,
        )
    return result
