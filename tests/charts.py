"""Systems whose stability is known without integrating an ODE.

* The Mathieu chart: x'' + (a - c cos 2t) x = 0 on the continuous scale
  [0, pi], with p = 0, so B = 1 exactly. With q = c / 2 in DLMF's form
  x'' + (a - 2q cos 2t) x = 0, the characteristic values a_r(q) and b_r(q)
  are the eigenvalues of four truncated tridiagonal matrices (McLachlan,
  *Theory and Application of Mathieu Functions*, 1947; DLMF 28.2, 28.6),
  and for q > 0 the system is stable iff a_r < a < b_{r+1} for some r >= 0.
* Conservative systems: one dense interval, q constant and p a sine over
  whole periods, so the integral of p vanishes and B = 1. Their two
  multipliers have product 1, so none is exponentially stable.
"""
import math
import random

import numpy as np

from tsfloquet import (
    Interval,
    PeriodicTimeScale,
    SystemSpec,
    Verdict,
    parse,
    validate,
)

# the size of each truncated matrix; a_r and b_r below a = 12 are exact
# to rounding at this size for the q of the chart
_SIZE = 40


def _eigenvalues(diagonal, q, first_off):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with this
    diagonal, off-diagonal q and first off-diagonal pair first_off."""
    off = np.full(len(diagonal) - 1, q)
    off[0] = first_off
    matrix = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(matrix)


def characteristic_values(q: float, size: int = _SIZE):
    """(a, b): a[r] = a_r(q) for 0 <= r < 2 size, b[r] = b_r(q) for
    1 <= r < 2 size; b[0] is NaN, as there is no b_0."""
    k = np.arange(size, dtype=float)
    even, odd = (2 * k) ** 2, (2 * k + 1) ** 2
    first = np.zeros(size)
    first[0] = q
    a = np.empty(2 * size)
    b = np.full(2 * size, math.nan)
    a[0::2] = _eigenvalues(even, q, math.sqrt(2.0) * q)
    a[1::2] = _eigenvalues(odd + first, q, q)
    b[1::2] = _eigenvalues(odd - first, q, q)
    b[2::2] = _eigenvalues((2 * k + 2) ** 2, q, q)[:size - 1]
    return a, b


def mathieu_reference(a: float, c: float) -> Verdict:
    """STABLE iff a_r(c / 2) < a < b_{r+1}(c / 2) for some r, else UNSTABLE."""
    ar, br = characteristic_values(c / 2.0)
    stable = any(ar[r] < a < br[r + 1] for r in range(len(ar) - 1))
    return Verdict.STABLE if stable else Verdict.UNSTABLE


def mathieu_system(a: float, c: float) -> SystemSpec:
    ts = validate(PeriodicTimeScale(0.0, math.pi, [Interval(0.0, math.pi)]))
    return SystemSpec(ts, parse("0"), parse(f"{a!r} - {c!r}*cos(2*t)"))


def mathieu_chart():
    """[((a, c), reference verdict)] on the 53 x 12 grid a in [-1, 12],
    c in [0.25, 3], both in steps of 0.25, with a > c so that q > 0 on
    the whole period: 498 systems."""
    grid = [(-1.0 + 0.25 * i, 0.25 * j)
            for i in range(53) for j in range(1, 13)]
    return [((a, c), mathieu_reference(a, c)) for a, c in grid if a > c]


def conservative_system(rng: random.Random) -> SystemSpec:
    """One dense interval [t0, t0 + T] with q constant in [0.5, 3] and
    p = amp sin(2 pi (t - shift) / T): the integral of p is 0, so B = 1."""
    t0 = rng.uniform(-1.0, 1.0)
    T = rng.uniform(1.0, 5.0)
    q = rng.uniform(0.5, 3.0)
    amp = rng.uniform(0.01, 3.0)
    shift = rng.uniform(t0, t0 + T)
    ts = validate(PeriodicTimeScale(t0, T, [Interval(t0, t0 + T)]))
    return SystemSpec(ts, parse(f"{amp!r}*sin(2*pi*(t - {shift!r})/{T!r})"),
                      parse(repr(q)))
