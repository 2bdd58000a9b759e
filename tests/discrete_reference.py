"""References on purely discrete scales.

A_n written out as the literal finite sum over decreasing n-tuples of
scattered points, O(C(k, n)) work. Tests compare the level recursion of
``tsfloquet.floquet._SeriesEngine`` against it term by term. The square
walk of that recursion, every level over every jump from the first, which
tests hold the engine's triangle walk to bit for bit. And the monodromy of
the oracle's own float steps, multiplied exactly, against which tests hold
the rounding of ``tsfloquet.oracle.monodromy``.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from tsfloquet import expr as ex
from tsfloquet import floquet
from tsfloquet.floquet import PhaseTable, SystemSpec

from calculus_reference import p_at, phase_value


def discrete_terms(spec: SystemSpec, table: PhaseTable, n: int) -> list:
    """Exact A_0..A_n on a purely discrete scale by tuple enumeration."""
    ts = spec.ts
    scattered = ts.scattered_with_mu()
    k = len(scattered)
    coords = [t for t, _ in scattered]
    mus = [m for _, m in scattered]
    phis = [phase_value(table, t) for t in coords]
    hs = []
    E_before, E_after = [], []
    E = 1.0 + 0.0j
    for (t, mu), phi in zip(scattered, phis):
        E_before.append(E)
        E = (1.0 + 1j * mu * phi) * E
        E_after.append(E)
        phi_sigma = phase_value(table, t + mu)
        hs.append(-p_at(spec, t) - (phi_sigma - phi) / (mu * phi))
    E_T = E
    phi0 = phase_value(table, ts.t0)
    phiT = phase_value(table, ts.t_end)

    def phi_sigma(i):
        return phase_value(table, coords[i] + mus[i])

    # Q between scattered points (row: outer/later, col: inner/earlier)
    Q = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            Q[a, b] = (
                phis[a] * (E_before[a] / E_after[b]).real / phi_sigma(b)
            )
    PT_vec = [(E_T / E_after[b]).imag / phi_sigma(b) for b in range(k)]
    QT_vec = [phiT * (E_T / E_after[b]).real / phi_sigma(b) for b in range(k)]
    cos_t = [e.real for e in E_before]
    sin_t = [e.imag for e in E_before]

    terms = [(1.0 + phiT / phi0) * E_T.real]
    desc = list(range(k - 1, -1, -1))  # indices by descending coordinate
    for order in range(1, n + 1):
        total = 0.0
        for combo in itertools.combinations(desc, order):
            first, last = combo[0], combo[-1]
            val = (
                cos_t[last] * QT_vec[first] / phi0
                - sin_t[last] * PT_vec[first]
            ) * phis[last]
            for prev, cur in zip(combo, combo[1:]):
                val *= Q[prev, cur] * hs[cur]
            val *= hs[first]
            for i in combo:
                val *= mus[i]
            total += val
        terms.append(total)
    return terms


def square_terms(engine: floquet._SeriesEngine, n: int) -> list:
    """[A_0, ..., A_n] of a purely discrete engine by the square walk: each
    level walks every jump from the first, from zero sums, in Python
    complex arithmetic below ``_ARRAY_WALK_EVENTS`` jumps and as one prefix
    sum per level from there on."""
    phi, E, _, _, muW = engine.jump_table
    ratio = engine.phiT / engine.phi0
    E_T = engine.E_T
    _, at_jumps = engine.seeds
    if len(phi) < floquet._ARRAY_WALK_EVENTS:
        jumps = list(zip(phi.real.tolist(), E.tolist(), muW.tolist()))
        walk = functools.partial(_square_loop, jumps)
        at_jumps = at_jumps.T.tolist()
    else:
        walk = functools.partial(_square_cumsum, phi.real, E, muW)
    terms = [(1.0 + engine.phiT / engine.phi0) * E_T.real]
    for _ in range(n):
        (accJ, accK), at_jumps = walk(at_jumps)
        A = -(E_T * accJ).imag + ratio * (E_T * accK).real
        terms.append(A + 0.0)
    return terms


def _square_loop(jumps, at_jumps):
    accJ = 0.0 + 0.0j
    accK = 0.0 + 0.0j
    out = []
    for (phi, E, muW), (g, h) in zip(jumps, at_jumps):
        # running value excludes the jump at the point itself
        out.append((phi * (E * accJ).real, phi * (E * accK).real))
        accJ = accJ + muW * g
        accK = accK + muW * h
    return (accJ, accK), out


def _square_cumsum(phi, E, muW, GH):
    # CPython's (mu W) * g is (Re mu W g - Im mu W 0.0, Re mu W 0.0 +
    # Im mu W g), each product rounded on its own
    factor = np.stack([muW.real, muW.imag], axis=-1)
    term = factor[:, ::-1] * [-0.0, 0.0]
    acc = np.empty((2, len(phi) + 1), dtype=complex)
    parts = acc.view(float).reshape(2, -1, 2)  # (Re, Im) of each slot
    with np.errstate(over="ignore", invalid="ignore"):
        acc[:, 0] = 0.0
        parts[:, 1:] = GH[..., None] * factor + term
        np.cumsum(acc, axis=1, out=acc)
        run = acc[:, :-1]
        GH = phi * (E.real * run.real - E.imag * run.imag)
    return acc[:, -1].tolist(), GH


def fraction_monodromy(spec: SystemSpec) -> list:
    """The monodromy of a purely discrete scale as a 2x2 list of Fractions:
    the exact product, in time order, of the float steps I + mu S that
    ``tsfloquet.oracle.monodromy`` multiplies, their entries 1, mu, -mu q
    and 1 - mu p each a rounded float, with q and p at all the points from
    one ``evaluate_array`` call each."""
    ts = spec.ts
    t = ts.scattered_t
    Y = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for mu, q, p in zip(ts.scattered_mu.tolist(),
                        ex.evaluate_array(spec.q, t).tolist(),
                        ex.evaluate_array(spec.p, t).tolist()):
        step = [[Fraction(1), Fraction(mu)],
                [Fraction(-mu * q), Fraction(1 - mu * p)]]
        Y = [[step[i][0] * Y[0][j] + step[i][1] * Y[1][j] for j in range(2)]
             for i in range(2)]
    return Y
