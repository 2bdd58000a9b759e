"""References on purely discrete scales.

A_n written out as the literal finite sum over decreasing n-tuples of
scattered points, O(C(k, n)) work. Tests compare the level recursion of
``tsfloquet.floquet._SeriesEngine`` against it term by term. And the
monodromy of the oracle's own float steps, multiplied exactly, against
which tests hold the rounding of ``tsfloquet.oracle.monodromy``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from tsfloquet import expr as ex
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
