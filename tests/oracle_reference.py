"""Reference for the oracle's Gauss-Legendre panel propagators.

The stage assembly that ``tsfloquet.oracle._propagators`` replaced: the
6x6 stage matrices come from a zeroed S stack, a transpose and a
broadcast product with the stage matrix, and the step's sum
sum_i b_i S_i Y_i from ``S @ Y`` and ``einsum``. The stage matrices are
the same bit for bit, and the step sums the same products in another
order, so tests compare the two to a relative tolerance of a few ulps.
"""
from __future__ import annotations

import numpy as np

from tsfloquet import expr as ex
from tsfloquet.oracle import _A, _B, _C, _check_panels
from tsfloquet.timescale import inward

# the stage matrix broadcast against S_j with axes (panel, i, r, j, c)
_A5 = _A[None, :, None, :, None]
_I6 = np.eye(6)
_STAGE_RHS = np.tile(np.eye(2), (3, 1))


def _propagators(spec, lo, hi, ends, interval):
    """One Gauss-Legendre step of Y' = S Y from Y = I across each panel
    [a + lo, a + hi] of the dense interval [a, b] = ends[interval], its
    ends given as offsets from a: a (panels, 2, 2) stack.

    With h = hi - lo and S_j = S(a + (lo + c_j h)), the stage values Y_i solve
    Y_i - h sum_j a_ij S_j Y_j = I, one 6x6 system per panel with entries
    M[(i, r), (j, c)] = delta_ij delta_rc - h a_ij S_j[r, c], and the step
    is I + h sum_i b_i S_i Y_i.
    """
    a, b = ends[interval].T
    h = hi - lo
    # nodes are clamped inward: coefficient values on a dense part are
    # one-sided limits at the segment boundary
    a_in, b_in = inward(a, b)
    t = np.clip(a[:, None] + (lo[:, None] + h[:, None] * _C), a_in[:, None],
                b_in[:, None]).ravel()
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
