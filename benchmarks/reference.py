"""Independent monodromy reference for the certificate check.

Reads a config file with its own small parser and builds the period's
monodromy matrix Y directly from x^D = y, y^D = -q x - p y:

* at every right-scattered point t with graininess mu, the exact one-step
  factor I + mu S(t), S = [[0, 1], [-q, -p]];
* on purely discrete scales the whole product is formed in mpmath at 50
  digits, so A_ref = tr Y and B_ref = det Y are exact for the float
  coefficient values;
* on dense parts a DOP853 integration at rtol = atol = 1e-12.

``tsfloquet.expr`` is used only to evaluate p, q and constant list
entries; nothing from ``tsfloquet.floquet`` or ``tsfloquet.oracle`` is
called.
"""
from __future__ import annotations

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from tsfloquet import expr as ex

_DPS = 50
_RTOL = 1e-12


def _const(text: str) -> float:
    return ex.evaluate(ex.parse(text), 0.0)


def _split(text: str) -> list:
    """Items of a bracketed list, split at bracket depth one."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a list: {text!r}")
    items, depth, cur = [], 0, ""
    for ch in text[1:-1]:
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            items.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        items.append(cur.strip())
    return items


def parse_config(text: str) -> dict:
    """t0, period, sorted segments ("point", x, x) / ("interval", a, b), p, q."""
    raw = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip().strip("'\"")
    segs = [("point", x, x) for x in map(_const, _split(raw.get("points", "[]")))]
    for item in _split(raw.get("intervals", "[]")):
        a, b = map(_const, _split(item))
        segs.append(("interval", a, b))
    segs.sort(key=lambda s: s[1])
    return {
        "t0": _const(raw.get("t0", "0")),
        "period": _const(raw["period"]),
        "segments": segs,
        "p": ex.parse(raw.get("p", "0")),
        "q": ex.parse(raw["q"]),
    }


def _steps(cfg):
    """(kind, a, b, mu): each segment and the graininess after it.

    The last segment ends the period, so no step follows it (mu = None).
    """
    segs = cfg["segments"]
    for i, (kind, a, b) in enumerate(segs):
        mu = segs[i + 1][1] - b if i + 1 < len(segs) else None
        yield kind, a, b, mu


def _discrete(cfg):
    mpmath.mp.dps = _DPS
    p, q = cfg["p"], cfg["q"]
    Y = mpmath.eye(2)
    for _, _, t, mu in _steps(cfg):
        if mu is None:
            break
        m = mpmath.mpf(mu)
        pt = mpmath.mpf(ex.evaluate(p, t))
        qt = mpmath.mpf(ex.evaluate(q, t))
        Y = mpmath.matrix([[1, m], [-m * qt, 1 - m * pt]]) * Y
    return float(Y[0, 0] + Y[1, 1]), float(mpmath.det(Y))


def _dense_flow(p, q, a, b, Y):
    # evaluate strictly inside (a, b): coefficient values on a dense part
    # are one-sided limits, and isolated-point redefinitions sit on the
    # boundary within the expression language's 1e-12 relative tolerance
    eps = 1e-8 * max(1.0, abs(a), abs(b))
    lo, hi = a + eps, b - eps

    def rhs(t, y):
        tc = min(max(t, lo), hi)
        pt, qt = ex.evaluate(p, tc), ex.evaluate(q, tc)
        x0, x1, y0, y1 = y
        return [y0, y1, -qt * x0 - pt * y0, -qt * x1 - pt * y1]

    sol = solve_ivp(rhs, (a, b), Y.ravel(), method="DOP853",
                    rtol=_RTOL, atol=_RTOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed on [{a}, {b}]: "
                           f"{sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def _hybrid(cfg):
    p, q = cfg["p"], cfg["q"]
    Y = np.eye(2)
    for kind, a, b, mu in _steps(cfg):
        if kind == "interval":
            Y = _dense_flow(p, q, a, b, Y)
        if mu is not None:
            pt, qt = ex.evaluate(p, b), ex.evaluate(q, b)
            Y = np.array([[1.0, mu], [-mu * qt, 1.0 - mu * pt]]) @ Y
    return float(np.trace(Y)), float(np.linalg.det(Y))


def monodromy_ref(text: str):
    """(A_ref, B_ref): trace and determinant of the period's monodromy."""
    cfg = parse_config(text)
    if all(kind == "point" for kind, _, _ in cfg["segments"]):
        return _discrete(cfg)
    return _hybrid(cfg)
