"""Shared fixtures: the four worked examples, randomized system
generators used by the property and oracle-equivalence suites, and the
fundamental matrix helpers of the identity suites."""
import math
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tsfloquet import (
    Interval,
    PeriodicTimeScale,
    PhaseTable,
    Point,
    SystemSpec,
    evaluate,
    parse,
    solve_phi,
    validate,
)
# tscalc's constants are read at call time: report_digest.py imports this
# module on another tree's package, which may not define them
from tsfloquet import tscalc
from tsfloquet.errors import FloquetError
from tsfloquet.floquet import validate_system

from calculus_reference import cos_phi, phase_value, sin_phi


ROOT = Path(__file__).resolve().parent.parent

_ACCEPTANCE_LINES = []


def record_acceptance(number: int, ok: bool, description: str):
    """Collect one pass/fail line per acceptance criterion; shown in the
    terminal summary so it survives pytest output capture."""
    status = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES.append(f"ACCEPTANCE {number}: {status} - {description}")


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's seeded system generators, ``benchmarks/workloads``."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    return workloads


@pytest.fixture
def reference(monkeypatch):
    """The benchmark's independent monodromy, ``benchmarks/reference``."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import reference

    return reference


def points_scale(pts):
    return validate(
        PeriodicTimeScale(pts[0], pts[-1] - pts[0], [Point(x) for x in pts])
    )


@pytest.fixture
def example_z():
    """Z with period 2; exact rational data."""
    return SystemSpec(
        points_scale([0, 1, 2]),
        parse("(-17 + 15*neg1pow(t)) / 16"),
        parse("(1 - 15*neg1pow(t)) / 16"),
    )


@pytest.fixture
def example_2z():
    """2Z with period 6."""
    return SystemSpec(
        points_scale([0, 2, 4, 6]),
        parse("(sin(pi*t/3) + 2) / 10"),
        parse("(sin(pi*t/3) + 2) / 20"),
    )


@pytest.fixture
def example_hybrid():
    """[0, pi] plus the isolated point 2*pi, period 2*pi."""
    ts = validate(
        PeriodicTimeScale(0.0, 2 * math.pi,
                          [Interval(0.0, math.pi), Point(2 * math.pi)])
    )
    return SystemSpec(ts, parse("if(eq(mod(t, 2*pi), pi), 0.25, 0)"),
                      parse("1"))


@pytest.fixture
def example_continuous():
    """The real line with period pi."""
    ts = validate(PeriodicTimeScale(0.0, math.pi, [Interval(0.0, math.pi)]))
    return SystemSpec(ts, parse("sin(2*t) / 2"), parse("1/4"))


def _coeffs(rng, T):
    w = f"2*pi*t/{T!r}"
    a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    c = rng.uniform(0.3, 2.0)
    d = rng.uniform(-0.9, 0.9) * c
    p = parse(f"{a!r} + {b!r}*sin({w})")
    q = parse(f"{c!r} + {d!r}*cos({w})")
    return p, q


def random_discrete_system(seed, max_points=6, min_points=1):
    """A regressive discrete system with min_points..max_points scattered
    points."""
    rng = random.Random(seed)
    for _ in range(100):
        k = rng.randint(min_points, max_points)
        pts = [0.0]
        for _ in range(k):
            pts.append(pts[-1] + rng.uniform(0.4, 1.6))
        ts = points_scale(pts)
        p, q = _coeffs(rng, ts.period)
        spec = SystemSpec(ts, p, q)
        try:
            validate_system(spec)
            solve_phi(spec)
        except FloquetError:
            continue
        return spec
    raise AssertionError("could not generate a valid discrete system")


def unit_step_overflow_system(k):
    """k unit steps with |1 + i mu phi| > 2: E overflows within a few
    hundred steps, and the series terms, B and the bound constants come
    out infinite or NaN."""
    return SystemSpec(points_scale(list(range(k + 1))), parse("0.1"),
                      parse(f"4 + 0.5*cos(2*pi*t/{k})"))


def random_hybrid_system(seed):
    """A regressive hybrid system with a continuous phase function.

    The series theory needs phi to be delta-differentiable, which fails
    when the back-substituted chain does not meet sqrt(q) at a dense
    junction. So q is built the other way around: pick a smooth positive
    periodic phi, set q = phi(t)^2 on dense parts and redefine q at each
    scattered point to phi(sigma(t)) * phi(t) via an isolated-point
    condition. solve_phi then reconstructs exactly this phi.
    """
    rng = random.Random(seed)
    for _ in range(100):
        shape = rng.randrange(3)
        a = rng.uniform(0.5, 1.5)
        if shape == 0:
            b = a + rng.uniform(0.5, 1.5)
            segs = [Interval(0.0, a), Point(b)]
            T = b
        elif shape == 1:
            c = a + rng.uniform(0.4, 1.2)
            d = c + rng.uniform(0.5, 1.5)
            segs = [Interval(0.0, a), Interval(c, d)]
            T = d
        else:
            c = a + rng.uniform(0.4, 1.2)
            segs = [Point(0.0), Interval(a, c)]
            T = c
        ts = validate(PeriodicTimeScale(0.0, T, segs))

        amp = rng.uniform(0.8, 1.6)
        wobble = rng.uniform(-0.5, 0.5) * amp
        phi_text = f"({amp!r} + {wobble!r}*cos(2*pi*t/{T!r}))"
        phi_val = lambda t: amp + wobble * math.cos(2 * math.pi * t / T)
        q_text = f"({phi_text} * {phi_text})"
        for tau, mu in ts.scattered_with_mu():
            v = phi_val(tau + mu) * phi_val(tau)
            q_text = f"if(eq(mod(t, {T!r}), {tau % T!r}), {v!r}, {q_text})"
        pa, pb = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        p = parse(f"{pa!r} + {pb!r}*sin(2*pi*t/{T!r})")
        spec = SystemSpec(ts, p, parse(q_text))
        try:
            validate_system(spec)
            solve_phi(spec)
        except FloquetError:
            continue
        # phi = sqrt(q) at the dense starts, read through the evaluator
        # alone: report_digest.py runs this on another tree's package,
        # whose phase table may hold phi otherwise
        for a, _ in ts.dense_intervals():
            assert abs(math.sqrt(evaluate(spec.q, a)) - phi_val(a)) < 1e-12
        return spec
    raise AssertionError("could not generate a valid hybrid system")


# -- fundamental matrix helpers (used by the identity test suites) ----------

def fundamental_matrix(spec: SystemSpec, table: PhaseTable, t: float):
    """X(t) built from cos_phi, sin_phi and phi; X(t0) = I."""
    ts = spec.ts
    phi0 = phase_value(table, ts.t0)
    phi_t = phase_value(table, t)
    phi = partial(phase_value, table)
    c = cos_phi(phi, t, ts.t0, ts, tscalc._QUAD_TOL)
    s = sin_phi(phi, t, ts.t0, ts, tscalc._QUAD_TOL)
    return np.array([[c, s / phi0], [-phi_t * s, phi_t * c / phi0]])


def fundamental_matrix_inverse(spec: SystemSpec, table: PhaseTable, t: float):
    """Closed-form X(t)^{-1}; e_{mu phi^2}(t, t0) = cos_phi^2 + sin_phi^2."""
    ts = spec.ts
    phi0 = phase_value(table, ts.t0)
    phi_t = phase_value(table, t)
    phi = partial(phase_value, table)
    c = cos_phi(phi, t, ts.t0, ts, tscalc._QUAD_TOL)
    s = sin_phi(phi, t, ts.t0, ts, tscalc._QUAD_TOL)
    e = c * c + s * s
    return np.array([
        [c / e, -s / (phi_t * e)],
        [phi0 * s / e, phi0 * c / (phi_t * e)],
    ])
