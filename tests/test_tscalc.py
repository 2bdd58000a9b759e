import math
from functools import partial

import pytest

from tsfloquet import (
    Interval,
    PeriodicTimeScale,
    Point,
    parse,
    solve_phi,
    validate,
)
from tsfloquet.errors import QuadratureNonConvergence

from calculus_reference import (
    EndpointsNotInTimeScale,
    cos_phi,
    delta_integral,
    mu_at,
    p_at,
    phase_value,
    q_at,
    sin_phi,
    ts_exponential,
)
from conftest import random_discrete_system, random_hybrid_system
import expr_reference

PI = math.pi


def hybrid_scale():
    return validate(
        PeriodicTimeScale(0, 2 * PI, [Interval(0, PI), Point(2 * PI)])
    )


def test_delta_integral_length():
    ts = hybrid_scale()
    # pi from the interval plus mu(pi) * 1 from the jump at pi
    assert delta_integral(lambda t: 1.0, 0, 2 * PI, ts) == pytest.approx(
        2 * PI, abs=1e-12)


def test_delta_integral_discrete_enumeration():
    ts = validate(PeriodicTimeScale(0, 2, [Point(0), Point(1), Point(2)]))
    f = lambda t: (5 + 3 * (-1) ** round(t)) / 2 ** (2 * t + 3)
    got = delta_integral(f, 0, 2, ts)
    want = f(0.0) * 1.0 + f(1.0) * 1.0
    assert got == pytest.approx(want, abs=1e-15)


def test_delta_integral_pure_quadrature():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    got = delta_integral(math.sin, 0, PI, ts, tol=1e-12)
    assert got == pytest.approx(2.0, abs=1e-11)


def test_delta_integral_endpoint_errors():
    ts = hybrid_scale()
    with pytest.raises(EndpointsNotInTimeScale):
        delta_integral(lambda t: 1.0, 0, 4.0, ts)
    with pytest.raises(EndpointsNotInTimeScale):
        delta_integral(lambda t: 1.0, 1.0, 0.5, ts)


def test_quadrature_nonconvergence():
    ts = validate(PeriodicTimeScale(0, 1, [Interval(0, 1)]))
    with pytest.raises(QuadratureNonConvergence):
        delta_integral(lambda t: math.sin(1e5 * t), 0, 1, ts, tol=0.0)


def test_exponential_hybrid_B():
    ts = hybrid_scale()
    p = parse("if(eq(mod(t, 2*pi), pi), 0.25, 0)")

    def g(t):
        return -expr_reference.evaluate(p, t) + mu_at(ts, t) * 1.0

    got = ts_exponential(g, 2 * PI, 0, ts, tol=1e-12)
    assert got == pytest.approx(PI * PI - PI / 4 + 1, abs=1e-10)


def test_exponential_discrete_B(example_z):
    ts = example_z.ts

    def g(t):
        return -p_at(example_z, t) + mu_at(ts, t) * q_at(example_z, t)

    assert ts_exponential(g, 2, 0, ts) == pytest.approx(1.0, abs=1e-14)


def test_exponential_reciprocal():
    ts = hybrid_scale()
    g = math.cos
    forward = ts_exponential(g, 2 * PI, 0, ts)
    backward = ts_exponential(g, 0, 2 * PI, ts)
    assert forward * backward == pytest.approx(1.0, abs=1e-10)


def test_trig_example_values(example_z):
    table = solve_phi(example_z, seed=1.0)
    phi = partial(phase_value, table)
    ts = example_z.ts
    assert cos_phi(phi, 0, 0, ts) == 1.0
    assert sin_phi(phi, 0, 0, ts) == 0.0
    assert cos_phi(phi, 1, 0, ts) == pytest.approx(1.0)
    assert sin_phi(phi, 1, 0, ts) == pytest.approx(1.0)
    assert cos_phi(phi, 2, 0, ts) == pytest.approx(15 / 8)
    assert sin_phi(phi, 2, 0, ts) == pytest.approx(1 / 8)
    assert cos_phi(phi, 2, 1, ts) == pytest.approx(1.0)
    assert sin_phi(phi, 2, 1, ts) == pytest.approx(-7 / 8)


@pytest.mark.parametrize("seed", range(20))
def test_exponential_semigroup(seed):
    spec = random_hybrid_system(seed)
    ts = spec.ts
    g = lambda t: 0.3 * math.cos(t) + 0.1
    t0, tT = ts.t0, ts.t_end
    ia, ib = ts.dense_intervals()[0]
    _, mid = ts.locate((ia + ib) / 2)
    full = ts_exponential(g, tT, t0, ts)
    split = ts_exponential(g, tT, mid, ts) * ts_exponential(g, mid, t0, ts)
    assert split == pytest.approx(full, rel=1e-8)


@pytest.mark.parametrize("seed", range(20))
def test_trig_jump_identities(seed):
    spec = random_hybrid_system(100 + seed)
    ts = spec.ts
    table = solve_phi(spec)
    phi = partial(phase_value, table)
    t0 = ts.t0
    for s, mu in ts.scattered_with_mu():
        c, sn = cos_phi(phi, s, t0, ts), sin_phi(phi, s, t0, ts)
        cs = cos_phi(phi, s + mu, t0, ts)
        ss = sin_phi(phi, s + mu, t0, ts)
        assert ss == pytest.approx(sn + mu * phi(s) * c, rel=1e-9, abs=1e-11)
        assert cs == pytest.approx(c - mu * phi(s) * sn, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("seed", range(20))
def test_trig_flip_identities(seed):
    spec = random_hybrid_system(200 + seed) if seed % 2 else \
        random_discrete_system(200 + seed)
    ts = spec.ts
    table = solve_phi(spec)
    phi = partial(phase_value, table)
    s, t = ts.t0, ts.t_end
    e = ts_exponential(lambda u: mu_at(ts, u) * phi(u) ** 2, t, s, ts)
    assert sin_phi(phi, t, s, ts) == pytest.approx(
        -e * sin_phi(phi, s, t, ts), rel=1e-9, abs=1e-11)
    assert cos_phi(phi, t, s, ts) == pytest.approx(
        e * cos_phi(phi, s, t, ts), rel=1e-9, abs=1e-11)
    # Pythagorean form: cos^2 + sin^2 = e_{mu phi^2}
    assert (cos_phi(phi, t, s, ts) ** 2 + sin_phi(phi, t, s, ts) ** 2
            == pytest.approx(e, rel=1e-9))


def _nested_constant(c, n, ts, a, b):
    f = lambda t: c
    for _ in range(n):
        prev = f
        f = lambda t, prev=prev: delta_integral(prev, a, t, ts, tol=1e-7)
    return f(b)


@pytest.mark.parametrize("seed", range(10))
def test_simplex_bound(seed):
    spec = random_hybrid_system(300 + seed) if seed % 2 else \
        random_discrete_system(300 + seed)
    ts = spec.ts
    c = 1.0 + (seed % 3)
    a, b = ts.t0, ts.t_end
    for n in (1, 2, 3):
        val = _nested_constant(c, n, ts, a, b)
        assert val <= c * (b - a) ** n / math.factorial(n) + 1e-6
