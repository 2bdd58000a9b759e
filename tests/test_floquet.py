import math

import numpy as np
import pytest

from tsfloquet import (
    ErrorBound,
    Interval,
    PeriodicTimeScale,
    Point,
    SystemSpec,
    Verdict,
    a_partial,
    a_term,
    analyze,
    compute_B,
    error_bound,
    estimate_bounds,
    h_fn,
    kernel_P,
    kernel_Q,
    multipliers,
    parse,
    phi_delta,
    shi_continuous_a,
    solve_phi,
    validate,
    verdict,
)
from tsfloquet.errors import (
    BNotOne,
    DepthBudgetExceeded,
    NegativeQOnDense,
    NotContinuousScale,
    NotRegressive,
    PhiVanishes,
)
from tsfloquet.floquet import _SeriesEngine, validate_system
from tsfloquet.oracle import monodromy

from conftest import (
    fundamental_matrix,
    fundamental_matrix_inverse,
    points_scale,
    random_discrete_system,
    random_hybrid_system,
)
from discrete_reference import discrete_terms

PI = math.pi


# -- phi ---------------------------------------------------------------------

def test_solve_phi_integer_example(example_z):
    table = solve_phi(example_z, seed=1.0)
    assert table.value(0) == 1.0
    assert table.value(1) == pytest.approx(-7 / 8, abs=1e-15)
    assert table.value(2) == pytest.approx(-8 / 7, abs=1e-15)


def test_solve_phi_hybrid_is_one(example_hybrid):
    table = solve_phi(example_hybrid)
    for t in (0.0, 1.0, PI, 2 * PI):
        assert table.value(t) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_phi_defining_equation(seed):
    spec = random_hybrid_system(seed) if seed % 2 else \
        random_discrete_system(seed)
    table = solve_phi(spec)
    ts = spec.ts
    for t, mu in ts.scattered_with_mu():
        assert table.value(t + mu) * table.value(t) == pytest.approx(
            spec.q_at(t), rel=1e-12)
    for a, b in ts.dense_intervals():
        mid = (a + b) / 2
        assert table.value(mid) == pytest.approx(
            math.sqrt(spec.q_at(mid)), rel=1e-14)


def test_phi_vanishes():
    spec = SystemSpec(points_scale([0, 1, 2]), parse("0"), parse("t"))
    with pytest.raises(PhiVanishes):
        validate_system(spec)


def test_not_regressive():
    # mu=1, p=2, q=1: 1 - mu p + mu^2 q = 0
    spec = SystemSpec(points_scale([0, 1, 2]), parse("2"), parse("1"))
    with pytest.raises(NotRegressive):
        validate_system(spec)


def test_phi_discontinuity_warning():
    # q whose chain value at the dense junction differs from sqrt(q)
    ts = validate(
        PeriodicTimeScale(0, 4, [Interval(0, 1), Interval(2, 4)]))
    spec = SystemSpec(ts, parse("0"), parse("1 + t/2"))
    from tsfloquet.floquet import PhiDiscontinuityWarning
    with pytest.warns(PhiDiscontinuityWarning):
        solve_phi(spec)


def test_gauge_invariance_of_A(example_z):
    t1 = solve_phi(example_z, seed=1.0)
    t2 = solve_phi(example_z, seed=-2.5)
    assert a_partial(example_z, t2, 2) == pytest.approx(
        a_partial(example_z, t1, 2), abs=1e-9)


def test_phi_delta(example_z, example_hybrid):
    table = solve_phi(example_z, seed=1.0)
    assert phi_delta(table, 0) == pytest.approx(-15 / 8)
    table_h = solve_phi(example_hybrid)
    assert phi_delta(table_h, 1.0) == 0.0  # q constant on the dense part


# -- h and kernels -----------------------------------------------------------

def test_h_values(example_z, example_hybrid):
    table = solve_phi(example_z, seed=1.0)
    assert h_fn(example_z, table, 0) == pytest.approx(2.0)
    assert h_fn(example_z, table, 1) == pytest.approx(83 / 49)
    table_h = solve_phi(example_hybrid)
    assert h_fn(example_hybrid, table_h, PI) == pytest.approx(-0.25)
    assert h_fn(example_hybrid, table_h, 1.0) == 0.0


def test_kernels_integer_example(example_z):
    table = solve_phi(example_z, seed=1.0)
    assert kernel_P(example_z, table, 1, 0) == pytest.approx(0.0, abs=1e-14)
    assert kernel_Q(example_z, table, 1, 0) == pytest.approx(1.0)
    assert kernel_P(example_z, table, 2, 0) == pytest.approx(1.0)
    assert kernel_Q(example_z, table, 2, 0) == pytest.approx(64 / 49)
    assert kernel_P(example_z, table, 2, 1) == pytest.approx(0.0, abs=1e-14)
    assert kernel_Q(example_z, table, 2, 1) == pytest.approx(1.0)


def test_kernels_hybrid(example_hybrid):
    table = solve_phi(example_hybrid)
    assert kernel_P(example_hybrid, table, 2 * PI, PI) == pytest.approx(
        0.0, abs=1e-12)
    assert kernel_Q(example_hybrid, table, 2 * PI, PI) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(10))
def test_kernel_q_at_sigma_is_one(seed):
    spec = random_hybrid_system(400 + seed)
    table = solve_phi(spec)
    for s, mu in spec.ts.scattered_with_mu():
        assert kernel_Q(spec, table, s + mu, s) == pytest.approx(1.0,
                                                                 rel=1e-10)


# -- B -----------------------------------------------------------------------

def test_compute_B_examples(example_z, example_hybrid, example_continuous):
    assert compute_B(example_z) == pytest.approx(1.0, abs=1e-14)
    assert compute_B(example_hybrid) == pytest.approx(
        PI * PI - PI / 4 + 1, abs=1e-10)
    assert compute_B(example_continuous) == pytest.approx(1.0, abs=1e-10)


# -- series terms ------------------------------------------------------------

def test_terms_integer_example(example_z):
    table = solve_phi(example_z, seed=1.0)
    assert a_term(example_z, table, 0) == pytest.approx(-15 / 56, abs=1e-14)
    assert a_term(example_z, table, 1) == pytest.approx(
        128 / 49 - (7 / 8) * (83 / 49), abs=1e-13)
    assert a_term(example_z, table, 2) == pytest.approx(166 / 49, abs=1e-13)
    assert a_term(example_z, table, 3) == 0.0  # series terminates at k=2
    assert a_term(example_z, table, 4) == 0.0
    assert a_partial(example_z, table, 2) == pytest.approx(17 / 4, abs=1e-10)


def test_terms_hybrid_example(example_hybrid):
    table = solve_phi(example_hybrid)
    assert a_term(example_hybrid, table, 0) == pytest.approx(-2.0, abs=1e-12)
    assert a_term(example_hybrid, table, 1) == pytest.approx(PI / 4, abs=1e-10)
    assert abs(a_term(example_hybrid, table, 2)) <= 1e-10
    assert abs(a_term(example_hybrid, table, 3)) <= 1e-10
    assert a_partial(example_hybrid, table, 1) == pytest.approx(
        PI / 4 - 2, abs=1e-8)


def test_terms_continuous_example(example_continuous):
    table = solve_phi(example_continuous)
    assert a_partial(example_continuous, table, 3) == pytest.approx(
        -0.065450, abs=1e-5)


def test_a_partial_2z(example_2z):
    table = solve_phi(example_2z)
    assert a_partial(example_2z, table, 3) == pytest.approx(-0.752, abs=1e-9)


def test_depth_budget(example_continuous):
    table = solve_phi(example_continuous)
    with pytest.raises(DepthBudgetExceeded):
        a_term(example_continuous, table, 9)


def test_negative_q_on_dense():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("0"), parse("0 - 1"))
    with pytest.raises(NegativeQOnDense):
        a_partial(spec, solve_phi(spec), 1)


@pytest.mark.parametrize("seed", range(20))
def test_engine_matches_enumeration_on_discrete(seed):
    spec = random_discrete_system(500 + seed)
    table = solve_phi(spec)
    k = len(spec.ts.scattered_with_mu())
    exact = discrete_terms(spec, table, k)
    engine = _SeriesEngine(spec, table).terms(k)
    assert engine == pytest.approx(exact, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("k", [24, 40])
def test_discrete_series_matches_monodromy(k):
    # on a discrete scale the monodromy is a product of one-step matrices,
    # exact up to rounding, and so is the series at order k
    for seed in range(20):
        spec = random_discrete_system(seed, max_points=k, min_points=k)
        trace = float(np.trace(monodromy(spec)))
        assert a_partial(spec, solve_phi(spec), k) == pytest.approx(
            trace, rel=1e-9)
        report = analyze(spec)
        assert report.n == k
        assert report.A_partial == pytest.approx(trace, rel=1e-9)


# -- bounds ------------------------------------------------------------------

def test_estimate_bounds_continuous(example_continuous):
    table = solve_phi(example_continuous)
    K1, K2, K3 = estimate_bounds(example_continuous, table)
    T = example_continuous.ts.period
    assert K2 * K3 * T == pytest.approx(PI / 2, abs=1e-9)
    assert K1 / K2 == pytest.approx(1.0, abs=1e-9)


def test_estimate_bounds_hybrid(example_hybrid):
    table = solve_phi(example_hybrid)
    _, _, K3 = estimate_bounds(example_hybrid, table)
    assert K3 >= 0.25 - 1e-12  # |h(pi)| = 1/4


def test_error_bound_continuous(example_continuous):
    table = solve_phi(example_continuous)
    eb = error_bound(example_continuous, table, 3)
    z = PI / 2
    want = math.exp(z) - (1 + z + z * z / 2 + z ** 3 / 6)
    assert not eb.exact
    assert eb.value == pytest.approx(want, abs=1e-9)
    assert eb.value == pytest.approx(0.360016406528039, abs=1e-9)


def test_error_bound_discrete_exact(example_z):
    table = solve_phi(example_z)
    assert error_bound(example_z, table, 2) == ErrorBound(0.0, exact=True)
    # below the termination order the generic bound applies
    eb = error_bound(example_z, table, 1)
    assert not eb.exact and eb.value > 0


# -- multipliers and verdict --------------------------------------------------

def test_multipliers_point_interval():
    (slo, shi_), (llo, lhi) = multipliers((17 / 4, 17 / 4), 1.0)
    assert (slo, shi_) == pytest.approx((0.25, 0.25), abs=1e-10)
    assert (llo, lhi) == pytest.approx((4.0, 4.0), abs=1e-10)


def test_multipliers_complex_pair():
    (slo, shi_), (llo, lhi) = multipliers((-1.2147, -1.2145),
                                          PI * PI - PI / 4 + 1)
    root = math.sqrt(PI * PI - PI / 4 + 1)
    for v in (slo, shi_, llo, lhi):
        assert v == pytest.approx(root, abs=1e-4)
        assert v == pytest.approx(3.175564, abs=1e-5)


def test_multipliers_breakpoint_inside_interval():
    # interval straddles 2*sqrt(B): the larger-modulus max is attained at
    # an endpoint, the smaller-modulus min at the breakpoint
    (slo, _), (_, lhi) = multipliers((1.5, 2.5), 1.0)
    assert slo == pytest.approx(0.5)  # at A=2.5: (2.5-1.5)/2
    assert lhi == pytest.approx(2.0)  # at A=2.5: (2.5+1.5)/2
    (smin, smax), _ = multipliers((1.9, 2.1), 1.0)
    assert smax == pytest.approx(1.0)  # attained at the breakpoint A=2


def test_multipliers_pure_imaginary():
    (slo, shi_), (llo, lhi) = multipliers((0.0, 0.0), 1.0)
    assert (slo, shi_, llo, lhi) == pytest.approx((1, 1, 1, 1))


@pytest.mark.parametrize("seed", range(10))
def test_series_term_consistency(seed):
    # |A_n| is itself bounded by the n-th tail increment
    spec = random_hybrid_system(800 + seed)
    table = solve_phi(spec)
    K1, K2, K3 = estimate_bounds(spec, table)
    z = K2 * K3 * spec.ts.period
    for n in range(1, 5):
        cap = (K1 / K2) * z ** n / math.factorial(n)
        assert abs(a_term(spec, table, n)) <= cap + 1e-9


def test_error_bound_monotone_to_zero(example_continuous):
    table = solve_phi(example_continuous)
    values = [error_bound(example_continuous, table, n).value
              for n in range(12)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_error_bound_zero_when_h_vanishes():
    # p = -phi^D/phi = 0 with constant q: h == 0, the series is A_0 alone
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("0"), parse("1"))
    table = solve_phi(spec)
    for n in (1, 2, 3):
        assert abs(a_term(spec, table, n)) <= 1e-12
    assert error_bound(spec, table, 0).exact
    # the phase form degenerates to 2 cos(Phi(T)) = 2 cos(pi)
    assert shi_continuous_a(spec, 4) == pytest.approx(-2.0, abs=1e-9)


def test_phi_constant_on_reals():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("0"), parse("1/4"))
    table = solve_phi(spec)
    for t in (0.0, 1.0, PI / 2, PI):
        assert table.value(t) == pytest.approx(0.5, abs=1e-14)
        assert phi_delta(table, t) == pytest.approx(0.0, abs=1e-14)


def test_fundamental_matrix_dense_derivative(example_continuous):
    spec = example_continuous
    table = solve_phi(spec)
    h = 1e-5
    for t in (0.4, 1.1, 2.3):
        dX = (fundamental_matrix(spec, table, t + h)
              - fundamental_matrix(spec, table, t - h)) / (2 * h)
        phi = table.value(t)
        C = np.array([[0.0, 1.0],
                      [-spec.q_at(t), phi_delta(table, t) / phi]])
        rhs = C @ fundamental_matrix(spec, table, t)
        assert float(np.max(np.abs(dX - rhs))) <= 1e-8


def test_infinite_bound_verdict():
    # an infinite A interval leaves the smaller modulus in [0, sqrt(B)] and
    # the larger in [sqrt(B), inf]; only B > 1 decides
    (slo, shi_), (llo, lhi) = multipliers((-math.inf, math.inf), 0.25)
    assert (slo, shi_, llo, lhi) == (0.0, 0.5, 0.5, math.inf)
    v, _ = verdict((-math.inf, math.inf), 0.25)
    assert v is Verdict.UNDETERMINED
    v, _ = verdict((-math.inf, math.inf), 4.0)
    assert v is Verdict.UNSTABLE


def test_verdict_examples():
    v, _ = verdict((17 / 4, 17 / 4), 1.0)
    assert v is Verdict.UNSTABLE
    v, _ = verdict((-0.752, -0.752), 1.0)
    assert v is Verdict.STABLE
    v, _ = verdict((0.5, 0.5), 0.25)
    assert v is Verdict.EXPONENTIALLY_STABLE
    v, _ = verdict((1.9, 2.1), 1.0)
    assert v is Verdict.UNDETERMINED
    # B > 1 forces a multiplier off the unit circle for any A
    v, _ = verdict((-600.0, 600.0), PI * PI - PI / 4 + 1)
    assert v is Verdict.UNSTABLE


# -- phase-form series --------------------------------------------------------

def test_shi_matches_series(example_continuous):
    table = solve_phi(example_continuous)
    shi = shi_continuous_a(example_continuous, 3)
    assert shi == pytest.approx(a_partial(example_continuous, table, 3),
                                abs=1e-5)


def test_shi_requires_continuous(example_hybrid):
    with pytest.raises(NotContinuousScale):
        shi_continuous_a(example_hybrid, 3)


def test_shi_requires_B_one():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("1"), parse("1"))  # B = e^{-pi} != 1
    with pytest.raises(BNotOne):
        shi_continuous_a(spec, 3)


# -- fundamental matrix identities --------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_fundamental_matrix_identities(seed):
    spec = random_hybrid_system(600 + seed) if seed % 2 else \
        random_discrete_system(600 + seed)
    ts = spec.ts
    table = solve_phi(spec)
    assert fundamental_matrix(spec, table, ts.t0) == pytest.approx(np.eye(2))
    samples = [t for t, _ in ts.scattered_with_mu()] + [ts.t_end]
    for a, b in ts.dense_intervals():
        samples.append((a + b) / 2)
    for t in samples:
        X = fundamental_matrix(spec, table, t)
        Xinv = fundamental_matrix_inverse(spec, table, t)
        assert np.all(np.isfinite(X))
        assert X @ Xinv == pytest.approx(np.eye(2), abs=1e-9)
    # jump identity at scattered points, for the unperturbed oscillator
    # x^DD - (phi^D/phi) x^D + q x = 0 whose companion matrix X is:
    # X(sigma(s)) = (I + mu(s) C(s)) X(s), C = [[0, 1], [-q, phi^D/phi]]
    for s, mu in ts.scattered_with_mu():
        C = np.array([
            [0.0, 1.0],
            [-spec.q_at(s), phi_delta(table, s) / table.value(s)],
        ])
        lhs = fundamental_matrix(spec, table, s + mu)
        rhs = (np.eye(2) + mu * C) @ fundamental_matrix(spec, table, s)
        assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_fundamental_matrix_det(seed):
    # det X(t) = phi(t) e_{mu phi^2}(t, t0) / phi(t0)
    spec = random_hybrid_system(700 + seed)
    ts = spec.ts
    table = solve_phi(spec)
    from tsfloquet import ts_exponential
    t = ts.t_end
    X = fundamental_matrix(spec, table, t)
    e = ts_exponential(lambda u: ts.mu(u) * table.value(u) ** 2, t, ts.t0, ts)
    want = table.value(t) * e / table.value(ts.t0)
    assert float(np.linalg.det(X)) == pytest.approx(want, rel=1e-8)


# -- analyze ------------------------------------------------------------------

def test_analyze_defaults_discrete(example_z):
    report = analyze(example_z)
    assert report.n == 2  # k scattered points
    assert report.method == "discrete"
    assert report.A_partial == pytest.approx(4.25, abs=1e-10)
    assert report.verdict is Verdict.UNSTABLE
    assert report.err_bound.exact


def test_analyze_defaults_continuous(example_continuous):
    report = analyze(example_continuous)
    assert report.n == 3
    assert report.method == "series"
    assert report.verdict is Verdict.STABLE
    assert report.point_moduli == pytest.approx((1.0, 1.0), abs=1e-9)


def test_analyze_shi(example_continuous):
    report = analyze(example_continuous, use_shi=True)
    assert report.method == "phase-form"
    assert report.A_partial == pytest.approx(-0.065450, abs=1e-5)
