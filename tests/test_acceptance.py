"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (see the 'acceptance criteria' terminal section)."""
import math
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tsfloquet import (
    Interval,
    Verdict,
    a_partial,
    a_term,
    analyze,
    compute_B,
    error_bound,
    shi_continuous_a,
    solve_phi,
)
from tsfloquet.cli import build_system, load_config, main
from tsfloquet.oracle import monodromy

from calculus_reference import (
    cos_phi,
    delta_integral,
    mu_at,
    phase_value,
    q_at,
    sin_phi,
    ts_exponential,
)
from conftest import (
    fundamental_matrix,
    fundamental_matrix_inverse,
    points_scale,
    random_discrete_system,
    random_hybrid_system,
    record_acceptance,
)

PI = math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(number, description, checks):
    ok = all(checks)
    record_acceptance(number, ok, description)
    assert ok, f"criterion {number}: {description}: {checks}"


def test_criterion_1_integer_scale(example_z):
    start = time.perf_counter()
    report = analyze(example_z)
    elapsed = time.perf_counter() - start
    _report(1, "integer scale, period 2: exact A, B, moduli, unstable", [
        abs(report.A_partial - 4.25) <= 1e-10,
        abs(report.B - 1.0) <= 1e-12,
        abs(report.point_moduli[0] - 0.25) <= 1e-10,
        abs(report.point_moduli[1] - 4.0) <= 1e-10,
        report.verdict is Verdict.UNSTABLE,
        report.err_bound.exact,
        elapsed < 0.1,
    ])


def test_criterion_2_even_integer_scale(example_2z):
    start = time.perf_counter()
    report = analyze(example_2z)
    elapsed = time.perf_counter() - start
    _report(2, "even-integer scale, period 6: A(3), B = 1, stable", [
        abs(report.A_partial - (-0.752)) <= 1e-9,
        abs(report.B - 1.0) <= 1e-12,
        report.verdict is Verdict.STABLE,
        elapsed < 0.1,
    ])


def test_criterion_3_hybrid_scale(example_hybrid):
    start = time.perf_counter()
    table = solve_phi(example_hybrid)
    a1 = a_partial(example_hybrid, table, 1)
    a_2 = a_term(example_hybrid, table, 2)
    a_3 = a_term(example_hybrid, table, 3)
    b = compute_B(example_hybrid)
    report = analyze(example_hybrid, n=1)
    elapsed = time.perf_counter() - start
    _report(3, "hybrid scale: A(1), vanishing tail, B, moduli, unstable", [
        abs(a1 - (PI / 4 - 2)) <= 1e-8,
        abs(a_2) <= 1e-10,
        abs(a_3) <= 1e-10,
        abs(b - (PI * PI - PI / 4 + 1)) <= 1e-10,
        abs(report.point_moduli[0] - 3.175564) <= 1e-5,
        abs(report.point_moduli[1] - 3.175564) <= 1e-5,
        report.verdict is Verdict.UNSTABLE,
        elapsed < 5.0,
    ])


def test_criterion_4_continuous_scale(example_continuous):
    start = time.perf_counter()
    report = analyze(example_continuous, n=3)
    elapsed = time.perf_counter() - start
    _report(4, "continuous scale: A(3), B, truncation bound, stable", [
        abs(report.A_partial - (-0.065450)) <= 1e-5,
        abs(report.B - 1.0) <= 1e-9,
        abs(report.err_bound.value - 0.360016406528039) <= 1e-9,
        report.verdict is Verdict.STABLE,
        elapsed < 120.0,
    ])


_MATHIEU = [
    ("h1_1.cfg", 2.000049), ("h1_2.cfg", 2.000044),
    ("h1_3.cfg", -2.000001), ("h1_4.cfg", -2.000000),
    ("h2_1.cfg", 2.000798), ("h2_2.cfg", 2.000384),
    ("h2_3.cfg", -2.000009), ("h2_4.cfg", -2.000018),
    ("h3_1.cfg", 1.998646), ("h3_2.cfg", 1.998733),
    ("h3_3.cfg", -2.000103), ("h3_4.cfg", -2.000093),
]


def test_criterion_5_mathieu_table():
    checks = []
    for name, want in _MATHIEU:
        spec = build_system(load_config(CONFIGS / "mathieu" / name))
        start = time.perf_counter()
        report = analyze(spec, n=3)
        elapsed = time.perf_counter() - start
        checks.append(abs(report.A_partial - want) <= 5e-5)
        checks.append(elapsed <= 120.0)
    _report(5, "12 Mathieu equations reproduce tabulated A(3)", checks)


def test_criterion_6_oracle_equivalence():
    checks = []
    for seed in range(100):
        spec = random_discrete_system(1000 + seed)
        k = len(spec.ts.scattered_with_mu())
        table = solve_phi(spec)
        a_series = a_partial(spec, table, k)
        a_oracle = float(np.trace(monodromy(spec)))
        checks.append(
            abs(a_series - a_oracle) <= 1e-10 * max(1.0, abs(a_oracle)))
        checks.extend(
            abs(a_term(spec, table, n)) <= 1e-12
            for n in range(k + 1, k + 3))
    for seed in range(50):
        spec = random_hybrid_system(2000 + seed)
        table = solve_phi(spec)
        Y = monodromy(spec)
        a_series = a_partial(spec, table, 3)
        b_series = compute_B(spec)
        bound = error_bound(spec, table, 3).value
        checks.append(abs(float(np.trace(Y)) - a_series) <= bound + 1e-6)
        checks.append(abs(float(np.linalg.det(Y)) - b_series)
                      <= 1e-8 * max(1.0, abs(b_series)))
    _report(6, "oracle equivalence on 100 discrete + 50 hybrid systems",
            checks)


def test_criterion_7_identity_suites():
    checks = []
    instances = 0

    # 60 instances: trig jump and flip identities
    for seed in range(60):
        spec = random_hybrid_system(5000 + seed) if seed % 2 else \
            random_discrete_system(5000 + seed)
        ts = spec.ts
        phi = partial(phase_value, solve_phi(spec))
        t0, t = ts.t0, ts.t_end
        for s, mu in ts.scattered_with_mu():
            c, sn = cos_phi(phi, s, t0, ts), sin_phi(phi, s, t0, ts)
            checks.append(abs(sin_phi(phi, s + mu, t0, ts)
                              - (sn + mu * phi(s) * c)) <= 1e-9)
            checks.append(abs(cos_phi(phi, s + mu, t0, ts)
                              - (c - mu * phi(s) * sn)) <= 1e-9)
        e = ts_exponential(lambda u: mu_at(ts, u) * phi(u) ** 2, t, t0, ts)
        checks.append(abs(sin_phi(phi, t, t0, ts)
                          + e * sin_phi(phi, t0, t, ts)) <= 1e-9 * (1 + e))
        checks.append(abs(cos_phi(phi, t, t0, ts)
                          - e * cos_phi(phi, t0, t, ts)) <= 1e-9 * (1 + e))
        instances += 1

    # 50 instances: exponential semigroup
    for seed in range(50):
        spec = random_hybrid_system(6000 + seed)
        ts = spec.ts
        g = lambda u: 0.2 * math.cos(u) + 0.1
        ia, ib = ts.dense_intervals()[0]
        _, mid = ts.locate((ia + ib) / 2)
        full = ts_exponential(g, ts.t_end, ts.t0, ts)
        split = (ts_exponential(g, ts.t_end, mid, ts)
                 * ts_exponential(g, mid, ts.t0, ts))
        checks.append(abs(split - full) <= 1e-8 * max(1.0, abs(full)))
        instances += 1

    # 60 instances: X X^{-1} = I and the phi-defining equation
    for seed in range(60):
        spec = random_hybrid_system(7000 + seed) if seed % 2 else \
            random_discrete_system(7000 + seed)
        ts = spec.ts
        table = solve_phi(spec)
        samples = [t for t, _ in ts.scattered_with_mu()] + [ts.t_end]
        for a, b in ts.dense_intervals():
            samples.append((a + b) / 2)
        for t in samples:
            X = fundamental_matrix(spec, table, t)
            Xinv = fundamental_matrix_inverse(spec, table, t)
            checks.append(bool(np.all(np.isfinite(X))))
            checks.append(
                float(np.max(np.abs(X @ Xinv - np.eye(2)))) <= 1e-9)
        for t, mu in ts.scattered_with_mu():
            checks.append(abs(phase_value(table, t + mu)
                              * phase_value(table, t)
                              - q_at(spec, t)) <= 1e-10)
        instances += 1

    # 30 instances: simplex bound for nested constant integrals
    for seed in range(30):
        spec = random_hybrid_system(8000 + seed) if seed % 2 else \
            random_discrete_system(8000 + seed)
        ts = spec.ts
        a, b = ts.t0, ts.t_end
        c = 1.0 + (seed % 3)
        inner = lambda t: delta_integral(lambda u: c, a, t, ts, tol=1e-7)
        val1 = inner(b)
        val2 = delta_integral(inner, a, b, ts, tol=1e-7)
        checks.append(val1 <= c * (b - a) + 1e-6)
        checks.append(val2 <= c * (b - a) ** 2 / 2 + 1e-6)
        instances += 1

    checks.append(instances >= 200)
    _report(7, f"identity suites on {instances} randomized instances",
            checks)


def test_criterion_8_phase_form_cross_validation(example_continuous):
    table = solve_phi(example_continuous)
    shi = shi_continuous_a(example_continuous, table, 3)
    series = a_partial(example_continuous, table, 3)
    _report(8, "phase-form series matches A(3) on the continuous example",
            [abs(shi - series) <= 1e-5])


_GOLDEN = {
    "example_discrete_z.cfg": (
        "The value of A is 4.250000\n"
        "The value of B is 1.000000\n"
        "The modulus of multipliers are 0.250000 4.000000.\n"),
    "example_discrete_2z.cfg": (
        "The value of A is -0.752000\n"
        "The value of B is 1.000000\n"
        "The modulus of multipliers are 1.000000 1.000000.\n"),
    "example_hybrid.cfg": (
        "The value of A(1) is -1.214602\n"
        "The value of B is 10.084206\n"
        "The 1th approximate modulus are 3.175564 3.175564.\n"),
    "example_continuous.cfg": (
        "The value of A(3) is -0.065450\n"
        "The value of B is 1.000000\n"
        "The 3th approximate modulus are 1.000000 1.000000.\n"),
}


def test_criterion_9_golden_cli_transcripts():
    checks = []
    for name, golden in _GOLDEN.items():
        result = CliRunner().invoke(main, ["analyze", str(CONFIGS / name)])
        head = "".join(result.output.splitlines(keepends=True)[:3])
        checks.append(head == golden)
    _report(9, "reference transcripts reproduced bit-exactly", checks)
