import dataclasses
import math

import numpy as np
import pytest

from tsfloquet import (
    SystemSpec,
    a_partial,
    a_term,
    analyze,
    compute_B,
    error_bound,
    parse,
    solve_phi,
)
from tsfloquet import floquet as floquet_mod
from tsfloquet.errors import CheckFailed
from tsfloquet.oracle import cross_check, monodromy

from conftest import (
    points_scale,
    random_discrete_system,
    random_hybrid_system,
)

PI = math.pi


def test_monodromy_integer_example(example_z):
    Y = monodromy(example_z)
    assert float(np.trace(Y)) == pytest.approx(17 / 4, abs=1e-12)
    assert float(np.linalg.det(Y)) == pytest.approx(1.0, abs=1e-12)


def test_monodromy_hybrid_example(example_hybrid):
    Y = monodromy(example_hybrid)
    assert float(np.trace(Y)) == pytest.approx(PI / 4 - 2, abs=1e-8)
    assert float(np.linalg.det(Y)) == pytest.approx(
        PI * PI - PI / 4 + 1, abs=1e-8)


def test_monodromy_single_point():
    spec = SystemSpec(points_scale([0, 1]), parse("0.3"), parse("0.7"))
    Y = monodromy(spec)
    want = np.eye(2) + np.array([[0.0, 1.0], [-0.7, -0.3]])
    assert Y == pytest.approx(want, abs=1e-14)
    assert float(np.trace(Y)) == pytest.approx(2 - 0.3)


def test_cross_check_examples(example_z, example_2z, example_continuous):
    r = cross_check(example_z, analyze(example_z, n=2))
    assert r.a_delta <= 1e-10 and r.b_delta <= 1e-10
    r = cross_check(example_2z, analyze(example_2z, n=3))
    assert r.a_delta <= 1e-9
    assert abs(r.a_oracle - (-0.752)) <= 1e-9
    r = cross_check(example_continuous, analyze(example_continuous, n=3))
    assert r.a_delta <= 0.360017


def test_cross_check_failure(example_z):
    report = dataclasses.replace(analyze(example_z, n=2), A_partial=999.0)
    with pytest.raises(CheckFailed) as exc:
        cross_check(example_z, report)
    assert exc.value.a_delta == pytest.approx(999.0 - 4.25)
    assert exc.value.b_delta <= 1e-10


@pytest.mark.parametrize("k", [500, 1000])
def test_cross_check_fails_on_nan(k):
    # unit steps with 1 - mu p + mu^2 q > 4: B and the monodromy overflow;
    # at k = 500 the B delta is NaN (A = 1.2e177 against a trace of
    # -2.7e172), at k = 1000 both deltas are
    spec = SystemSpec(points_scale(list(range(k + 1))), parse("0.1"),
                      parse(f"4 + 0.5*cos(2*pi*t/{k})"))
    with pytest.raises(CheckFailed) as exc:
        cross_check(spec, analyze(spec, n=3))
    assert math.isnan(exc.value.b_delta)
    assert math.isnan(exc.value.a_delta) == (k == 1000)


def test_cross_check_uses_the_given_report(example_continuous, monkeypatch):
    # the oracle checks the numbers analyze reported and never recomputes
    # them: with the series engine and B disabled it still succeeds, and
    # under the phase form it checks the phase-form A that is printed
    report = analyze(example_continuous, n=3, use_shi=True)

    def boom(*args, **kwargs):
        raise AssertionError("cross_check re-ran the analysis")

    monkeypatch.setattr(floquet_mod, "_SeriesEngine", boom)
    monkeypatch.setattr(floquet_mod, "compute_B", boom)
    r = cross_check(example_continuous, report)
    assert r.a_delta == abs(r.a_oracle - report.A_partial)
    assert r.b_delta == abs(r.b_oracle - report.B)


@pytest.mark.parametrize("seed", range(100))
def test_discrete_equivalence(seed):
    spec = random_discrete_system(1000 + seed)
    k = len(spec.ts.scattered_with_mu())
    table = solve_phi(spec)
    a_series = a_partial(spec, table, k)
    Y = monodromy(spec)
    a_oracle = float(np.trace(Y))
    assert a_series == pytest.approx(a_oracle, rel=1e-10, abs=1e-12)
    for n in range(k + 1, k + 3):
        assert abs(a_term(spec, table, n)) <= 1e-12


@pytest.mark.parametrize("seed", range(50))
def test_hybrid_equivalence(seed):
    spec = random_hybrid_system(2000 + seed)
    n = 3
    table = solve_phi(spec)
    a_series = a_partial(spec, table, n)
    b_series = compute_B(spec)
    Y = monodromy(spec)
    bound = error_bound(spec, table, n).value
    assert abs(float(np.trace(Y)) - a_series) <= bound + 1e-6
    assert abs(float(np.linalg.det(Y)) - b_series) <= 1e-8 * max(
        1.0, abs(b_series))
