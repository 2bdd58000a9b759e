import dataclasses
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from tsfloquet import (
    Enclosure,
    SystemSpec,
    a_partial,
    a_term,
    analyze,
    compute_B,
    error_bound,
    parse,
    solve_phi,
    verdict,
)
from tsfloquet import expr as ex
from tsfloquet import floquet as floquet_mod
from tsfloquet import oracle
from tsfloquet.cli import build_system, load_config
from tsfloquet.errors import CheckFailed, StepSizeUnderflow
from tsfloquet.oracle import cross_check, monodromy
from tsfloquet.timescale import Interval, PeriodicTimeScale, validate

from calculus_reference import dense_intervals, p_at, q_at, steps
from conftest import (
    points_scale,
    random_discrete_system,
    random_hybrid_system,
)
from oracle_reference import _propagators as reference_propagators
from report_digest import S_FAMILY, s_family

PI = math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAN = "0*(1e200*1e200 - 1e200*1e200)"  # inf - inf, with no expression error


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


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("s", S_FAMILY)
def test_s_family_agrees_with_the_oracle(s, n, tmp_path):
    # p = 0.01 sin t and q = s (1 + 0.3 cos t): the phase winds ~sqrt(s)
    # radians over the period. A grid of T/4096 missed the oracle's A by
    # 2.84e-5 at s = 1e6, past the 2.60e-5 that n = 8 allows. The verdict
    # must be the one the oracle's A gives with the same bound and B
    cfg = tmp_path / "s.cfg"
    cfg.write_text(s_family(s))
    spec = build_system(load_config(cfg))
    report = analyze(spec, n=n)
    check = cross_check(spec, report)
    err = report.err_bound.value
    a = Enclosure(check.a_oracle - err, check.a_oracle + err)
    assert (verdict(a, floquet_mod._b_enclosure(report.B))[0]
            is report.verdict)


def test_cross_check_failure(example_z):
    report = dataclasses.replace(analyze(example_z, n=2), A_partial=999.0)
    with pytest.raises(CheckFailed) as exc:
        cross_check(example_z, report)
    assert exc.value.a_delta == pytest.approx(999.0 - 4.25)
    assert exc.value.b_delta <= 1e-10


def test_cross_check_tolerances_are_relative_to_the_oracle():
    # B = e^20 ~ 4.85e8: the determinant is ~2e-2 off it, 4.5e-11
    # relative, and passes; a B off by 1e-6 relative does not
    spec = SystemSpec(validate(PeriodicTimeScale(
        0.0, 20.0, [Interval(0.0, 20.0)])), parse("-1"), parse("1"))
    report = analyze(spec, n=3)
    r = cross_check(spec, report)
    assert r.b_allowed == oracle._CHECK_TOL * abs(r.b_oracle)
    assert r.allowed == report.err_bound.value + oracle._CHECK_TOL * abs(
        r.a_oracle)
    assert 1e-4 < r.b_delta <= r.b_allowed
    with pytest.raises(CheckFailed) as exc:
        cross_check(spec, dataclasses.replace(report,
                                              B=report.B * (1 + 1e-6)))
    assert exc.value.b_delta == pytest.approx(1e-6 * report.B, rel=1e-3)


def test_cross_check_allows_for_det_cancellation():
    # 12 unit steps of q = -2 + 0.1 cos(t): det(Y) = 1.01 subtracts two
    # products of ~3.9e8, so the rounding of Y alone moves it by ~3e-8,
    # past _CHECK_TOL; gamma_12 times their sum allows for it
    spec = SystemSpec(points_scale(list(range(13))), parse("0"),
                      parse("-2 + 0.1*cos(t)"))
    r = cross_check(spec, analyze(spec, n=3))
    assert 1e-8 < r.b_delta <= r.b_allowed
    Y = monodromy(spec)
    u = 12 * 2.0 ** -53
    assert r.b_allowed == u / (1 - u) * (abs(Y[0, 0] * Y[1, 1])
                                         + abs(Y[0, 1] * Y[1, 0]))


@pytest.mark.parametrize("name", ["example_hybrid.cfg", "mathieu/h3_4.cfg"])
def test_cross_check_still_fails_a_wrong_B(name):
    # where det(Y) does not cancel, a B off by 1e-6 relative still fails
    spec = build_system(load_config(CONFIGS / name))
    report = analyze(spec, n=3)
    r = cross_check(spec, report)
    assert r.b_allowed == oracle._CHECK_TOL * abs(r.b_oracle)
    with pytest.raises(CheckFailed):
        cross_check(spec, dataclasses.replace(report,
                                              B=report.B * (1 + 1e-6)))


def test_cross_check_holds_a_small_B_to_its_relative_tolerance(
        monkeypatch, tmp_path):
    # the benchmark's 100-cell hybrid with p kinked inside several cells:
    # B ~ 1.2e-15, so an absolute 1e-8 would pass any B below ~1e-8. The
    # allowance is relative to the determinant, and B off by 1e-6
    # relative fails
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "benchmarks"))
    import workloads

    text = workloads.hybrid_system(random.Random(1), "kinked100", 100,
                                   True).text
    cfg = tmp_path / "kinked100.cfg"
    cfg.write_text(re.sub(r"(?m)^p = .*$",
                          "p = 0.3 + 0.1*abs(sin(pi*t/1.3))", text))
    spec = build_system(load_config(cfg))
    report = analyze(spec, n=3)
    with pytest.raises(CheckFailed) as exc:
        cross_check(spec, dataclasses.replace(report,
                                              B=report.B * (1 + 1e-6)))
    assert exc.value.b_delta == pytest.approx(1e-6 * report.B, rel=1e-3)
    r = cross_check(spec, report)
    assert 0.0 < abs(r.b_oracle) < 1e-12
    assert r.b_delta <= r.b_allowed < 1e-20


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


@pytest.mark.parametrize("t0", [1e15, -3e14])
def test_cross_check_far_from_zero(t0):
    # q = 1 on 520 time units, where the float spacing of t is 0.125 or
    # 0.0625: absolute panel ends would halve onto themselves, leave a
    # panel's half empty and accept it unchecked. As offsets they miss
    # A = 2 cos(520) by 6.7e-10, as at t0 = 0
    ts = validate(PeriodicTimeScale(t0, 520, [Interval(t0, t0 + 520)]))
    spec = SystemSpec(ts, parse("0"), parse("1"))
    assert cross_check(spec, analyze(spec, n=3)).a_delta <= 1e-9


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


# -- guards of the panel refinement -------------------------------------------

def _dense_system(p_text, q_text, cells=((0.0, 1.0),), period=1.0):
    segments = [Interval(*c) for c in cells]
    return SystemSpec(validate(PeriodicTimeScale(0.0, period, segments)),
                      parse(p_text), parse(q_text))


def _q_samples(monkeypatch, q):
    """The sizes of the arrays q is sampled on, one per evaluate_array
    call, filled in as the oracle runs."""
    sizes = []
    evaluate_array = ex.evaluate_array

    def counted(e, x):
        if e is q:
            sizes.append(len(x))
        return evaluate_array(e, x)

    monkeypatch.setattr(ex, "evaluate_array", counted)
    return sizes


def test_nan_coefficient_names_its_interval_at_once(monkeypatch):
    # q is NaN on the second interval only; the first round stops there
    spec = _dense_system("0", f"if(lt(t, 1.5), 1, 1 + {NAN})",
                         cells=((0.0, 1.0), (2.0, 3.0)), period=3.0)
    sizes = _q_samples(monkeypatch, spec.q)
    with pytest.raises(StepSizeUnderflow,
                       match=r"non-finite coefficient on \[2\.0, 3\.0\]"):
        monodromy(spec)
    # three Gauss nodes on each interval and on both of its halves, once
    assert sizes == [18]


def test_fast_oscillation_exhausts_the_evaluation_budget(monkeypatch):
    # no panel a float can hold resolves sin(1e9 t) to rk_tol: refinement
    # stops at the budget instead of doubling the panels without end
    spec = _dense_system("0", "1 + 0.5*sin(1e9*t)")
    sizes = _q_samples(monkeypatch, spec.q)
    start = time.perf_counter()
    with pytest.raises(StepSizeUnderflow,
                       match=r"unreachable within .* on \[0\.0, 1\.0\]"):
        monodromy(spec)
    assert time.perf_counter() - start < 30.0
    assert sum(sizes) <= oracle._EVAL_BUDGET


def test_overflowing_propagator_names_its_interval():
    spec = _dense_system("1.7e308", "1.7e308")
    with pytest.raises(StepSizeUnderflow,
                       match=r"non-finite propagator on \[0\.0, 1\.0\]"):
        monodromy(spec)


def _certify_paths(workloads, tmp_path):
    """The committed configs and the certify workload's two hybrids."""
    paths = sorted(CONFIGS.glob("*.cfg")) + sorted(
        CONFIGS.glob("mathieu/*.cfg"))
    for system in workloads.build("certify", 1, CONFIGS.parent).systems:
        if system.name.startswith("hybrid10"):
            paths.append(tmp_path / f"{system.name}.cfg")
            paths[-1].write_text(system.text)
    assert len(paths) == 18
    return paths


def test_refinement_takes_at_most_three_rounds(workloads, tmp_path,
                                               monkeypatch):
    # the halvings predicted from each panel's error, with their margin,
    # settle the committed configs and the certify workload's hybrids in
    # two or three rounds, one q sampling call each
    for path in _certify_paths(workloads, tmp_path):
        spec = build_system(load_config(path))
        sizes = _q_samples(monkeypatch, spec.q)
        monodromy(spec)
        assert len(sizes) <= 3, path.name


def test_refinement_panels_stay_few(workloads, tmp_path, monkeypatch):
    # every round samples 9 nodes per active panel: a panel and both its
    # halves. The margin sends a rejected panel to its final size at once
    # instead of through a further round of panels that narrowly miss
    panels = 0
    for path in _certify_paths(workloads, tmp_path):
        spec = build_system(load_config(path))
        sizes = _q_samples(monkeypatch, spec.q)
        monodromy(spec)
        panels += sum(sizes) // 9
    assert panels <= 1400


def _first_round(spec):
    """The first round's panels, as offsets from their interval's left
    end: every dense interval and both halves."""
    ends = np.array(dense_intervals(spec.ts), dtype=float)
    lo, hi = np.zeros(len(ends)), ends[:, 1] - ends[:, 0]
    mid = 0.5 * (lo + hi)
    interval = np.arange(len(ends))
    return (np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]),
            ends, np.concatenate([interval] * 3))


def _assert_matches_reference(spec, lo, hi, ends, interval):
    R = oracle._propagators(spec, lo, hi, ends, interval)
    want = reference_propagators(spec, lo, hi, ends, interval)
    scale = np.abs(want).max(axis=(1, 2))
    assert (np.abs(R - want).max(axis=(1, 2)) <= 1e-14 * scale).all()


@pytest.mark.parametrize(
    "path",
    sorted(CONFIGS.glob("*.cfg")) + sorted(CONFIGS.glob("mathieu/*.cfg")),
    ids=lambda p: p.relative_to(CONFIGS).as_posix(),
)
def test_propagators_match_the_reference_on_committed_configs(path):
    spec = build_system(load_config(path))
    if dense_intervals(spec.ts):
        _assert_matches_reference(spec, *_first_round(spec))


@pytest.mark.parametrize("seed", range(30))
def test_propagators_match_the_reference(seed):
    # the first round's panels, and 200 random panels of widths from 1e-6
    # of their interval to all of it
    spec = random_hybrid_system(seed)
    _assert_matches_reference(spec, *_first_round(spec))
    rng = np.random.default_rng(seed)
    ends = np.array(dense_intervals(spec.ts), dtype=float)
    interval = rng.integers(len(ends), size=200)
    a, b = ends[interval].T
    width = (b - a) * 10.0 ** rng.uniform(-6, 0, size=200)
    lo = (b - a - width) * rng.uniform(size=200)
    _assert_matches_reference(spec, lo, lo + width, ends, interval)


def _uniform_monodromy(spec, panels):
    """The monodromy with every dense interval cut into `panels` equal
    panels, their propagators multiplied in time order, and the exact
    one-step product at each scattered point."""
    Y = np.eye(2)
    for seg, step in steps(spec.ts):
        if isinstance(seg, Interval):
            edges = np.linspace(0.0, seg.end - seg.start, panels + 1)
            R = oracle._propagators(spec, edges[:-1], edges[1:],
                                    np.array([[seg.start, seg.end]]),
                                    np.zeros(panels, dtype=int))
            for r in R:
                Y = r @ Y
        if step is not None:
            t, mu = step
            S = np.array([[0.0, 1.0], [-q_at(spec, t), -p_at(spec, t)]])
            Y = (np.eye(2) + mu * S) @ Y
    return Y


@pytest.mark.parametrize("seed", range(30))
def test_adaptive_panels_match_a_uniform_grid(seed):
    # the cutting and the time-ordered product of the refined panels,
    # against 2048 equal panels per dense interval
    spec = random_hybrid_system(seed)
    Y = monodromy(spec)
    want = _uniform_monodromy(spec, 2048)
    tol = 1e-9 * max(1.0, np.abs(want).max())
    assert abs(np.trace(Y) - np.trace(want)) <= tol
    assert abs(np.linalg.det(Y) - np.linalg.det(want)) <= tol


# -- accuracy against the benchmark's independent reference ------------------

@pytest.mark.parametrize(
    "path",
    sorted(CONFIGS.glob("*.cfg")) + sorted(CONFIGS.glob("mathieu/*.cfg")),
    ids=lambda p: p.relative_to(CONFIGS).as_posix(),
)
def test_monodromy_matches_the_reference_on_committed_configs(reference,
                                                              path):
    # mpmath on the discrete examples, DOP853 at rtol = atol = 1e-12 on
    # dense parts
    a_ref, b_ref = reference.monodromy_ref(path.read_text())
    Y = monodromy(build_system(load_config(path)))
    assert abs(float(np.trace(Y)) - a_ref) <= 2e-10
    assert abs(float(np.linalg.det(Y)) - b_ref) <= 2e-10


@pytest.mark.parametrize("seed", range(1, 6))
def test_monodromy_matches_the_reference_on_hybrids(workloads, reference,
                                                    tmp_path, seed):
    # the 10-cell hybrids, damped and growing, of the certify workload. The
    # reference is the looser side here: at rtol 1e-12 its own trace error
    # reaches ~1.4e-9 on some other seeded 10-cell hybrids, and it moves
    # onto the oracle's trace as its rtol is tightened to 2.2e-14
    systems = [s for s in workloads.build("certify", seed, CONFIGS.parent)
               .systems if s.name.startswith("hybrid10")]
    assert len(systems) == 2
    for system in systems:
        cfg = tmp_path / f"{system.name}.cfg"
        cfg.write_text(system.text)
        a_ref, b_ref = reference.monodromy_ref(system.text)
        Y = monodromy(build_system(load_config(cfg)))
        assert abs(float(np.trace(Y)) - a_ref) <= 1e-9 * max(1.0, abs(a_ref))
        assert abs(float(np.linalg.det(Y)) - b_ref) <= 1e-9 * max(
            1.0, abs(b_ref))
