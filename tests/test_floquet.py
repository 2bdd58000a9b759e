import functools
import math
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsfloquet import (
    Enclosure,
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
    multipliers,
    parse,
    shi_continuous_a,
    solve_phi,
    validate,
    verdict,
)
from tsfloquet.errors import (
    BNotOne,
    DepthBudgetExceeded,
    DomainError,
    NegativeQOnDense,
    NotContinuousScale,
    NotRegressive,
    PhiVanishes,
    QuadratureNonConvergence,
)
from scipy.integrate import cumulative_simpson

from tsfloquet import expr as ex
from tsfloquet import floquet, tscalc
from tsfloquet.cli import build_system, load_config
from tsfloquet.floquet import (
    PhiDiscontinuityWarning,
    _SeriesEngine,
    validate_system,
)
from tsfloquet.oracle import monodromy
from tsfloquet.tscalc import _QUAD_TOL

from calculus_reference import (
    _adaptive_quad,
    _step_factor,
    dense_intervals,
    h_fn,
    kernel_P,
    kernel_Q,
    mu_at,
    p_at,
    phase_value,
    phi_delta,
    q_at,
    segments,
    ts_exponential,
)
from conftest import (
    fundamental_matrix,
    fundamental_matrix_inverse,
    points_scale,
    random_discrete_system,
    random_hybrid_system,
    unit_step_overflow_system,
)
import cell_reference
from cell_reference import CellEngine
from discrete_reference import discrete_terms
import expr_reference

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent


# -- phi ---------------------------------------------------------------------

def test_solve_phi_integer_example(example_z):
    table = solve_phi(example_z, seed=1.0)
    assert phase_value(table, 0) == 1.0
    assert phase_value(table, 1) == pytest.approx(-7 / 8, abs=1e-15)
    assert phase_value(table, 2) == pytest.approx(-8 / 7, abs=1e-15)


def test_solve_phi_hybrid_is_one(example_hybrid):
    table = solve_phi(example_hybrid)
    for t in (0.0, 1.0, PI, 2 * PI):
        assert phase_value(table, t) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_phi_defining_equation(seed):
    spec = random_hybrid_system(seed) if seed % 2 else \
        random_discrete_system(seed)
    table = solve_phi(spec)
    ts = spec.ts
    for t, mu in ts.scattered_with_mu():
        product = phase_value(table, t + mu) * phase_value(table, t)
        assert product == pytest.approx(q_at(spec, t), rel=1e-12)
    for a, b in dense_intervals(ts):
        mid = (a + b) / 2
        assert phase_value(table, mid) == pytest.approx(
            math.sqrt(q_at(spec, mid)), rel=1e-14)


def test_phi_vanishes():
    spec = SystemSpec(points_scale([0, 1, 2]), parse("0"), parse("t"))
    with pytest.raises(PhiVanishes):
        validate_system(spec)


def test_not_regressive():
    # mu=1, p=2, q=1: 1 - mu p + mu^2 q = 0
    spec = SystemSpec(points_scale([0, 1, 2]), parse("2"), parse("1"))
    with pytest.raises(NotRegressive):
        validate_system(spec)


@pytest.mark.parametrize("q", ["1", "1 + 5e-13", "1 - 5e-13"])
def test_one_step_factor_rule(q):
    # 1 - mu p + mu^2 q vanishes within 1e-12 at t = 1 only: the check and
    # Liouville's product refuse the same step with the same message, which
    # names t as the scale's float arrays hold it
    spec = SystemSpec(points_scale([0, 1, 2]), parse("if(eq(t, 1), 2, 0.5)"),
                      parse(q))
    with pytest.raises(NotRegressive) as checked:
        validate_system(spec)
    with pytest.raises(NotRegressive) as product:
        compute_B(spec)
    assert str(checked.value) == str(product.value)
    assert str(checked.value).endswith("at t=1.0")


_NAN = "0*(1e200*1e200 - 1e200*1e200)"  # inf - inf, no expression error


@pytest.mark.parametrize("p, q, refused", [
    ("0.5", "-1", NegativeQOnDense),
    ("0.5", "if(lt(t, 1), 0, 1)", PhiVanishes),
    ("0.5", f"if(eq(t, 1), {_NAN}, 1)", DomainError),
    (f"if(eq(t, 0.5), {_NAN}, 0.5)", "1", DomainError),
    ("2.5", "1", NotRegressive),  # 1 + mu (-p + mu q) = 0 with mu = 0.5
])
def test_compute_B_and_solve_phi_check_the_whole_system(p, q, refused):
    # solve_phi, and compute_B without a sample, take validate_system's,
    # so they refuse what the analysis refuses: here q <= 0 at the dense
    # start 1, q = 0 at the scattered points, a NaN q at the dense start,
    # a NaN p at a point and a step that is not regressive, though B alone
    # is defined for the first three and phi for the last two
    ts = validate(PeriodicTimeScale(0.0, 2.0, [Point(0.0), Point(0.5),
                                               Interval(1.0, 2.0)]))
    spec = SystemSpec(ts, parse(p), parse(q))
    with pytest.raises(refused) as checked:
        validate_system(spec)
    for part in (compute_B, solve_phi):
        with pytest.raises(refused) as exc:
            part(spec)
        assert str(exc.value) == str(checked.value)


def test_a_table_or_sample_of_another_system_is_refused(example_hybrid):
    # the table and the sample record the system they were taken of: given
    # with another spec, the engine would give the first system's A (p = 0
    # here, 2.0005739715, against 1.9999999945 with p = 0.1 sin t), and B
    # would multiply the first system's step factors
    ts = validate(PeriodicTimeScale(0.0, 2 * PI, [Interval(0.0, 2 * PI)]))
    q = parse("1 + 0.2*cos(t)")
    first, other = (SystemSpec(ts, parse(p), q) for p in ("0", "0.1*sin(t)"))
    table = solve_phi(first)
    for call in (lambda: a_partial(other, table, 3),
                 lambda: estimate_bounds(other, table),
                 lambda: error_bound(other, table, 3),
                 lambda: shi_continuous_a(other, table, 3)):
        with pytest.raises(ValueError, match="of another system"):
            call()
    assert a_partial(first, table, 3) == analyze(first).A_partial
    hybrid = SystemSpec(example_hybrid.ts, parse("0.25"), example_hybrid.q)
    with pytest.raises(ValueError, match="of another system"):
        compute_B(hybrid, validate_system(example_hybrid))
    assert (compute_B(example_hybrid, validate_system(example_hybrid))
            == compute_B(example_hybrid))


def test_phi_discontinuity_warning():
    # q whose chain value at the dense junction differs from sqrt(q): the
    # analysis warns where the series grid's last node of a dense interval
    # misses the chain value
    ts = validate(
        PeriodicTimeScale(0, 4, [Interval(0, 1), Interval(2, 4)]))
    spec = SystemSpec(ts, parse("0"), parse("1 + t/2"))
    with pytest.warns(PhiDiscontinuityWarning):
        analyze(spec)


def test_no_phi_warning_at_redefined_right_endpoint():
    # q(0.8) is redefined as phi(1.2) phi(0.8); the chain value at 0.8 must
    # be compared with the dense limit of sqrt(q), not with sqrt(q(0.8))
    segs, T, _ = _LAYOUTS["after"]
    spec = _layout_system(segs, T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PhiDiscontinuityWarning)
        analyze(spec)


# [0, 1] and [2, 3], joined by the scattered point 1. The first q is
# redefined at the dense start 2: the chain reads phi(2) = sqrt(q(2)) = 2
# there, against the dense limit 1 just inside. Its twin keeps q(2) = 1, so
# the chain's phi(1) = q(1) / phi(2) = 2 misses at the right end 1 instead
_DENSE_START_Q = {
    2.0: "if(eq(t, 2), 4, if(eq(t, 1), 2, 1))",
    1.0: "if(eq(t, 1), 2, 1)",
}


def _dense_start_system(q):
    ts = validate(PeriodicTimeScale(
        0.0, 3.0, [Interval(0.0, 1.0), Interval(2.0, 3.0)]))
    return SystemSpec(ts, parse("0"), parse(q))


@pytest.mark.parametrize("at", sorted(_DENSE_START_Q))
def test_phi_discontinuity_warns_at_dense_starts_and_ends(at):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PhiDiscontinuityWarning)
        analyze(_dense_start_system(_DENSE_START_Q[at]), n=8)
    assert [str(w.message) for w in caught
            if issubclass(w.category, PhiDiscontinuityWarning)] == [
        f"phi is discontinuous at t={at}: chain value 2.0 vs dense limit 1.0"]


def _loop_phi_messages(spec):
    """The warnings of the period walk's per-row check, which compared
    each dense row's first and last panel node with the chain's phi at the
    row's start and end in a loop over the segments."""
    table = solve_phi(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhiDiscontinuityWarning)
        engine = _SeriesEngine(table)
    messages, row = [], 0
    for i, seg in enumerate(segments(spec.ts)):
        if isinstance(seg, Interval):
            limits = engine.phi[row, [0, engine.last[row]]].tolist()
            for t, chain, limit in zip(
                    (seg.a, seg.b), (table.starts[i], table.ends[i]),
                    limits):
                if abs(chain - limit) > 1e-6:
                    messages.append(f"phi is discontinuous at t={t}: chain "
                                    f"value {chain} vs dense limit {limit}")
            row += 1
    return engine, messages


def test_phi_jumps_of_a_long_hybrid_warn_in_time_order():
    # 40 cells and 40 points, 80 events, so the array walk: q is redefined
    # at the dense starts 3 and 17, and at the dense ends 5.5 and 20.5,
    # which moves the chain's phi at those ends; the one array check warns
    # as the per-row loop did, with the same text and in the same order
    cells = 40
    phi = "(1 + 0.05*cos(2*pi*t))"
    q = (f"if(eq(t, 3), 1.5, if(eq(t, 17), 1.3, if(eq(t, 5.5), 1.6, "
         f"if(eq(t, 20.5), 0.9, if(eq(mod(t, 1), 0.5), {0.95 ** 2!r}, "
         f"if(eq(mod(t, 1), 0.75), {0.95 * 1.05!r}, {phi}^2))))))")
    segments = [Interval(float(i), i + 0.5) for i in range(cells)]
    segments += [Point(i + 0.75) for i in range(cells)] + [Point(cells)]
    ts = validate(PeriodicTimeScale(0.0, float(cells), segments))
    spec = SystemSpec(ts, parse("0.3"), parse(q))
    engine, want = _loop_phi_messages(spec)
    assert engine.slots is not None  # the array walk
    # a redefined start moves the chain back to the end before it too
    assert [m.split(":")[0] for m in want] == [
        f"phi is discontinuous at t={t}"
        for t in (2.5, 3.0, 5.5, 16.5, 17.0, 20.5)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PhiDiscontinuityWarning)
        analyze(spec, n=3)
    assert [str(w.message) for w in caught
            if issubclass(w.category, PhiDiscontinuityWarning)] == want


@pytest.mark.xfail(strict=True, reason=(
    "phi jumps at the dense start t=2 and the series has no event there "
    "(oracle A = -3.560186, A(8) = -2.442815); ROADMAP item 1a's events, "
    "placed at dense starts as well as ends, would carry the jump"))
def test_dense_start_jump_meets_the_oracle():
    spec = _dense_start_system(_DENSE_START_Q[2.0])
    A = analyze(spec, n=8).A_partial
    assert abs(A - float(np.trace(monodromy(spec)))) <= 1e-8


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


def _reference_B(spec):
    """e_{-p + mu q}(t0+T, t0) from the generalized exponential, with q
    read only where mu > 0."""
    ts = spec.ts

    def g(t):
        mu, p = mu_at(ts, t), p_at(spec, t)
        return -p + mu * q_at(spec, t) if mu else -p

    return float(ts_exponential(g, ts.t_end, ts.t0, ts, _QUAD_TOL))


def _hybrid_config(monkeypatch, tmp_path, cells: int, p: str = None):
    """The benchmark's seeded hybrid of ``cells`` dense cells, with its p
    replaced by ``p`` if given."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    text = workloads.hybrid_system(random.Random(1), "h", cells, True).text
    if p is not None:
        text = re.sub(r"(?m)^p = .*$", f"p = {p}", text)
    cfg = tmp_path / f"hybrid{cells}.cfg"
    cfg.write_text(text)
    return build_system(load_config(cfg))


# p = 0.3 + 0.1 |sin(pi t / 1.3)| kinks at multiples of 1.3, inside several
# cells of the benchmark's hybrids
_KINKED_P = "0.3 + 0.1*abs(sin(pi*t/1.3))"


def _kinked_systems(p_texts):
    """random_hybrid_system 0-49 with each p of ``p_texts``; a {step} in
    one is a step at 0.3 of the first dense interval."""
    systems = []
    for seed in range(50):
        spec = random_hybrid_system(seed)
        a, b = dense_intervals(spec.ts)[0]
        step = f"if(lt(t, {a + 0.3 * (b - a)!r}), 0.2, -0.1)"
        for p in p_texts:
            systems.append(SystemSpec(spec.ts, parse(p.format(step=step)),
                                      spec.q))
    return systems


@pytest.mark.parametrize("family", ["configs", "hybrid", "discrete",
                                    "workload", "kinked"])
def test_compute_B_matches_the_reference(family, monkeypatch, tmp_path):
    # one walk over the scattered points and the dense intervals keeps the
    # generalized exponential's arithmetic in its order, bit for bit
    if family == "configs":
        paths = sorted((ROOT / "configs").rglob("*.cfg"))
        systems = [build_system(load_config(path)) for path in paths]
    elif family == "hybrid":
        systems = [random_hybrid_system(seed) for seed in range(100)]
    elif family == "discrete":
        systems = [random_discrete_system(seed) for seed in range(100)]
    elif family == "kinked":  # p with a kink or a step on the dense parts
        # and the 100-cell hybrid, whose cells refine to different depths
        systems = _kinked_systems(["abs(sin(3*t))", "{step}"])
        systems.append(_hybrid_config(monkeypatch, tmp_path, 100, _KINKED_P))
    else:  # a 100-cell benchmark hybrid
        systems = [_hybrid_config(monkeypatch, tmp_path, 100)]
    assert systems
    for spec in systems:
        assert compute_B(spec).hex() == _reference_B(spec).hex()
    if family == "kinked":
        # the refinement rounds sample p through evaluate_array alone
        samples = [validate_system(spec) for spec in systems]
        rounds = _record_rounds(monkeypatch)

        def scalar(e, t):
            raise AssertionError(f"scalar evaluate at t={t}")
        monkeypatch.setattr(ex, "evaluate", scalar)
        depths = []
        for spec, sample in zip(systems, samples):
            del rounds[:]
            compute_B(spec, sample)
            depths.append(len(rounds))
        assert max(depths) > 1
        assert depths[-1] > 1  # the 100-cell hybrid refines


def test_compute_B_of_exp_kinks_is_within_4_ulps():
    # numpy's exp differs from libm's in the last ulp, so B may move by a
    # few ulps from the fully scalar reference; the verdict must not. The
    # dense integrals alone move B by at most 4 ulps; p at the scattered
    # points is numpy's too, each value within an ulp of the scalar one,
    # and each such ulp moves B by at most _point_ulps_allowance
    for spec in _kinked_systems(["exp(abs(sin(3*t)))"]):
        sample = validate_system(spec)
        for (t, _), p in zip(spec.ts.scattered_with_mu(), sample.p):
            assert abs(p - p_at(spec, t)) <= math.ulp(p)
        want = _reference_B(spec)
        report = analyze(spec)
        assert (abs(report.B - want)
                <= 4 * math.ulp(want) + _point_ulps_allowance(spec, want))
        err = report.err_bound.value
        a = Enclosure(report.A_partial - err, report.A_partial + err)
        assert report.verdict == verdict(a, _b(want))[0]


def _point_ulps_allowance(spec, B: float) -> float:
    """How far B may move, to first order, when p at each scattered point
    moves by one ulp, from the scalar values there. The step factor
    f = 1 + mu s, s = -p + mu q, then moves by at most mu (ulp(p) + ulp(s))
    + ulp(mu s) + ulp(f): the ulp of p, and one ulp where each rounding
    may fall the other way. The product moves by that over |f| per point,
    plus one ulp per rounding of its multiplication, relative to B."""
    rel = 0.0
    for t, mu in spec.ts.scattered_with_mu():
        p, q = p_at(spec, t), q_at(spec, t)
        s = -p + mu * q
        f = 1.0 + mu * s
        rel += (mu * (math.ulp(p) + math.ulp(s)) + math.ulp(mu * s)
                + 2 * math.ulp(f)) / abs(f)
    return rel * abs(B)


def _record_rounds(monkeypatch) -> list:
    """The list that (lo, hi) of every round of B's quadrature goes to,
    one pair of arrays per round."""
    rounds = []
    gk15 = tscalc._gk15

    def record(f, lo, hi):
        rounds.append((lo.copy(), hi.copy()))
        return gk15(f, lo, hi)
    monkeypatch.setattr(tscalc, "_gk15", record)
    return rounds


def _scalar_B(spec):
    """compute_B with every dense interval integrated by the reference's
    scalar panel-halving loop from its start, in time order."""
    prod = 1.0
    for t, mu in spec.ts.scattered_with_mu():
        prod *= _step_factor(t, mu, p_at(spec, t), q_at(spec, t))
    integral = 0.0
    for a, b in dense_intervals(spec.ts):
        integral += _adaptive_quad(lambda t: -p_at(spec, t), a, b, _QUAD_TOL)
    return float(prod * math.exp(integral))


def _outcome(B, spec):
    """B(spec) in hex, or the type and message of what it raises."""
    try:
        return B(spec).hex()
    except Exception as exc:
        return type(exc), str(exc)


def _two_interval_scale():
    """Dense cells [0, 1] and [2, 3], period 3."""
    return validate(PeriodicTimeScale(
        0.0, 3.0, [Interval(0.0, 1.0), Interval(2.0, 3.0)]))


def test_compute_B_raises_what_the_scalar_loop_raises():
    # p fails on [0, 1] at t = 0.25, where sqrt's argument is negative:
    # the midpoint of round 2's first panel, between round 1's nodes. On
    # [0, 1] alone the rounds and the scalar loop meet it first. With
    # 1/(t - 2.5) on [2, 3], round 1 meets t = 2.5 first, the midpoint of
    # [2, 3]'s first panel, where the loop, which finishes [0, 1] before
    # it starts [2, 3], names t = 0.25
    kink = "sqrt(abs(t - 0.25) - 0.01)"
    one = validate(PeriodicTimeScale(0.0, 1.0, [Interval(0.0, 1.0)]))
    spec = SystemSpec(one, parse(kink), parse("1"))
    want = _outcome(_scalar_B, spec)
    assert want[0] is DomainError and "t=0.25" in want[1]
    assert _outcome(compute_B, spec) == want
    spec = SystemSpec(_two_interval_scale(), parse(f"{kink} + 1/(t - 2.5)"),
                      parse("1"))
    loop = _outcome(_scalar_B, spec)
    assert loop[0] is DomainError and "t=0.25" in loop[1]
    got = _outcome(compute_B, spec)
    assert got[0] is DomainError and "t=2.5" in got[1]
    # p fails at 0.375 and 0.625, the midpoints of round 3's second and
    # third panels of [0, 1]; a round evaluates its panels left to right,
    # so it names 0.375, where the loop, which takes the right half first,
    # names 0.625
    spec = SystemSpec(one, parse("1/(t - 0.375) + 2/(t - 0.625)"),
                      parse("1"))
    loop = _outcome(_scalar_B, spec)
    assert loop[0] is DomainError and "t=0.625" in loop[1]
    got = _outcome(compute_B, spec)
    assert got[0] is DomainError and "t=0.375" in got[1]


_BUDGET_SPENT = (QuadratureNonConvergence,
                 "tolerance 1e-09 unreachable within 1000000 evaluations")


@pytest.mark.parametrize("width, p, want", [
    pytest.param(2.0 ** -50, "1e308", "0x0.0p+0", id="short-1e308"),
    pytest.param(2.0 ** -50, "-1e308*t", "inf", id="short-minus-1e308t"),
    pytest.param(1.0, "1e308", _BUDGET_SPENT, id="unit-1e308"),
])
def test_compute_B_overflowing_panel_sums(width, p, want):
    # f(c - x) + f(c + x) overflows on every panel: on the short interval
    # the first panel is accepted by its width, so B is 0 or inf; on
    # [1, 2] the NaN error refines until the budget runs out. Tier-1 turns
    # a RuntimeWarning of the panel arithmetic into an error.
    ts = validate(PeriodicTimeScale(1.0, width, [Interval(1.0, 1.0 + width)]))
    spec = SystemSpec(ts, parse(p), parse("1"))
    assert _outcome(_scalar_B, spec) == want
    assert _outcome(compute_B, spec) == want


def test_compute_B_quadrature_nonconvergence(monkeypatch):
    # round 1 settles [0, 1]; [2, 3] halves every panel in every round, so
    # 16 rounds take 2^16 - 1 = 65,535 panels (983,025 samples) there, and
    # the 17th, 2^16 more panels, would take it past the budget of
    # 1,000,000 samples, so it is never evaluated
    spec = SystemSpec(_two_interval_scale(),
                      parse("if(lt(t, 1.5), 0.5, sin(1e6*t))"), parse("1"))
    rounds = _record_rounds(monkeypatch)
    assert _outcome(compute_B, spec) == _BUDGET_SPENT
    assert len(rounds) == 16
    assert [len(lo) for lo, _ in rounds] == [2] + [2 ** k
                                                  for k in range(1, 16)]
    (lo, hi), *later = rounds
    assert lo.tolist() == [0.0, 2.0] and hi.tolist() == [1.0, 3.0]
    assert all(lo.min() == 2.0 and hi.max() == 3.0 for lo, hi in later)
    panels = 1 + sum(len(lo) for lo, _ in later)
    assert panels == 65_535 and 15 * panels == 983_025
    assert 15 * (panels + 2 ** 16) > tscalc._EVAL_BUDGET



def test_compute_B_rounds_stay_bounded_over_many_intervals(monkeypatch):
    # 64 cells that never settle: from round 12 their open panels outnumber
    # a round, which takes the earliest cells' panels first, so the first
    # cell spends its budget in 16 rounds, as it does alone, and no round
    # evaluates more than _ROUND_PANELS panels
    cells = 64
    ts = validate(PeriodicTimeScale(0.0, 2.0 * cells - 1, [
        Interval(2.0 * k, 2.0 * k + 1) for k in range(cells)]))
    spec = SystemSpec(ts, parse("sin(1e6*t)"), parse("1"))
    rounds = _record_rounds(monkeypatch)
    assert _outcome(compute_B, spec) == _BUDGET_SPENT
    assert [len(lo) for lo, _ in rounds] == (
        [cells * 2 ** k for k in range(11)] + [tscalc._ROUND_PANELS] * 5)
    # each round runs left to right from the first cell
    assert all(lo[0] == 0.0 and (np.diff(lo) > 0).all() for lo, _ in rounds)


def test_compute_B_is_the_same_in_rounds_of_any_size(monkeypatch, tmp_path):
    # a full round leaves the later open panels for the next one; the
    # panels accepted, their budgets and their sums do not depend on it
    systems = _kinked_systems(["abs(sin(3*t))", "{step}"])[:20]
    systems.append(_hybrid_config(monkeypatch, tmp_path, 100, _KINKED_P))
    want = [compute_B(spec).hex() for spec in systems]
    rounds = _record_rounds(monkeypatch)
    monkeypatch.setattr(tscalc, "_ROUND_PANELS", 3)
    assert [compute_B(spec).hex() for spec in systems] == want
    assert max(len(lo) for lo, _ in rounds) == 3

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


def test_terminated_discrete_terms_are_positive_zero(example_z):
    # past the termination order the level recursion's running sums are
    # zero; the report must show 0.0, not -0.0
    k = len(example_z.ts.scattered_with_mu())
    terms = analyze(example_z, n=k + 3).A_terms
    assert all(math.copysign(1.0, t) == 1.0 for t in terms[k + 1:])


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
    engine = _SeriesEngine(table).terms(k)
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


def test_complex_cumulative_simpson_is_the_split(example_hybrid):
    # the engine integrates the complex samples of all stacked cells in one
    # call, on its panels and on the bound's uniform rows; that must equal
    # integrating the real and imaginary parts apart, bit for bit. Seed
    # 145's cells have 2 and 1 panels, and seeds 0 and 12 have two bound
    # rows of unequal node counts, so the shorter row of a stack is padded
    for spec in (example_hybrid, random_hybrid_system(0),
                 random_hybrid_system(12), random_hybrid_system(145)):
        engine = _SeriesEngine(solve_phi(spec))
        W = engine.h / engine.D
        x, phi, _, E, _ = engine.bound_sample()
        for integrate, ys in (
                (lambda v: floquet._panel_integrals(v, engine.half),
                 (engine.E, W * engine.phi * engine.E.imag)),
                (lambda v: cumulative_simpson(v, x=x, initial=0.0), (E,)),
                (lambda v: floquet.cumulative_simpson(v, x), (E,))):
            for y in ys:
                assert np.iscomplexobj(y)
                whole = integrate(y)
                split = integrate(y.real) + 1j * integrate(y.imag)
                assert np.iscomplexobj(whole)
                assert np.array_equal(whole, split)
    spec = random_hybrid_system(145)
    assert _SeriesEngine(solve_phi(spec)).panels.tolist() == [2, 1]


def _two_cell_system(p_text, q_text, b=3.0):
    """Dense cells [0, 1] and [2, b], period b."""
    ts = validate(PeriodicTimeScale(
        0.0, b, [Interval(0.0, 1.0), Interval(2.0, b)]))
    return SystemSpec(ts, parse(p_text), parse(q_text))


@pytest.mark.parametrize("q_text, lo, hi", [
    # q <= 0 only on (2.3, 2.7), inside the second cell
    ("if(lt(t, 1.5), 1, (t - 2.5)^2 - 0.04)", 2.3, 2.7),
    # q <= 0 in both cells, deeper in the second: time order names the first
    ("if(lt(t, 1.5), (t - 0.5)^2 - 0.01, (t - 2.5)^2 - 0.04)", 0.4, 0.6),
])
def test_negative_q_is_named_in_time_order(q_text, lo, hi):
    # all cells are sampled in one pass; the error still names a t in the
    # first cell, in time order, where q <= 0, as the per-cell loop did,
    # also where the cells' bound rows differ in length ([2, 5])
    for b in (3.0, 5.0):
        spec = _two_cell_system("0", q_text, b)
        table = solve_phi(spec)
        with pytest.raises(NegativeQOnDense) as stacked:
            _SeriesEngine(table)
        with pytest.raises(NegativeQOnDense) as per_cell:
            CellEngine(spec, table)
        assert str(stacked.value) == str(per_cell.value)
        named = re.match(r"q\((.*)\) <= 0", str(stacked.value))[1]
        assert lo < float(named) < hi


def test_evaluation_error_in_the_second_cell():
    # sqrt of a negative value only in the second cell raises the class and
    # message of the per-cell loop, at the first failing node
    spec = _two_cell_system("sqrt(2.2 - t)", "1")
    table = solve_phi(spec)
    with pytest.raises(DomainError) as stacked:
        _SeriesEngine(table)
    with pytest.raises(DomainError) as per_cell:
        CellEngine(spec, table)
    assert str(stacked.value) == str(per_cell.value)
    assert 2.2 < float(str(stacked.value).rsplit("t=", 1)[1]) < 3.0


@pytest.mark.parametrize("p_text, q_text, named", [
    # NaN (0 * (inf - inf)) in q, or infinite p, on the second cell only
    ("0", "if(lt(t, 1.5), 1, 1 + 0*(1e200*1e200 - 1e200*1e200))", "q = nan"),
    ("if(lt(t, 2.5), 0, 1e200*1e200)", "1", "p = inf"),
])
def test_non_finite_coefficient_is_named(p_text, q_text, named):
    # a NaN or infinite sample on a dense part raises before any term is
    # formed, naming the coefficient and its first node in time order: the
    # NaN q at the dense start 2, where the sample at the dense starts
    # meets it, and the infinite p at the series grid's first node past 2.5
    spec = _two_cell_system(p_text, q_text)
    with pytest.raises(DomainError) as exc:
        _SeriesEngine(solve_phi(spec))
    message = re.fullmatch(r"(.*) is not finite at t=(.*) on a dense part",
                           str(exc.value))
    assert message[1] == named
    assert 2.0 <= float(message[2]) < 3.0


def _layout_system(segs, T):
    """phi = 1.1 + 0.3 cos(2 pi t / T) on segs, q = phi^2 on dense parts
    and q = phi(sigma(t)) phi(t) at each scattered point."""
    ts = validate(PeriodicTimeScale(0.0, T, segs))
    phi_text = f"(1.1 + 0.3*cos(2*pi*t/{T!r}))"

    def phi(t):
        return 1.1 + 0.3 * math.cos(2 * math.pi * t / T)

    q_text = f"({phi_text} * {phi_text})"
    for tau, mu in ts.scattered_with_mu():
        v = phi(tau + mu) * phi(tau)
        q_text = f"if(eq(mod(t, {T!r}), {tau % T!r}), {v!r}, {q_text})"
    p = parse(f"0.2 + 0.1*sin(2*pi*t/{T!r})")
    return SystemSpec(ts, p, parse(q_text))


# runs of two or more scattered points before the first dense cell, between
# two cells and after the last one, with recorded reference values of
# A_0..A_8
_LAYOUTS = {
    "before": (
        [Point(0.0), Point(0.4), Interval(0.8, 1.6), Point(2.0)], 2.0,
        [-1.5019761080084173, 0.3298015368537712, -0.13554680446004647,
         0.030988513159609817, -0.00475656128327566, 0.0005076488626662416,
         -3.869222430905158e-05, 2.001452358619677e-06,
         -4.5141020428848434e-08]),
    "between": (
        [Interval(0.0, 0.8), Point(1.2), Point(1.5), Interval(1.9, 2.7)], 2.7,
        [-2.295122215279524, 0.5948325340888028, -0.16634077523897753,
         0.02848464121414627, -0.003956759701162963, 0.00042514767287337243,
         -3.6911829515697735e-05, 2.657173905893929e-06,
         -1.629236349233182e-07]),
    "after": (
        [Interval(0.0, 0.8), Point(1.2), Point(1.5), Point(1.9)], 1.9,
        [-0.8878929819911383, -0.1008208493232973, -0.040276124228141225,
         0.0037526114152295013, 0.0004998129016083926,
         -6.280340223706034e-06, -6.310999083183811e-06,
         -7.790501548789198e-07, -6.0399004085299e-08]),
    "all": (
        [Point(0.0), Point(0.4), Interval(0.8, 1.6), Point(2.0), Point(2.3),
         Interval(2.7, 3.5), Point(3.9), Point(4.3), Point(4.7)], 4.7,
        [0.86916044221797, 0.0899922771008459, -0.2778047881410669,
         0.09675149088245474, -0.019484052079568825, 0.00277358820038597,
         -0.0003047919311203216, 2.720062691980702e-05,
         -2.0382736523216215e-06]),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_scattered_runs_around_dense_cells(layout):
    segs, T, recorded = _LAYOUTS[layout]
    spec = _layout_system(segs, T)
    report = analyze(spec, n=8)
    scale = max(abs(a) for a in recorded)
    assert report.A_terms == pytest.approx(recorded, rel=0, abs=1e-12 * scale)
    trace = float(np.trace(monodromy(spec)))
    assert abs(trace - report.A_partial) <= report.err_bound.value + 1e-8


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# at least 30 seeded hybrids (9 of these 32 have two cells of unequal
# length, and seed 145's two cells have 2 and 1 panels, so a row of
# panels is padded), seeded discrete scales, every layout above, every
# committed config with intervals, the benchmark's 100-cell hybrids (seed
# 1) and a 64-point scale from its discrete generator; the last three have
# 64 events or more, so the engine walks them as arrays
_REFERENCE_CASES = (
    [("seed", s) for s in (*range(32), 145)]
    + [("discrete", s) for s in range(16)]
    + [("layout", k) for k in sorted(_LAYOUTS)]
    + [("config", p.relative_to(_CONFIGS).as_posix())
       for p in sorted(_CONFIGS.rglob("*.cfg"))
       if re.search(r"^intervals\s*=", p.read_text(), re.M)]
    + [("benchmark", "hybrid100_damped"), ("benchmark", "hybrid100_growing"),
       ("benchmark-discrete", 64)])


def _reference_spec(kind, key, workloads, tmp_path):
    if kind == "seed":
        return random_hybrid_system(key)
    if kind == "discrete":
        return random_discrete_system(key, max_points=12)
    if kind == "discrete40":
        return random_discrete_system(key, max_points=40)
    if kind == "overflow":
        return unit_step_overflow_system(key)
    if kind == "benchmark-discrete":
        path = tmp_path / f"discrete{key}.cfg"
        path.write_text(workloads.discrete_system(random.Random(key), "d",
                                                  key).text)
        return build_system(load_config(path))
    if kind == "layout":
        segs, T, _ = _LAYOUTS[key]
        return _layout_system(segs, T)
    if kind == "benchmark":
        system, = (s for s in workloads.build("hybrid", 1, ROOT).systems
                   if s.name == key)
        path = tmp_path / f"{key}.cfg"
        path.write_text(system.text)
        return build_system(load_config(path))
    return build_system(load_config(_CONFIGS / key))


@pytest.mark.parametrize("kind, key", _REFERENCE_CASES,
                         ids=[f"{k}-{v}" for k, v in _REFERENCE_CASES])
def test_stacked_engine_matches_cell_reference(kind, key, workloads,
                                               tmp_path):
    # the stacked engine keeps every floating-point operation of the
    # per-cell loop in cell_reference.py, so its terms and bound constants
    # are equal to the loop's, not just close
    spec = _reference_spec(kind, key, workloads, tmp_path)
    table = solve_phi(spec)
    stacked, per_cell = _SeriesEngine(table), CellEngine(spec, table)
    n = 3 if kind == "benchmark-discrete" else 8
    assert stacked.terms(n) == per_cell.terms(n)
    assert stacked.bound_constants() == per_cell.bound_constants()


# seeded hybrids and discrete scales of up to 40 points, the benchmark's
# 10- and 100-cell hybrids (seed 1) and two unit-step scales whose terms
# overflow
_WALK_CASES = (
    [("seed", s) for s in range(32)]
    + [("discrete40", s) for s in range(32)]
    + [("benchmark", name) for name in (
        "hybrid10_damped", "hybrid10_growing", "hybrid10_damped2",
        "hybrid100_damped", "hybrid100_growing", "hybrid100_steep")]
    + [("overflow", 500), ("overflow", 1000)])


@pytest.mark.parametrize("kind, key", _WALK_CASES,
                         ids=[f"{k}-{v}" for k, v in _WALK_CASES])
def test_array_walk_matches_scalar_walk(kind, key, workloads, tmp_path,
                                        monkeypatch):
    # np.cumsum adds the steps in the loop's order, and the steps and the
    # values at the jumps are the loop's products rounded as CPython rounds
    # them, so both walks give the same floats, NaN and inf included
    spec = _reference_spec(kind, key, workloads, tmp_path)
    table = solve_phi(spec)
    k = len(spec.ts.scattered_with_mu())
    n = k if spec.ts.is_discrete and k <= 40 else 8
    walks = []
    for events, long in ((0, True), (math.inf, False)):
        monkeypatch.setattr(floquet, "_ARRAY_WALK_EVENTS", events)
        engine = _SeriesEngine(table)
        assert (engine.slots is not None) == long
        walks.append([float(a).hex() for a in engine.terms(n)])
    assert walks[0] == walks[1]
    # at 500 unit steps the terms reach ~2^590; at 1000 they are NaN
    assert ("nan" in walks[0]) == ((kind, key) == ("overflow", 1000))


def _hex_parts(values):
    return [[float(x).hex() for x in (z.real, z.imag)] for z in values]


def test_array_walk_rounds_each_step_as_cpython():
    # mu W = (-9.9e307, inf) at the first point: CPython's (mu W) * g takes
    # Im mu W * 0.0 = NaN into the real part, where the parts' own products
    # would give (finite, inf); the array walk's running values, and the
    # values at the jumps they give, must take the NaN too
    spec = SystemSpec(points_scale([1000.0 * i for i in range(71)]),
                      parse("if(eq(t, 0), 1e305, 0.1)"), parse("0.0001"))
    engine = _SeriesEngine(solve_phi(spec))
    assert engine.slots is not None
    muW = engine.jump_table[4, 0]
    assert math.isfinite(muW.real) and math.isinf(muW.imag)
    _, GH = engine.trace_seeds()
    pairs = GH.T.tolist()
    for _ in range(3):
        acc, _, pairs = engine._scalar_walk(engine._scalar_jumps(), None,
                                            pairs)
        array_acc, _, GH = engine._array_walk(None, GH)
        assert _hex_parts(array_acc) == _hex_parts(acc)
        assert _hex_parts(GH.T.ravel()) == _hex_parts(np.ravel(pairs))


def _hybrid_overflow_system(cells):
    """Unit dense cells [2i, 2i + 1] and the point 2 cells, p = 0.1 and
    q = 400: at 400 cells E overflows past a dense row, where it is a
    numpy scalar."""
    segs = [Interval(2.0 * i, 2.0 * i + 1) for i in range(cells)]
    ts = validate(PeriodicTimeScale(0.0, 2.0 * cells,
                                    segs + [Point(2.0 * cells)]))
    return SystemSpec(ts, parse("0.1"), parse("400"))


@pytest.mark.parametrize("spec, n", [
    (unit_step_overflow_system(1000), 3),
    # q ~ 400: phi E overflows in the seeds while E is still finite
    (SystemSpec(points_scale(list(range(241))), parse("0.1"),
                parse("400 + 50*cos(2*pi*t/240)")), 3),
    (_hybrid_overflow_system(400), 3), (_hybrid_overflow_system(400), 8)],
    ids=["1000", "240", "hybrid400-n3", "hybrid400-n8"])
def test_array_walk_leaves_numpy_error_state(spec, n):
    # the engine's overflow stays in the values: under raising error
    # states building the engine, seeding and pulling each order raise
    # nothing and leave the state as it was at every term, and the
    # overflowing analysis warns nothing
    table = solve_phi(spec)
    with np.errstate(over="raise", invalid="raise"):
        state = np.geterr()
        engine = _SeriesEngine(table)
        terms = engine.levels(engine.trace_seeds())
        for _ in range(n):
            assert math.isnan(next(terms))
            assert np.geterr() == state
    assert engine.slots is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = analyze(spec, n=n)
    assert math.isnan(report.A_partial)
    assert report.verdict is Verdict.UNSTABLE


def test_dense_starts_are_named_in_time_order():
    # q = t - 3.5 is negative at the dense starts 0 and 2, not at 4:
    # sqrt(q) is taken at every dense start in time order, so q(0) is named
    ts = validate(PeriodicTimeScale(0.0, 5.0, [
        Interval(0.0, 1.0), Interval(2.0, 3.0), Interval(4.0, 5.0)]))
    spec = SystemSpec(ts, parse("0"), parse("t - 3.5"))
    with pytest.raises(NegativeQOnDense) as exc:
        analyze(spec)
    assert str(exc.value) == "q(0.0) = -3.5 <= 0 on a dense part"


@pytest.mark.parametrize("kind, key", [
    ("seed", 3), ("discrete", 5), ("layout", "all"), ("layout", "between"),
    ("config", "example_continuous.cfg"), ("benchmark", "hybrid100_damped")])
def test_one_sample_and_one_jump_record_per_analysis(kind, key, workloads,
                                                     tmp_path, monkeypatch):
    # validate_system samples p and then q at the scattered points with one
    # evaluate_array call each, in time order, and q at the dense starts
    # with one more; solve_phi, compute_B and the one engine, which the
    # series and the bound share, read that sample, and the engine holds
    # one jump table column per scattered point. No analysis calls the
    # scalar evaluate, so q's dense limit at a dense interval's right end
    # comes from the series grid alone
    spec = _reference_spec(kind, key, workloads, tmp_path)
    scattered = [t for t, _ in spec.ts.scattered_with_mu()]
    starts = [a for a, _ in dense_intervals(spec.ts)]
    places = set(scattered) | set(starts)
    names = {id(spec.p): "p", id(spec.q): "q"}
    sampled = []
    array = ex.evaluate_array

    def counted(e, x):
        x = np.asarray(x, dtype=float).tolist()
        if id(e) in names and places.issuperset(x):
            sampled.append((names[id(e)], x))
        return array(e, x)

    def scalar(e, t):
        raise AssertionError(f"scalar evaluate at t={t}")

    monkeypatch.setattr(ex, "evaluate_array", counted)
    monkeypatch.setattr(ex, "evaluate", scalar)
    engines = []
    monkeypatch.setattr(floquet, "_SeriesEngine", functools.partial(
        _counted, engines, _SeriesEngine))
    report = analyze(spec, n=3)
    want = [("p", scattered), ("q", scattered)] if scattered else []
    assert sampled == want + ([("q", starts)] if starts else [])
    assert len(engines) == 1
    assert engines[0].jump_table.shape == (5, len(scattered))
    assert not report.err_bound.exact


def _counted(built, cls, *args):
    built.append(cls(*args))
    return built[-1]


def _dense_system(p_text, q_text, b=2 * PI):
    """p and q on the one dense interval [0, b], period b."""
    ts = validate(PeriodicTimeScale(0.0, b, [Interval(0.0, b)]))
    return SystemSpec(ts, parse(p_text), parse(q_text))


@pytest.mark.parametrize("q_text", ["1 + t", "exp(4*t)"])
def test_panel_tail_does_not_see_the_inward_read_ends(q_text):
    # a row's end values are read (b - a) 1e-9 inside it: taken as values
    # at the ends, they put a tail into the 33-node interpolant of a smooth
    # q that no cut removes, and a tail test that saw them cut to the width
    # floor (40 rounds). The tail reads the interior nodes
    spec = _dense_system("0", q_text, 1.0)
    engine = _SeriesEngine(solve_phi(spec))
    assert engine.rounds == 1 and engine.panels.tolist() == [1]
    j = np.arange(floquet._NODES)
    T = np.cos(np.outer(np.pi * (floquet._PANEL_DEGREE - j)
                        / floquet._PANEL_DEGREE, j))
    seen = [abs(np.linalg.solve(T, v[0])[-1]) / np.abs(v).max()
            for v in (engine.phi, engine.h)]
    assert max(seen) > floquet._TAIL_TOL


def test_smooth_one_cell_configs_take_few_panels():
    # phi's phase sets the first cut, which is the last on most configs
    for path in sorted((ROOT / "configs").rglob("*.cfg")):
        spec = build_system(load_config(path))
        if len(dense_intervals(spec.ts)) == 1:
            engine = _SeriesEngine(solve_phi(spec))
            assert engine.rounds <= 2 and engine.panels[0] <= 4, path.stem


def test_a_kink_stops_at_the_width_floor():
    # |sin(1.7 t)| has kinks at the irrational k pi / 1.7: the tail of the
    # panel holding one halves with each cut, so refinement runs until the
    # width floor, 2^-40 of the row, after at most 41 sampling rounds. A is
    # then closer to the oracle's than the 4097-node Simpson grid's 2.9e-8
    spec = _dense_system("0.1*abs(sin(1.7*t))", "1 + 0.3*cos(t)")
    engine = _SeriesEngine(solve_phi(spec))
    assert 30 <= engine.rounds <= 41
    oracle = float(np.trace(monodromy(spec)))
    assert abs(analyze(spec, n=8).A_partial - oracle) <= 1e-8


def test_a_jump_on_a_panel_cut_is_read_from_each_side():
    # Meissner's q jumps at pi, where the phase cut puts the two panels'
    # common end; each panel reads its end just inside itself, so phi's
    # integral is exact and A_0 = 2 cos(pi (sqrt(1.5) + sqrt(0.5))), which
    # a cut read at pi itself missed by 3.4e-4
    spec = _dense_system("0", "if(lt(t, pi), 1.5, 0.5)")
    table = solve_phi(spec)
    assert _SeriesEngine(table).panels.tolist() == [2]
    exact = 2.0 * math.cos(PI * (math.sqrt(1.5) + math.sqrt(0.5)))
    assert a_term(spec, table, 0) == pytest.approx(exact, abs=1e-14)


def test_node_cap_stops_refinement_and_the_analysis_goes_on(monkeypatch):
    # the phase of s = 1e4 of the s-family asks for 235 panels; with a cap
    # of 5 panels the first round keeps one, no later round starts, and the
    # analysis completes on it
    spec = _dense_system("0.01*sin(t)", "1e4*(1 + 0.3*cos(t))")
    monkeypatch.setattr(floquet, "_NODE_CAP", 5 * floquet._NODES)
    engine = _SeriesEngine(solve_phi(spec))
    assert engine.panels.tolist() == [1] and engine.rounds == 1
    assert math.isfinite(analyze(spec, n=3).A_partial)


def test_node_cap_holds_the_largest_s_family_grid():
    # s = 1e6 winds Phi ~6000 radians: the cap must leave its grid whole
    spec = _dense_system("0.01*sin(t)", "1e6*(1 + 0.3*cos(t))")
    engine = _SeriesEngine(solve_phi(spec))
    nodes = engine.panels.sum() * floquet._NODES
    assert 60_000 <= nodes <= floquet._NODE_CAP


@pytest.mark.parametrize("path", [
    path for path in sorted((ROOT / "configs").rglob("*.cfg"))
    if len(dense_intervals(build_system(load_config(path)).ts)) == 1],
    ids=lambda path: path.stem)
def test_one_cell_bound_reads_the_512_grid(path):
    # the bound reads its own sample, not the series grid: on a one-cell
    # config the nodes of a grid of 512 divisions per period, where x, phi
    # and h are those of sampling that grid on its own
    spec = build_system(load_config(path))
    (a, b), = dense_intervals(spec.ts)
    engine = _SeriesEngine(solve_phi(spec))
    x, phi, h, _, real = engine.bound_sample()
    assert real.all()
    n = max(16, math.ceil((b - a) / (spec.ts.period / 512)))
    n += n % 2
    for got, want in zip((x[0], phi[0], h[0]),
                         cell_reference._sample_dense(spec, a, b, n)[:3]):
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("seed", range(20))
def test_array_sampling_matches_scalar_sampling(seed, monkeypatch):
    # numpy's sin, cos, exp and power may differ from math's in the last
    # ulp on some platforms; the series and the bound must not notice
    spec = random_hybrid_system(seed)
    fast = analyze(spec, n=8)

    def walk(e, x):
        return np.array([expr_reference.evaluate(e, t) for t in x])

    monkeypatch.setattr(ex, "evaluate_array", walk)
    monkeypatch.setattr(ex.Forest, "evaluate",
                        lambda forest, x: (walk(e, x) for e in forest.roots))
    slow = analyze(spec, n=8)
    scale = max(abs(a) for a in slow.A_terms)
    assert fast.A_terms == pytest.approx(slow.A_terms, rel=0,
                                         abs=1e-13 * scale)
    assert fast.err_bound.value == pytest.approx(slow.err_bound.value,
                                                 rel=1e-12)


def test_analyses_sample_the_stated_number_of_grids(monkeypatch, tmp_path):
    # every coefficient value an analysis with dense parts reads comes
    # from one walk per grid: an evaluate_array call, or a Forest's
    # evaluate for q, p and q' together
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    hybrid = tmp_path / "hybrid.cfg"  # nested if and mod in q
    hybrid.write_text(
        workloads.hybrid_system(random.Random(1), "h", 100, True).text)
    grids = []

    def recorded(walk):
        def record(e, x):
            grids.append((e, x))
            return walk(e, x)
        return record

    expected = 0
    for path in sorted((ROOT / "configs").rglob("*.cfg")) + [hybrid]:
        spec = build_system(load_config(path))
        if not dense_intervals(spec.ts):
            continue
        # q, p and q' in one walk in each round of the series grid, which
        # the phase form reads too, and on the bound's sample, p on the
        # first GK15 panels of B, q at the dense starts, and p and q at the
        # scattered points. 15 scales have intervals, 13 of them are
        # continuous
        rounds = _SeriesEngine(solve_phi(spec)).rounds
        points = 2 * bool(spec.ts.scattered_with_mu())
        expected += ((rounds + 1 + 2 + points)
                     * (1 + spec.ts.is_continuous))
        with monkeypatch.context() as m:
            m.setattr(ex, "evaluate_array", recorded(ex.evaluate_array))
            m.setattr(ex.Forest, "evaluate", recorded(ex.Forest.evaluate))
            analyze(spec, n=3)
            if spec.ts.is_continuous:
                analyze(spec, n=3, use_shi=True)
    assert len(grids) == expected


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


def _tail_reference(z: float, n: int) -> float:
    """sum_{k>n} z^k / k! for z <= 1 in exact rationals, correctly
    rounded: the terms from k = n + 60 on are below 1e-80 of the first."""
    z = Fraction(z)
    return float(sum(z ** k / math.factorial(k) for k in range(n + 1, n + 60)))


def _unit_bound(z: float, n: int) -> float:
    """error_bound's value at order n with K1 = K2 = 1 and K3 = z on a
    unit period: the remainder of e^z after its Taylor polynomial."""
    ts = validate(PeriodicTimeScale(0.0, 1.0, [Interval(0.0, 1.0)]))
    spec = SystemSpec(ts, parse("0"), parse("1"))
    with mock.patch.object(floquet, "estimate_bounds",
                           lambda *_: (1.0, 1.0, z)):
        return error_bound(spec, None, n).value


@pytest.mark.parametrize("z, n", [(0.05, 8), (1.0, 16), (0.5, 3)])
def test_error_bound_sums_the_remainder(z, n):
    # e^z minus the partial sum gave 0.0 for 5.38e-18 at z = 0.05, n = 8
    # and 2.66e-15 at z = 1, n = 16, below the first omitted term 2.81e-15
    want = _tail_reference(z, n)
    assert abs(_unit_bound(z, n) - want) <= 4 * math.ulp(want)


def test_error_bound_of_a_mathieu_config_is_the_remainder():
    # the cancelling difference read 1.1e-7 relative too small here
    spec = build_system(load_config(ROOT / "configs" / "mathieu" / "h1_4.cfg"))
    K1, K2, K3 = estimate_bounds(spec, solve_phi(spec))
    want = (K1 / K2) * _tail_reference(K2 * K3 * spec.ts.period, 8)
    got = analyze(spec, n=8).err_bound.value
    assert abs(got - want) <= 4 * math.ulp(want)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=700.0), st.integers(0, 40))
@example(0.05, 8)
def test_error_bound_is_at_least_the_first_omitted_term(z, n):
    try:
        first = z ** (n + 1) / math.factorial(n + 1)
    except OverflowError:
        first = math.inf
    assert _unit_bound(z, n) >= first


def _exp_tail_in_order(z: float, n: int) -> float:
    """The tail sum as it read before its terms were sorted: the same
    terms and stopping rule, ``fsum`` taking the terms in the order of k."""
    k = n + 1
    term = z ** k / math.factorial(k)
    terms = [term]
    total = term
    while total < math.inf:
        k += 1
        term *= z / k
        if z < k + 1:
            rest = term / (1.0 - z / (k + 1))
            if rest <= 2.0 ** -53 * total:
                terms.append(rest)
                return math.fsum(terms)
        terms.append(term)
        total += term
    return math.inf


def _tail_outcome(tail, z, n):
    try:
        return tail(z, n).hex()
    except OverflowError:
        return "OverflowError"


_TAIL_CASES = (
    [(z, n) for z in np.linspace(0.0, 800.0, 161).tolist()
     for n in (0, 1, 2, 3, 5, 8, 16, 48)]
    # around log(DBL_MAX) = 709.78, where e^z leaves the float range
    + [(709.78 + d, n) for d in np.linspace(-0.05, 0.05, 41).tolist()
       for n in (0, 1, 3)]
    # first terms z^(n+1) past the float range: OverflowError
    + [(1e200, 1), (1e300, 3), (800.0, 120)])


def test_exp_tail_is_the_sum_in_the_order_of_k():
    # fsum is correctly rounded, so the descending order it now takes gives
    # the same float, inf and OverflowError as the order of k, bit for bit
    rng = random.Random(5)
    cases = _TAIL_CASES + [(rng.uniform(0.0, 800.0), rng.randrange(50))
                           for _ in range(300)]
    got = [_tail_outcome(floquet._exp_tail, z, n) for z, n in cases]
    assert got == [_tail_outcome(_exp_tail_in_order, z, n) for z, n in cases]
    assert {"inf", "OverflowError"} <= set(got)  # both ends are swept


# -- multipliers and verdict --------------------------------------------------

# B's enclosure as the analysis builds it from compute_B's value
_b = floquet._b_enclosure


def test_multipliers_point_interval():
    (slo, shi_), (llo, lhi) = multipliers(Enclosure(17 / 4, 17 / 4), _b(1.0))
    assert (slo, shi_) == pytest.approx((0.25, 0.25), abs=1e-10)
    assert (llo, lhi) == pytest.approx((4.0, 4.0), abs=1e-10)


def test_multipliers_complex_pair():
    (slo, shi_), (llo, lhi) = multipliers(Enclosure(-1.2147, -1.2145),
                                          _b(PI * PI - PI / 4 + 1))
    root = math.sqrt(PI * PI - PI / 4 + 1)
    for v in (slo, shi_, llo, lhi):
        assert v == pytest.approx(root, abs=1e-4)
        assert v == pytest.approx(3.175564, abs=1e-5)


def test_multipliers_breakpoint_inside_interval():
    # interval straddles 2*sqrt(B): the larger-modulus max is attained at
    # an endpoint, the smaller-modulus min at the breakpoint
    (slo, _), (_, lhi) = multipliers(Enclosure(1.5, 2.5), _b(1.0))
    assert slo == pytest.approx(0.5)  # at A=2.5: (2.5-1.5)/2
    assert lhi == pytest.approx(2.0)  # at A=2.5: (2.5+1.5)/2
    (smin, smax), _ = multipliers(Enclosure(1.9, 2.1), _b(1.0))
    assert smax == pytest.approx(1.0)  # attained at the breakpoint A=2


def test_multipliers_pure_imaginary():
    (slo, shi_), (llo, lhi) = multipliers(Enclosure(0.0, 0.0), _b(1.0))
    assert (slo, shi_, llo, lhi) == pytest.approx((1, 1, 1, 1))


def _mp_moduli(A, B, dps=60):
    """|A/2 - r| and |A/2 + r|, r = sqrt(A^2/4 - B), at ``dps`` digits: the
    moduli of the roots of rho^2 - A rho + B in ``_moduli_at``'s order."""
    with mpmath.workdps(dps):
        A, B = mpmath.mpf(A), mpmath.mpf(B)
        r = mpmath.sqrt(A * A / 4 - B)
        return [float(abs(A / 2 - r)), float(abs(A / 2 + r))]


def _within_8_ulps(got, want):
    return all(abs(g - w) <= 8 * math.ulp(w) for g, w in zip(got, want))


def test_moduli_at_is_within_8_ulps_of_mpmath():
    # |A/2 - r| cancels where A^2/4 >> |B|: the smaller modulus of two
    # real roots is |B| over the larger
    rng = random.Random(30)
    for _ in range(10000):
        A = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 8)
        B = rng.choice((-1, 1)) * 10 ** rng.uniform(-20, 4)
        assert _within_8_ulps(floquet._moduli_at(A, B), _mp_moduli(A, B)), \
            (A, B)


def _within_4_ulps(got, want):
    return all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got, want))


def test_moduli_stay_finite_where_A_squared_overflows():
    # A^2/4 is inf from |A| ~ 1.3e154 on: r = sqrt(A^2/4 - B) read inf and
    # both moduli with it, where the smaller is really |B| / |A|. |A/2 - r|
    # cancels to ~1e-200 in mpmath too, so it works at 1000 digits
    for A, B in ((1e200, 1.0), (-1e200, 1.0), (1e200, -3.0)):
        got = floquet._moduli_at(A, B)
        assert all(map(math.isfinite, got)), (A, B)
        assert _within_4_ulps(got, _mp_moduli(A, B, 1000)), (A, B)
    small, large = multipliers(Enclosure(1e170, 1e171), _b(2.0))
    ends = [sorted(_mp_moduli(A, 2.0, 1000)) for A in (1e170, 1e171)]
    assert _within_4_ulps(small, [ends[1][0], ends[0][0]])
    assert _within_4_ulps(large, [ends[0][1], ends[1][1]])


def test_smaller_modulus_of_reports_does_not_cancel(workloads, tmp_path):
    # a discrete scale whose interval A +- err_bound reaches |A| ~ 2.7e7
    # with B = 9.15: the smaller modulus falls as |A| grows, to its least,
    # ~B / 2.7e7, at an end of the interval
    report = analyze(random_discrete_system(20), n=3)
    A, err, B = report.A_partial, report.err_bound.value, report.B
    want = min(min(_mp_moduli(a, B)) for a in (A - err, A + err))
    assert want == pytest.approx(3.44100e-7, rel=1e-5)
    assert _within_8_ulps([report.rho_moduli[0][0]], [want])
    # a benchmark hybrid whose point moduli are ~B / A = 1.8e-16 and ~A
    system, = (s for s in workloads.build("hybrid", 3, ROOT).systems
               if s.name == "hybrid100_damped")
    path = tmp_path / "hybrid100_damped.cfg"
    path.write_text(system.text)
    report = analyze(build_system(load_config(path)), n=3)
    want = _mp_moduli(report.A_partial, report.B)
    assert min(want) == pytest.approx(1.8e-16, rel=0.05)
    assert _within_8_ulps(report.point_moduli, want)


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
    assert shi_continuous_a(spec, table, 4) == pytest.approx(-2.0, abs=1e-9)


def test_phi_constant_on_reals():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("0"), parse("1/4"))
    table = solve_phi(spec)
    for t in (0.0, 1.0, PI / 2, PI):
        assert phase_value(table, t) == pytest.approx(0.5, abs=1e-14)
        assert phi_delta(table, t) == pytest.approx(0.0, abs=1e-14)


def test_fundamental_matrix_dense_derivative(example_continuous):
    spec = example_continuous
    table = solve_phi(spec)
    h = 1e-5
    for t in (0.4, 1.1, 2.3):
        dX = (fundamental_matrix(spec, table, t + h)
              - fundamental_matrix(spec, table, t - h)) / (2 * h)
        phi = phase_value(table, t)
        C = np.array([[0.0, 1.0],
                      [-q_at(spec, t), phi_delta(table, t) / phi]])
        rhs = C @ fundamental_matrix(spec, table, t)
        assert float(np.max(np.abs(dX - rhs))) <= 1e-8


def test_infinite_bound_verdict():
    # an infinite A interval leaves the smaller modulus in [0, sqrt(B)] and
    # the larger in [sqrt(B), inf]; only B > 1 decides
    (slo, shi_), (llo, lhi) = multipliers(Enclosure(-math.inf, math.inf),
                                          _b(0.25))
    assert (slo, shi_, llo, lhi) == (0.0, 0.5, 0.5, math.inf)
    v, _ = verdict(Enclosure(-math.inf, math.inf), _b(0.25))
    assert v is Verdict.UNDETERMINED
    v, _ = verdict(Enclosure(-math.inf, math.inf), _b(4.0))
    assert v is Verdict.UNSTABLE
    # an infinite A(n) gives an enclosure with a NaN end, (nan, inf) or
    # (-inf, nan), that says nothing of A: either way only B decides
    for a in (Enclosure(math.nan, math.inf), Enclosure(-math.inf, math.nan)):
        for B in (0.25, 1.0):
            assert verdict(a, _b(B))[0] is Verdict.UNDETERMINED
        assert verdict(a, _b(-4.0)) == (
            Verdict.UNSTABLE, "|B| > 1 forces a multiplier modulus above 1")


def test_verdict_examples():
    v, _ = verdict(Enclosure(17 / 4, 17 / 4), _b(1.0))
    assert v is Verdict.UNSTABLE
    v, _ = verdict(Enclosure(-0.752, -0.752), _b(1.0))
    assert v is Verdict.STABLE
    v, _ = verdict(Enclosure(0.5, 0.5), _b(0.25))
    assert v is Verdict.EXPONENTIALLY_STABLE
    v, _ = verdict(Enclosure(1.9, 2.1), _b(1.0))
    assert v is Verdict.UNDETERMINED
    # B one ulp above 1 (rounding of a true B = 1) leaves the critical
    # case undetermined: |B| > 1 decides only beyond that rounding
    v, _ = verdict(Enclosure(1.9, 2.1), _b(1.0 + 2**-52))
    assert v is Verdict.UNDETERMINED
    v, _ = verdict(Enclosure(-600.0, 600.0), _b(1.0 + 4e-16))
    assert v is Verdict.UNDETERMINED
    v, _ = verdict(Enclosure(math.nan, math.nan), _b(math.inf))
    assert v is Verdict.UNSTABLE
    # B > 1 forces a multiplier off the unit circle for any A
    v, _ = verdict(Enclosure(-600.0, 600.0), _b(PI * PI - PI / 4 + 1))
    assert v is Verdict.UNSTABLE
    # B 5e-10 below 1 and A up to 1.9999999999 > 1 + B: the larger modulus
    # reaches 1.00002, so the A interval inside (-2, 2) is not enough
    v, _ = verdict(Enclosure(1.999999999, 1.9999999999), _b(1 - 5e-10))
    assert v is Verdict.UNDETERMINED
    assert max(_mp_moduli(1.9999999999, 1 - 5e-10)) > 1.00001


@pytest.mark.parametrize("A", [0.5, -1.6275858])
def test_verdict_near_B_one(A):
    # a B within compute_B's rounding above 1 may be exactly 1: neither
    # unstable nor, as B may also be above 1, stable
    for B in (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 1.0 + 8 * 2.0 ** -52):
        (slo, shi_), (llo, lhi) = multipliers(Enclosure(A, A), _b(B))
        assert slo <= 1.0 <= lhi and llo <= 1.0
        v, _ = verdict(Enclosure(A, A), _b(B))
        assert v is Verdict.UNDETERMINED
    # beyond that rounding B is above 1, so a modulus is too
    for B in (1.0 + 9 * 2.0 ** -52, 1.0 + 1e-10):
        v, _ = verdict(Enclosure(A, A), _b(B))
        assert v is Verdict.UNSTABLE
    # B's enclosure reaching 1 does not save an A far outside [-2, 2],
    # which forces a modulus above 1
    v, _ = verdict(Enclosure(A + 10.0, A + 20.0), _b(1.0 + 2.0 ** -51))
    assert v is Verdict.UNSTABLE
    # the mirror below 1: such a B may be exactly 1 too, so |rho1 rho2|
    # may be 1 and neither modulus surely below it; as B <= 1, stable
    for B in (1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 - 8 * 2.0 ** -52):
        v, _ = verdict(Enclosure(A, A), _b(B))
        assert v is Verdict.STABLE


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, exclude_min=True,
                 exclude_max=True),
       st.floats(min_value=1.0 - floquet._B_ROUNDING,
                 max_value=1.0 + floquet._B_ROUNDING))
@example(-1.6275858, 1.0)  # both moduli round below 1 at B = 1.0
@example(0.5, 0.9999999999999999)
# |A| > 1 + B: at this B the larger modulus is 1 + 3.6e-8, so not stable
@example(1.9999999999999996, 0.9999999999999982)
def test_verdict_B_within_rounding_of_one(A, B):
    # B may be exactly 1 and A lies inside (-2, 2): the multipliers may be
    # two distinct points of the unit circle, so the verdict is neither
    # exponentially stable nor unstable. It is stable exactly where both
    # multipliers lie in the closed unit disk at B as well as at 1, which
    # for B <= 1 is |A| <= 1 + B (Schur-Cohn), taken exactly
    v, _ = verdict(Enclosure(A, A), _b(B))
    assert v in (Verdict.STABLE, Verdict.UNDETERMINED)
    inside = B <= 1.0 and abs(Fraction(A)) <= 1 + Fraction(B)
    assert (v is Verdict.STABLE) == inside
    if v is Verdict.UNDETERMINED and B <= 1.0:
        assert max(_mp_moduli(A, B)) > 1.0


def _near(x: float, ulps: int) -> float:
    """x moved by ``ulps`` float spacings, up for positive ulps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _sub_enclosure(draw, outer):
    """An enclosure inside ``outer``: two of its points, in order, each an
    end, an end moved inward by a few ulps, or a point between the ends."""
    lo, hi = outer
    if lo == hi:
        return outer

    def point():
        return draw(st.one_of(
            st.sampled_from([lo, hi]),
            st.integers(1, 3).map(lambda k: min(max(_near(lo, k), lo), hi)),
            st.integers(1, 3).map(lambda k: max(min(_near(hi, -k), hi), lo)),
            st.floats(min_value=lo if lo > -math.inf else None,
                      max_value=hi if hi < math.inf else None,
                      allow_nan=False)))
    return Enclosure(*sorted((point(), point())))


@st.composite
def _refined_enclosures(draw):
    """Enclosures of A and B as the analysis builds them, A(n) +- err and
    ``_b``'s B, and a sub-enclosure of each. A is drawn anywhere, near +-2,
    or within a few ulps of +-(1 + B), where the larger modulus crosses 1."""
    B = draw(st.one_of(
        st.floats(-3.0, 3.0),
        st.floats(1.0 - 1e-8, 1.0 + 1e-8),
        st.floats(1.0 - floquet._B_ROUNDING, 1.0 + floquet._B_ROUNDING),
        st.sampled_from([1.0, -1.0, math.inf, -math.inf])))
    edge = 1.0 + B if math.isfinite(B) else 2.0
    A = draw(st.one_of(
        st.floats(-4.0, 4.0),
        st.floats(1.99, 2.01), st.floats(-2.01, -1.99),
        st.integers(-4, 4).map(lambda k: _near(edge, k)),
        st.integers(-4, 4).map(lambda k: -_near(edge, k))))
    err = draw(st.one_of(
        st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 1e-6),
        st.floats(0.0, 2.0), st.just(math.inf)))
    a, b = Enclosure(A - err, A + err), _b(B)
    return a, b, draw(_sub_enclosure(a)), draw(_sub_enclosure(b))


@settings(max_examples=500, deadline=None)
@given(_refined_enclosures())
@example((Enclosure(1.8, 1.8782983255570211),
          Enclosure(0.8782983255570211, 0.8782983255570211),
          Enclosure(1.8782983255570211, 1.8782983255570211),
          Enclosure(0.8782983255570211, 0.8782983255570211)))
@example((Enclosure(1.999999999, 1.9999999999), _b(1 - 1e-9),
          Enclosure(1.9999999999, 1.9999999999), _b(1 - 1e-9)))
def test_refining_the_enclosures_never_flips_a_verdict(enclosures):
    # a sub-enclosure holds fewer (A, B) pairs, so a verdict proven for
    # every pair of the outer ones still holds: stable kinds stay stable,
    # unstable stays unstable, and neither turns undetermined. The first
    # example has A = 1 + B exactly at its upper end, where the multipliers
    # are 1 and B but the rounded larger modulus is 1 + 4e-16
    a, b, a_in, b_in = enclosures
    outer, inner = verdict(a, b)[0], verdict(a_in, b_in)[0]
    if outer is not Verdict.UNDETERMINED:
        assert inner is not Verdict.UNDETERMINED
        assert (inner is Verdict.UNSTABLE) == (outer is Verdict.UNSTABLE)


# -- phase-form series --------------------------------------------------------

@pytest.mark.parametrize("path", [
    path for path in sorted((ROOT / "configs").rglob("*.cfg"))
    if build_system(load_config(path)).ts.is_continuous],
    ids=lambda path: path.stem)
@pytest.mark.parametrize("n", [3, 8])
def test_shi_matches_series(path, n):
    # the phase form integrates on the series grid, so the two agree to
    # rounding, not to the grids' discretization error
    spec = build_system(load_config(path))
    table = solve_phi(spec)
    assert abs(shi_continuous_a(spec, table, n)
               - a_partial(spec, table, n)) <= 2e-13


@pytest.mark.parametrize("config, n, A, B, bound, v", [
    ("example_continuous.cfg", 3, "-0x1.0c152382d7362p-4",
     "0x1.0000000000000p+0", 0.3600164065280393, Verdict.STABLE),
    ("mathieu/h2_2.cfg", 8, "0x1.0002eab4675e2p+1",
     "0x1.0000000000000p+0", 0.023827398495473575, Verdict.UNDETERMINED),
])
def test_shi_analysis_computes_B_once(config, n, A, B, bound, v,
                                      monkeypatch):
    # analyze hands its B to the phase-form series instead of having
    # shi_continuous_a compute it again; the report is unchanged
    spec = build_system(load_config(ROOT / "configs" / config))
    calls = []

    def counted(spec, *sample):
        calls.append(spec)
        return compute_B(spec, *sample)

    monkeypatch.setattr(floquet, "compute_B", counted)
    report = analyze(spec, n=n, use_shi=True)
    assert len(calls) == 1
    assert (report.A_partial.hex(), report.B.hex()) == (A, B)
    assert report.err_bound.value == bound
    assert report.verdict is v and report.method == "phase-form"
    assert report.A_terms == []


@pytest.mark.parametrize("use_shi", [False, True], ids=["series", "shi"])
def test_negative_order_is_refused_on_both_paths(use_shi):
    # the phase form once summed no level and reported n = -1 with a bound
    spec = build_system(load_config(ROOT / "configs" / "mathieu" / "h1_1.cfg"))
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        analyze(spec, n=-1, use_shi=use_shi)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        shi_continuous_a(spec, solve_phi(spec), -1)


def test_shi_requires_continuous(example_hybrid):
    with pytest.raises(NotContinuousScale):
        shi_continuous_a(example_hybrid, solve_phi(example_hybrid), 3)


def test_shi_requires_B_one():
    ts = validate(PeriodicTimeScale(0, PI, [Interval(0, PI)]))
    spec = SystemSpec(ts, parse("1"), parse("1"))  # B = e^{-pi} != 1
    with pytest.raises(BNotOne):
        shi_continuous_a(spec, solve_phi(spec), 3)


# -- fundamental matrix identities --------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_fundamental_matrix_identities(seed):
    spec = random_hybrid_system(600 + seed) if seed % 2 else \
        random_discrete_system(600 + seed)
    ts = spec.ts
    table = solve_phi(spec)
    assert fundamental_matrix(spec, table, ts.t0) == pytest.approx(np.eye(2))
    samples = [t for t, _ in ts.scattered_with_mu()] + [ts.t_end]
    for a, b in dense_intervals(ts):
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
            [-q_at(spec, s), phi_delta(table, s) / phase_value(table, s)],
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
    t = ts.t_end
    X = fundamental_matrix(spec, table, t)
    e = ts_exponential(lambda u: mu_at(ts, u) * phase_value(table, u) ** 2,
                       t, ts.t0, ts)
    want = phase_value(table, t) * e / phase_value(table, ts.t0)
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
