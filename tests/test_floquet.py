import math
import random
import re
import warnings
from pathlib import Path

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
)
from scipy.integrate import cumulative_simpson

from tsfloquet import expr as ex
from tsfloquet import floquet
from tsfloquet.cli import build_system, load_config
from tsfloquet.floquet import (
    _BOUNDS_GRID,
    PhiDiscontinuityWarning,
    _SeriesEngine,
    validate_system,
)
from tsfloquet.oracle import monodromy

from calculus_reference import (
    h_fn,
    kernel_P,
    kernel_Q,
    phi_delta,
    ts_exponential,
)
from conftest import (
    fundamental_matrix,
    fundamental_matrix_inverse,
    points_scale,
    random_discrete_system,
    random_hybrid_system,
)
from cell_reference import CellEngine
from discrete_reference import discrete_terms

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent


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


def test_no_phi_warning_at_redefined_right_endpoint():
    # q(0.8) is redefined as phi(1.2) phi(0.8); the chain value at 0.8 must
    # be compared with the dense limit of sqrt(q), not with sqrt(q(0.8))
    segs, T, _ = _LAYOUTS["after"]
    spec = _layout_system(segs, T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PhiDiscontinuityWarning)
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


def _reference_B(spec):
    """e_{-p + mu q}(t0+T, t0) from the generalized exponential, with q
    read only where mu > 0."""
    ts = spec.ts

    def g(t):
        mu, p = ts.mu(t), spec.p_at(t)
        return -p + mu * spec.q_at(t) if mu else -p

    return float(ts_exponential(g, ts.t_end, ts.t0, ts, spec.quad_tol))


@pytest.mark.parametrize("family", ["configs", "hybrid", "discrete",
                                    "workload"])
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
    else:  # a 100-cell benchmark hybrid
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        import workloads

        cfg = tmp_path / "hybrid.cfg"
        cfg.write_text(
            workloads.hybrid_system(random.Random(1), "h", 100, True).text)
        systems = [build_system(load_config(cfg))]
    assert systems
    for spec in systems:
        assert compute_B(spec).hex() == _reference_B(spec).hex()


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


def test_complex_cumulative_simpson_is_the_split(example_hybrid):
    # the engine integrates the complex samples of all stacked cells in one
    # call; that must equal integrating the real and imaginary parts apart,
    # bit for bit. Seeds 0 and 12 have two cells of unequal node counts, so
    # the shorter row of the stack is padded
    for spec in (example_hybrid, random_hybrid_system(0),
                 random_hybrid_system(12)):
        engine = _SeriesEngine(spec, solve_phi(spec))
        assert engine.rows == 1 or engine.last[0] != engine.last[1]
        W = engine.h / engine.D
        for y in (engine.E, W * engine.phi * engine.E.imag):
            assert np.iscomplexobj(y)
            for integrate in (
                    lambda v: cumulative_simpson(v, x=engine.x, initial=0.0),
                    lambda v: floquet.cumulative_simpson(v, engine.weights)):
                whole = integrate(y)
                split = integrate(y.real) + 1j * integrate(y.imag)
                assert np.iscomplexobj(whole)
                assert np.array_equal(whole, split)


def _two_cell_system(p_text, q_text):
    """Dense cells [0, 1] and [2, 3], period 3."""
    ts = validate(PeriodicTimeScale(
        0.0, 3.0, [Interval(0.0, 1.0), Interval(2.0, 3.0)]))
    return SystemSpec(ts, parse(p_text), parse(q_text))


@pytest.mark.parametrize("q_text, lo, hi", [
    # q <= 0 only on (2.3, 2.7), inside the second cell
    ("if(lt(t, 1.5), 1, (t - 2.5)^2 - 0.04)", 2.3, 2.7),
    # q <= 0 in both cells, deeper in the second: time order names the first
    ("if(lt(t, 1.5), (t - 0.5)^2 - 0.01, (t - 2.5)^2 - 0.04)", 0.4, 0.6),
])
def test_negative_q_is_named_in_time_order(q_text, lo, hi):
    # all cells are sampled in one pass; the error still names a t in the
    # first cell, in time order, where q <= 0, as the per-cell loop did
    spec = _two_cell_system("0", q_text)
    table = solve_phi(spec)
    with pytest.raises(NegativeQOnDense) as stacked:
        _SeriesEngine(spec, table)
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
        _SeriesEngine(spec, table)
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
    # formed, naming the coefficient and its first node in time order
    spec = _two_cell_system(p_text, q_text)
    with pytest.raises(DomainError) as exc:
        _SeriesEngine(spec, solve_phi(spec))
    message = re.fullmatch(r"(.*) is not finite at t=(.*) on a dense part",
                           str(exc.value))
    assert message[1] == named
    assert 2.0 < float(message[2]) < 3.0


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
# length), every layout above, and every committed config with intervals
_REFERENCE_CASES = (
    [("seed", s) for s in range(32)]
    + [("layout", k) for k in sorted(_LAYOUTS)]
    + [("config", p.relative_to(_CONFIGS).as_posix())
       for p in sorted(_CONFIGS.rglob("*.cfg"))
       if re.search(r"^intervals\s*=", p.read_text(), re.M)])


def _reference_spec(kind, key):
    if kind == "seed":
        return random_hybrid_system(key)
    if kind == "layout":
        segs, T, _ = _LAYOUTS[key]
        return _layout_system(segs, T)
    return build_system(load_config(_CONFIGS / key))


@pytest.mark.parametrize("kind, key", _REFERENCE_CASES,
                         ids=[f"{k}-{v}" for k, v in _REFERENCE_CASES])
def test_stacked_engine_matches_cell_reference(kind, key):
    # the stacked engine keeps every floating-point operation of the
    # per-cell loop in cell_reference.py, so its terms and bound constants
    # are equal to the loop's, not just close
    spec = _reference_spec(kind, key)
    table = solve_phi(spec)
    assert _SeriesEngine(spec, table).terms(8) == \
        CellEngine(spec, table).terms(8)
    stacked = _SeriesEngine(spec, table, divisions=_BOUNDS_GRID)
    per_cell = CellEngine(spec, table, divisions=_BOUNDS_GRID)
    assert stacked.terms(8) == per_cell.terms(8)
    assert stacked.bound_constants() == per_cell.bound_constants()


@pytest.mark.parametrize("seed", range(20))
def test_array_sampling_matches_scalar_sampling(seed, monkeypatch):
    # numpy's sin, cos, exp and power may differ from math's in the last
    # ulp on some platforms; the series and the bound must not notice
    spec = random_hybrid_system(seed)
    fast = analyze(spec, n=8)
    monkeypatch.setattr(ex, "evaluate_array", lambda e, x: np.array(
        [ex.evaluate(e, t) for t in x]))
    slow = analyze(spec, n=8)
    scale = max(abs(a) for a in slow.A_terms)
    assert fast.A_terms == pytest.approx(slow.A_terms, rel=0,
                                         abs=1e-13 * scale)
    assert fast.err_bound.value == pytest.approx(slow.err_bound.value,
                                                 rel=1e-12)


def test_valid_grids_never_replay_the_scalar_walk(monkeypatch, tmp_path):
    # evaluate_array replays the scalar walk, one evaluate per node, only
    # where a node may fail; a valid dense grid must never get there
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    hybrid = tmp_path / "hybrid.cfg"  # nested if and mod in q
    hybrid.write_text(
        workloads.hybrid_system(random.Random(1), "h", 100, True).text)
    grids = []
    array = ex.evaluate_array

    def record(e, x):
        grids.append((e, x))
        return array(e, x)

    with monkeypatch.context() as m:
        m.setattr(ex, "evaluate_array", record)
        for path in sorted((ROOT / "configs").rglob("*.cfg")) + [hybrid]:
            spec = build_system(load_config(path))
            analyze(spec, n=3)
            if spec.ts.is_continuous:
                analyze(spec, n=3, use_shi=True)
    # p, q and q' on two grids per run: series (or phase) and bound; 15
    # scales have intervals, 13 of them are continuous
    assert len(grids) == 3 * 2 * (15 + 13)

    def replay(e, t):
        raise AssertionError(f"scalar replay at t={t}")

    monkeypatch.setattr(ex, "evaluate", replay)
    for e, x in grids:
        array(e, x)


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
    # B one ulp above 1 (rounding of a true B = 1) leaves the critical
    # case undetermined; only an overflowed B with NaN moduli uses |B| > 1
    v, _ = verdict((1.9, 2.1), 1.0 + 2**-52)
    assert v is Verdict.UNDETERMINED
    v, _ = verdict((math.nan, math.nan), math.inf)
    assert v is Verdict.UNSTABLE
    # B > 1 forces a multiplier off the unit circle for any A
    v, _ = verdict((-600.0, 600.0), PI * PI - PI / 4 + 1)
    assert v is Verdict.UNSTABLE


# -- phase-form series --------------------------------------------------------

def test_shi_matches_series(example_continuous):
    table = solve_phi(example_continuous)
    shi = shi_continuous_a(example_continuous, 3)
    assert shi == pytest.approx(a_partial(example_continuous, table, 3),
                                abs=1e-5)


@pytest.mark.parametrize("config, n, A, B, bound, v", [
    ("example_continuous.cfg", 3, "-0x1.0c152382d73c0p-4",
     "0x1.0000000000000p+0", 0.3600164065280386, Verdict.STABLE),
    ("mathieu/h2_2.cfg", 8, "0x1.0002eab4675dep+1",
     "0x1.0000000000000p+0", 0.023827398495474297, Verdict.UNDETERMINED),
])
def test_shi_analysis_computes_B_once(config, n, A, B, bound, v,
                                      monkeypatch):
    # analyze hands its B to the phase-form series instead of having
    # shi_continuous_a compute it again; the report is unchanged
    spec = build_system(load_config(ROOT / "configs" / config))
    calls = []

    def counted(spec):
        calls.append(spec)
        return compute_B(spec)

    monkeypatch.setattr(floquet, "compute_B", counted)
    report = analyze(spec, n=n, use_shi=True)
    assert len(calls) == 1
    assert (report.A_partial.hex(), report.B.hex()) == (A, B)
    assert report.err_bound.value == bound
    assert report.verdict is v and report.method == "phase-form"
    assert report.A_terms == []


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
