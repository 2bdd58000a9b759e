"""The truncation bound's constants K1 and K2 from angular windows.

``_SeriesEngine.bound_constants`` evaluates only the entries of the N x N
kernel tables whose row and column norms and angles can reach an entry
already seen; these tests hold it to the full-table maximum bit for bit
and check that it really evaluates only a small part of the tables.
"""
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsfloquet import estimate_bounds, floquet, solve_phi
from tsfloquet.cli import build_system, load_config
from tsfloquet.floquet import (
    _BOUNDS_ROWS,
    _SeriesEngine,
    _windowed_max,
)

from cell_reference import CellEngine
from conftest import (
    random_discrete_system,
    random_hybrid_system,
    unit_step_overflow_system,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _hex(constants):
    return [float(k).hex() for k in constants]  # nan.hex() == "nan"


def _hybrid(workloads, tmp_path, seed, damped, geometry):
    cfg = tmp_path / "hybrid.cfg"
    cfg.write_text(workloads.hybrid_system(
        random.Random(seed), "h", 100, damped, geometry).text)
    return build_system(load_config(cfg))


_LONG_HYBRIDS = [(seed, damped, geometry) for seed in range(3)
                 for damped, geometry in ((True, "gentle"),
                                          (False, "gentle"),
                                          (True, "steep"))]


@pytest.mark.parametrize("seed, damped, geometry", _LONG_HYBRIDS)
def test_long_hybrid_matches_the_full_table(workloads, tmp_path, seed,
                                            damped, geometry):
    spec = _hybrid(workloads, tmp_path, seed, damped, geometry)
    table = solve_phi(spec)
    stacked = _SeriesEngine(table)
    per_cell = CellEngine(spec, table)
    assert _hex(stacked.bound_constants()) == \
        _hex(per_cell.bound_constants())


def _discrete(workloads, tmp_path, k):
    cfg = tmp_path / "discrete.cfg"
    cfg.write_text(workloads.discrete_system(random.Random(k), "d", k).text)
    return build_system(load_config(cfg))


@pytest.mark.parametrize("kind, k", [("workload", 200), ("workload", 500),
                                     ("workload", 1000), ("overflow", 500),
                                     ("overflow", 1000)])
def test_long_discrete_matches_the_full_table(workloads, tmp_path, kind, k):
    # on the overflowing scales K1 and then K2 come out NaN from some k on
    spec = (_discrete(workloads, tmp_path, k) if kind == "workload"
            else unit_step_overflow_system(k))
    table = solve_phi(spec)
    K = _SeriesEngine(table).bound_constants()
    assert _hex(K) == _hex(CellEngine(spec, table).bound_constants())
    # the overflowing scales reach the NaN path at both lengths
    assert np.isnan(K[0]) == (kind == "overflow")


@pytest.mark.parametrize("seed", range(20))
def test_K2_is_about_one_or_more(seed):
    # the pair (t0 + T, t0 + T) is an entry, Re(phi_T E_T / (phi_T E_T)) =
    # 1 within rounding, so K2 never comes near 0: error_bound's only
    # exact case off a terminated discrete series is K3 = 0
    configs = sorted(CONFIGS.rglob("*.cfg"))
    for spec in (random_hybrid_system(seed), random_discrete_system(seed),
                 build_system(load_config(configs[seed % len(configs)]))):
        K2 = estimate_bounds(spec, solve_phi(spec))[1]
        assert K2 >= 1.0 - 2.0 ** -48, (seed, K2)


def _evaluated(engine, monkeypatch):
    """The number of K1 and K2 table entries ``bound_constants`` evaluates,
    against the 2 N^2 of the full tables over N nodes and jumps: the real
    nodes of the bound's own sample, every jump and t0 + T."""
    real = engine.bound[-1]
    N = real.sum() + engine.jump_table.shape[1] + 1
    counts = []

    def counting(entry, *args):
        def counted(*operands):
            values = entry(*operands)
            counts.append(values.size)
            return values
        return _windowed_max(counted, *args)

    monkeypatch.setattr(floquet, "_windowed_max", counting)
    engine.bound_constants()
    return N, sum(counts)


def test_long_hybrid_builds_few_table_entries(workloads, tmp_path,
                                              monkeypatch):
    # K1 and K2 over N nodes are maxima over 2 N^2 pairs; evaluating all
    # of them again would bring back the O(N^2) cost
    spec = _hybrid(workloads, tmp_path, 1, True, "gentle")
    N, evaluated = _evaluated(_SeriesEngine(solve_phi(spec)),
                              monkeypatch)
    # 17 nodes on each of the 100 cells, 200 jumps and t0 + T
    assert N == 1901
    assert 0 < evaluated < 0.05 * 2 * N * N


@pytest.mark.parametrize("config", ["example_continuous.cfg",
                                    "mathieu/h1_3.cfg", "mathieu/h3_4.cfg"])
def test_one_cell_config_evaluates_few_table_entries(config, monkeypatch):
    # on one cell |phi E| is nearly constant, so no row or column norm
    # rules anything out (example_continuous has every row's maximum at
    # s = t); only the angles can
    spec = build_system(load_config(CONFIGS / config))
    N, evaluated = _evaluated(_SeriesEngine(solve_phi(spec)),
                              monkeypatch)
    assert 0 < evaluated < 0.05 * 2 * N * N


# -- the windowed helper against the full maximum -----------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
            1.7976931348623157e308, np.inf, -np.inf, np.nan]


_LENGTHS = st.integers(1, 300)


@st.composite
def _vectors(draw, n, complex_=False):
    """n entries spread over many decades above a drawn scale, with exact
    ties and repeats from a small pool, and a few zeros, subnormals, the
    largest float, inf and NaN. The entries come from a seeded generator,
    so an example is a handful of draws whatever its length."""
    size = 2 * n if complex_ else n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.integers(-1074, 1000))
    high = min(1023, low + draw(st.integers(0, 400)))
    values = rng.uniform(-1.0, 1.0, size) * np.exp2(
        rng.integers(low, high + 1, size))
    tied = rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.95]))
    pool = values[:draw(st.integers(1, 4))]
    values[tied] = rng.choice(pool, tied.sum())
    for v in draw(st.lists(st.sampled_from(_SPECIAL), max_size=3)):
        values[draw(st.integers(0, size - 1))] = v
    if not complex_:
        return values
    z = np.empty(n, dtype=complex)
    z.real, z.imag = values[:n], values[n:]
    return z


def _full_max(table, rows, cols):
    """The reduction bound_constants made before pruning: every row, a
    block at a time."""
    return float(np.max([
        np.abs(table(*[a[i:i + _BOUNDS_ROWS] for a in rows], *cols)).max()
        for i in range(0, len(rows[0]), _BOUNDS_ROWS)]))


def _same(entry, table, rows, cols, v, w):
    # under bound_constants' error state: a division by zero still raises
    with np.errstate(invalid="ignore", over="ignore"):
        windowed = _windowed_max(entry, rows, cols, v, w)
    with np.errstate(all="ignore"):
        full = _full_max(table, rows, cols)
    assert windowed.hex() == full.hex()


@st.composite
def _complex_vectors(draw):
    return draw(_vectors(draw(_LENGTHS), complex_=True))


@st.composite
def _real_pairs(draw):
    n = draw(_LENGTHS)
    return draw(_vectors(n)), draw(_vectors(n))


def _rows(big, first):
    """One more row than a block: ``first``, then big (1 - 1j)."""
    u = np.full(_BOUNDS_ROWS + 1, big * (1 - 1j))
    u[0] = first
    return u


_TURNS = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
# angles within 0.01 of 0 and of pi, on both sides, for rows and columns
_STRADDLE = np.concatenate([np.linspace(-0.01, 0.01, 101),
                            np.pi + np.linspace(-0.01, 0.01, 99)])


def _zeroed(k, x):
    """A copy of x with entry k set to 0."""
    x = x.copy()
    x[k] = 0.0
    return x


@st.composite
def _near_tied(draw, n):
    """n vectors (x, y) whose norms lie within a drawn relative spread of
    one scale, so that no norm rules a row or column out, with angles
    over the whole circle or clustered about 0 and pi."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = np.exp2(draw(st.integers(-400, 400))) * (
        1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6, 1e-2]))
        * rng.random(n))
    width = draw(st.sampled_from([np.pi, 1e-2, 1e-9]))
    theta = rng.uniform(-width, width, n) + np.pi * rng.integers(0, 2, n)
    return r * np.cos(theta), r * np.sin(theta)


_WIDE = st.integers(_BOUNDS_ROWS + 1, 300)


def _K2(u, M):
    with np.errstate(all="ignore"):
        v, w = (u.real, u.imag), (M.real, -M.imag)
    _same(lambda u, M: (u * M).real, lambda u, M: np.outer(u, M).real,
          (u,), (M,), v, w)


@settings(max_examples=200, deadline=None)
@given(_complex_vectors(), _complex_vectors())
# a subnormal column norm: |M| rounds from 7e-324 down to 5e-324, so every
# row's bound falls below the entries it should cover
@example(u=_rows(3e15, 3e15 * (1 - 1j)),
         M=np.array([5e-324 + 5e-324j]))
# a subnormal row norm under a normal column maximum: the row holding the
# maximum would be left out
@example(u=_rows(2.0 ** -80, 5e-324 + 5e-324j),
         M=np.array([2.0 ** 990 * (1 - 1j)]))
# tied rows: every row reaches its maximum 1 at s = t, so no norm rules
# out anything
@example(u=3.0 * np.exp(1j * _TURNS), M=np.exp(-1j * _TURNS) / 3.0)
# row and column angles on both sides of 0 and of pi: the windows wrap
@example(u=np.exp(1j * _STRADDLE), M=np.exp(1j * (_STRADDLE[::-1] + 1e-4)))
# a zero row and a zero column among tied ones
@example(u=_zeroed(7, np.exp(1j * _TURNS)), M=_zeroed(9, np.exp(-1j * _TURNS)))
def test_pruned_K2_table_max_is_the_full_max(u, M):
    _K2(u, M)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pruned_K2_max_of_near_tied_vectors(data):
    x, y = data.draw(_near_tied(data.draw(_WIDE)))
    Mx, My = data.draw(_near_tied(data.draw(_WIDE)))
    _K2(x + 1j * y, Mx + 1j * My)


def _K1(rows, cols, phi0):
    (a, b), (Q, P) = rows, cols
    with np.errstate(all="ignore"):
        v, w = (a * phi0, b), (Q / phi0, -P)
    _same(lambda a, b, Q, P: a * Q - b * P,
          lambda a, b, Q, P: np.outer(a, Q) - np.outer(b, P),
          (a, b), (Q, P), v, w)


@settings(max_examples=200, deadline=None)
@given(_real_pairs(), _real_pairs(),
       st.floats(2.0 ** -20, 2.0 ** 20))
# tied rows, as for K2, with the rescaling by phi0 in between
@example(rows=(np.cos(_TURNS) / 0.7, np.sin(_TURNS)),
         cols=(np.cos(_TURNS) * 0.7, np.sin(_TURNS)), phi0=0.7)
# angles straddling 0 and pi
@example(rows=(np.cos(_STRADDLE), np.sin(_STRADDLE)),
         cols=(np.cos(_STRADDLE + 3e-4), np.sin(_STRADDLE[::-1])), phi0=1.0)
# a zero row and a zero column among tied ones
@example(rows=(_zeroed(3, np.cos(_TURNS)), _zeroed(3, np.sin(_TURNS))),
         cols=(_zeroed(4, np.cos(_TURNS)), _zeroed(4, np.sin(_TURNS))),
         phi0=1.0)
def test_pruned_K1_table_max_is_the_full_max(rows, cols, phi0):
    _K1(rows, cols, phi0)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.floats(2.0 ** -20, 2.0 ** 20))
def test_pruned_K1_max_of_near_tied_vectors(data, phi0):
    # the row vector is (a phi0, b) and the column vector (Q / phi0, -P)
    vx, b = data.draw(_near_tied(data.draw(_WIDE)))
    wx, P = data.draw(_near_tied(data.draw(_WIDE)))
    _K1((vx / phi0, b), (wx * phi0, -P), phi0)


def test_subnormal_entries_prune_nothing():
    # a b is 1.5 subnormal ulps: each entry rounds up to 4 ulps while its
    # Cauchy-Schwarz bound, 2 a b, rounds to 3, so below the smallest
    # normal float a bound can fall under lo and still hide the maximum
    a, b = 1.5 * 2.0 ** -537, 2.0 ** -537
    x, y = np.full(_BOUNDS_ROWS + 1, a), np.full(3, b)
    u, M = x * (1 + 1j), y * (1 - 1j)
    K2 = _windowed_max(lambda u, M: (u * M).real, (u,), (M,),
                       (u.real, u.imag), (M.real, -M.imag))
    K1 = _windowed_max(lambda a, b, Q, P: a * Q - b * P,
                       (x, x), (y, -y), (x, x), (y, y))
    assert K1 == K2 == 4 * 2.0 ** -1074
