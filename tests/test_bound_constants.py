"""The truncation bound's constants K1 and K2 from pruned tables.

``_SeriesEngine.bound_constants`` reduces only the rows and columns of the
N x N kernel tables whose Cauchy-Schwarz bound reaches an entry already
seen; these tests hold it to the full-table maximum bit for bit and check
that it really builds only a small part of the tables.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsfloquet import SystemSpec, parse, solve_phi
from tsfloquet.cli import build_system, load_config
from tsfloquet.floquet import (
    _BOUNDS_GRID,
    _BOUNDS_ROWS,
    _SeriesEngine,
    _pruned_max,
)

from cell_reference import CellEngine
from conftest import points_scale


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
    stacked = _SeriesEngine(spec, table, divisions=_BOUNDS_GRID)
    per_cell = CellEngine(spec, table, divisions=_BOUNDS_GRID)
    assert _hex(stacked.bound_constants()) == \
        _hex(per_cell.bound_constants())


def _discrete(workloads, tmp_path, k):
    cfg = tmp_path / "discrete.cfg"
    cfg.write_text(workloads.discrete_system(random.Random(k), "d", k).text)
    return build_system(load_config(cfg))


def _overflow(k):
    """k unit steps with |1 + i mu phi| > 2: E overflows, and from some
    k on K1 and then K2 come out NaN."""
    return SystemSpec(points_scale(list(range(k + 1))), parse("0.1"),
                      parse(f"4 + 0.5*cos(2*pi*t/{k})"))


@pytest.mark.parametrize("kind, k", [("workload", 200), ("workload", 500),
                                     ("workload", 1000), ("overflow", 500),
                                     ("overflow", 1000)])
def test_long_discrete_matches_the_full_table(workloads, tmp_path, kind, k):
    spec = (_discrete(workloads, tmp_path, k) if kind == "workload"
            else _overflow(k))
    table = solve_phi(spec)
    K = _SeriesEngine(spec, table, divisions=_BOUNDS_GRID).bound_constants()
    assert _hex(K) == _hex(
        CellEngine(spec, table, divisions=_BOUNDS_GRID).bound_constants())
    # the overflowing scales reach the NaN path at both lengths
    assert np.isnan(K[0]) == (kind == "overflow")


def test_long_hybrid_builds_few_table_entries(workloads, tmp_path,
                                              monkeypatch):
    # K1 and K2 over N nodes are maxima over 2 N^2 pairs; building all of
    # them again would bring back the O(N^2) cost
    spec = _hybrid(workloads, tmp_path, 1, True, "gentle")
    engine = _SeriesEngine(spec, solve_phi(spec), divisions=_BOUNDS_GRID)
    N = sum(last + 1 for last in engine.last) + len(engine.jumps) + 1
    built = []
    outer = np.outer

    def counting(a, b):
        table = outer(a, b)
        built.append(table.size)
        return table

    monkeypatch.setattr(np, "outer", counting)
    engine.bound_constants()
    assert N == 1901
    assert 0 < sum(built) < 0.05 * 2 * N * N


# -- the pruning helper against the full maximum -------------------------------

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


def _same(table, rows, cols, rn, cn):
    with np.errstate(all="ignore"):
        pruned = _pruned_max(table, rows, cols, rn, cn)
        full = _full_max(table, rows, cols)
    assert pruned.hex() == full.hex()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_K2_table_max_is_the_full_max(data):
    u = data.draw(_vectors(data.draw(_LENGTHS), complex_=True))
    M = data.draw(_vectors(data.draw(_LENGTHS), complex_=True))
    with np.errstate(all="ignore"):
        rn, cn = np.abs(u), np.abs(M)
    _same(lambda u, M: np.outer(u, M).real, (u,), (M,), rn, cn)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_K1_table_max_is_the_full_max(data):
    t, s = data.draw(_LENGTHS), data.draw(_LENGTHS)
    a, b = data.draw(_vectors(t)), data.draw(_vectors(t))
    Q, P = data.draw(_vectors(s)), data.draw(_vectors(s))
    with np.errstate(all="ignore"):
        rn, cn = np.hypot(a, b), np.hypot(Q, P)
    _same(lambda a, b, Q, P: np.outer(a, Q) - np.outer(b, P),
          (a, b), (Q, P), rn, cn)


def test_subnormal_entries_prune_nothing():
    # a b is 1.5 subnormal ulps: each entry rounds up to 4 ulps while its
    # Cauchy-Schwarz bound, 2 a b, rounds to 3, so below the smallest
    # normal float a bound can fall under lo and still hide the maximum
    a, b = 1.5 * 2.0 ** -537, 2.0 ** -537
    x, y = np.full(_BOUNDS_ROWS + 1, a), np.full(3, b)
    u, M = x * (1 + 1j), y * (1 - 1j)
    K2 = _pruned_max(lambda u, M: np.outer(u, M).real,
                     (u,), (M,), np.abs(u), np.abs(M))
    K1 = _pruned_max(lambda a, b, Q, P: np.outer(a, Q) - np.outer(b, P),
                     (x, x), (y, -y), np.hypot(x, x), np.hypot(y, y))
    assert K1 == K2 == 4 * 2.0 ** -1074
