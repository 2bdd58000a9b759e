"""The cumulative Simpson kernel against SciPy's, bit for bit, and the
series grid's Chebyshev panel kernel.

SciPy's ``cumulative_simpson(y, x=x, initial=0.0)`` is the reference: the
kernel must give its values exactly, signs of zero included, so that the
truncation bound's phase on its uniform sample stays that of the per-cell
reference loop in ``cell_reference.py``, which calls SciPy itself.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from scipy.integrate import quad

from tsfloquet.floquet import (
    _NODES,
    _SeriesEngine,
    _panel_integrals,
    _panel_nodes,
    cumulative_simpson,
    solve_phi,
)

import cell_reference
import expr_reference
from calculus_reference import dense_intervals
from conftest import random_hybrid_system


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_scipy(y, x):
    assert_bitwise_equal(cumulative_simpson(y, x),
                         scipy_cumulative_simpson(y, x=x, initial=0.0))


_values = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def grids(draw):
    """(x, y): x strictly increasing with an odd node count >= 3, 1-D or
    one row per y row; y real or complex, 1-D or 2-D."""
    nodes = 2 * draw(st.integers(1, 40)) + 1
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (nodes,) if rows is None else (rows, nodes)
    size = int(np.prod(shape))
    dx = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=size,
                                max_size=size))).reshape(shape)
    x = draw(st.floats(-1e3, 1e3)) + np.cumsum(dx, axis=-1)
    # a 2-D stack may share one 1-D grid, as SciPy broadcasts x
    if rows is not None and draw(st.booleans()):
        x = x[0]
    y = np.array(draw(st.lists(_values, min_size=size, max_size=size)))
    if draw(st.booleans()):
        y = y + 1j * np.array(draw(st.lists(_values, min_size=size,
                                            max_size=size)))
    return x, y.reshape(shape)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_kernel_is_scipy_bit_for_bit(grid):
    x, y = grid
    assert np.all(np.diff(x, axis=-1) > 0)
    assert_matches_scipy(y, x)


@pytest.mark.parametrize("nodes", [3, 17, 513, 4097, 8193])
def test_kernel_on_uniform_rows(nodes):
    rng = np.random.default_rng(nodes)
    x = np.linspace(-0.3, 2.1, nodes)
    y = rng.normal(size=nodes)
    y[::5] = -0.0  # a zero run: SciPy's + initial turns -0.0 into 0.0
    assert_matches_scipy(y, x)
    assert_matches_scipy(y + 1j * rng.normal(size=nodes), x)
    assert_matches_scipy(np.full(nodes, -0.0 - 0.0j), x)


@pytest.mark.parametrize("seed", [0, 12])
def test_kernel_on_the_engine_stacks(seed):
    # the bound's sample of two cells of unequal node counts: the shorter
    # row of the stack is padded past its last node
    spec = random_hybrid_system(seed)
    engine = _SeriesEngine(solve_phi(spec))
    x, phi, h, E, real = engine.bound_sample()
    assert engine.rows == 2 and real[0].sum() != real[1].sum()
    W = h / (phi * E)
    for y in (phi, E, W * phi * E.imag, W * phi * E.real):
        assert_matches_scipy(y, x)


def test_kernel_on_the_bound_sample(example_continuous):
    # the bound integrates sqrt(q) on its one uniform row, and the level
    # integrands h e^{2i Phi} take the same weights
    engine = _SeriesEngine(solve_phi(example_continuous))
    x, sqrtq, h, _, real = engine.bound_sample()
    assert engine.rows == 1 and real.all()
    x, sqrtq, h = x[0], sqrtq[0], h[0]
    phase = scipy_cumulative_simpson(sqrtq, x=x, initial=0.0)
    assert_matches_scipy(sqrtq, x)
    assert_matches_scipy(h * np.exp(2j * phase), x)


@pytest.mark.parametrize("nodes", [0, 1, 2, 4, 4096])
def test_even_or_short_grids_are_refused(nodes):
    with pytest.raises(ValueError):
        cumulative_simpson(np.zeros(nodes), np.linspace(0.0, 1.0, nodes))


def test_non_increasing_grid_is_refused():
    with pytest.raises(ValueError):
        cumulative_simpson(np.zeros(5), np.array([0.0, 1.0, 1.0, 2.0, 3.0]))


# -- the panel kernel ---------------------------------------------------------

def test_kernel_on_the_phase_form_grid(example_continuous):
    # the phase form integrates sqrt(q) and h e^{2i Phi} on the one row of
    # the series engine's panels; one panel at a time gives the same
    # floats, and the phase over the period is sqrt(q)'s integral
    spec = example_continuous
    engine = _SeriesEngine(solve_phi(spec))
    assert engine.rows == 1
    sqrtq, h, half = engine.phi[0], engine.h[0], engine.half[0]
    phase = _panel_integrals(sqrtq, half)
    assert_bitwise_equal(phase, cell_reference._panel_integrals(sqrtq, half))
    y = h * np.exp(2j * phase)
    assert_bitwise_equal(_panel_integrals(y, half),
                         cell_reference._panel_integrals(y, half))
    (a, b), = dense_intervals(spec.ts)
    exact, _ = quad(lambda t: expr_reference.evaluate(spec.q, t) ** 0.5,
                    a, b, epsabs=0.0, epsrel=1e-13, limit=200)
    assert phase[-1] == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("degree", range(0, 33, 4))
def test_panel_rule_is_exact_to_degree_32(degree):
    # a polynomial of degree <= 32 is integrated exactly on every panel, so
    # the running integral is its antiderivative at every node, to rounding
    edges = np.array([-1.0, -0.2, 0.5, 1.0])
    x = _panel_nodes(edges[:-1], edges[1:]).ravel()
    half = np.diff(edges) / 2.0
    run = _panel_integrals(x[None] ** degree, half[None])[0]
    exact = (x ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
    assert np.abs(run - exact).max() <= 1e-14


def test_panel_integrals_do_not_depend_on_the_stack():
    # a stacked product may round a row differently with the stack's
    # shape; every panel here is its own product, so a row integrated
    # alone and inside any stack gives the same floats
    rng = np.random.default_rng(5)
    half = rng.uniform(0.1, 2.0, (4, 3))
    y = rng.normal(size=(2, 4, 3 * _NODES)) + 1j * rng.normal(
        size=(2, 4, 3 * _NODES))
    whole = _panel_integrals(y, half)
    for j in range(2):
        for r in range(4):
            assert_bitwise_equal(_panel_integrals(y[j, r:r + 1], half[r:r + 1]),
                                 whole[j, r:r + 1])
            assert_bitwise_equal(cell_reference._panel_integrals(
                y[j, r], half[r]), whole[j, r])
