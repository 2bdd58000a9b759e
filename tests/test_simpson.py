"""The grid-owned cumulative Simpson kernel against SciPy's, bit for bit.

SciPy's ``cumulative_simpson(y, x=x, initial=0.0)`` is the reference: the
kernel must give its values exactly, signs of zero included, so that the
series terms stay those of the per-cell reference loop in
``cell_reference.py``, which calls SciPy itself.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from tsfloquet.floquet import (
    _SeriesEngine,
    cumulative_simpson,
    simpson_weights,
    solve_phi,
)

from conftest import random_hybrid_system


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = got.view(float), want.view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_scipy(y, x):
    assert_bitwise_equal(cumulative_simpson(y, simpson_weights(x)),
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
    # two cells of unequal node counts: the shorter row of the stack is
    # padded past its last node
    spec = random_hybrid_system(seed)
    engine = _SeriesEngine(spec, solve_phi(spec))
    assert engine.rows == 2 and engine.last[0] != engine.last[1]
    W = engine.h / engine.D
    for y in (engine.phi, engine.E, W * engine.phi * engine.E.imag,
              W * engine.phi * engine.E.real):
        assert_bitwise_equal(
            cumulative_simpson(y, engine.weights),
            scipy_cumulative_simpson(y, x=engine.x, initial=0.0))


def test_kernel_on_the_phase_form_grid(example_continuous):
    # the phase form integrates sqrt(q) and h e^{2i Phi} on the one row of
    # the series engine
    engine = _SeriesEngine(example_continuous, solve_phi(example_continuous))
    assert engine.rows == 1
    x, sqrtq, h = engine.x[0], engine.phi[0], engine.h[0]
    phase = scipy_cumulative_simpson(sqrtq, x=x, initial=0.0)
    assert_matches_scipy(sqrtq, x)
    assert_matches_scipy(h * np.exp(2j * phase), x)


@pytest.mark.parametrize("nodes", [0, 1, 2, 4, 4096])
def test_even_or_short_grids_are_refused(nodes):
    with pytest.raises(ValueError):
        simpson_weights(np.linspace(0.0, 1.0, nodes))


def test_non_increasing_grid_is_refused():
    with pytest.raises(ValueError):
        simpson_weights(np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
