"""Frequency grids, truncated band spectra, and the three spectral norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwamalgam import (
    AmalgamSpectrum,
    ContractError,
    amalgam_norm,
    band_norms,
    builtin_signals,
    frequency_grid,
    get_signal,
    inverse_ft_at,
    l2_norm_parseval,
    signal_spectrum,
    spatial_grid,
)
from pwamalgam import spectral
from pwamalgam.metrics import truncated_signal_values, window_quadrature
from pwamalgam.spectral import (
    ROW_BLOCK,
    TWO_PI,
    FrequencyGrid,
    band_forward,
    band_inverse,
    gauss_legendre,
    halved_panels,
)

# Oracle values, frozen from independent closed forms:
# int_{-pi}^{pi} e^{-xi^2} dxi = sqrt(pi) erf(pi), so the band L2 norm of
# e^{-xi^2/2} is sqrt(sqrt(pi) erf(pi)).
GAUSS_BAND0_NORM = 1.3313294552235015
SQRT_TWO_PI = 2.5066282746310002


@given(st.integers(min_value=1, max_value=64).map(lambda k: 2 * k))
@settings(deadline=None)
def test_grid_invariants(points):
    grid = frequency_grid(points)
    assert grid.nodes.shape == (points,)
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.nodes[0] > -np.pi and grid.nodes[-1] < np.pi
    assert np.all(grid.weights > 0)
    assert np.isclose(grid.weights.sum(), 2 * np.pi, rtol=1e-14)
    # Panel split at zero: node count balances across the sign change.
    assert np.sum(grid.nodes < 0) == np.sum(grid.nodes > 0)


@pytest.mark.parametrize("points", [2, 64, 256, 300, 512, 2048])
def test_frequency_grid_is_an_exact_mirror(points):
    # The phase builders take the xi < 0 half from the xi > 0 half.
    grid = frequency_grid(points)
    assert np.array_equal(grid.nodes, -grid.nodes[::-1])
    assert np.array_equal(grid.weights, grid.weights[::-1])


def test_grid_rejects_a_grid_that_is_no_mirror():
    grid = frequency_grid(256)
    with pytest.raises(ContractError, match="mirror"):
        FrequencyGrid(256, grid.nodes + 1e-6, grid.weights)
    weights = grid.weights.copy()
    weights[[0, 1]] += [1e-9, -1e-9]
    with pytest.raises(ContractError, match="mirror"):
        FrequencyGrid(256, grid.nodes, weights)


@pytest.mark.parametrize("points", [2, 8, 64, 256, 300])
def test_halved_panels_is_the_four_panel_rule(points):
    # The run's rule with each panel halved: the composite rule of four
    # panels with the same per-panel count, to rounding, and an exact mirror.
    fine = halved_panels(frequency_grid(points))
    nodes, weights = gauss_legendre(np.pi, 4, points // 2)
    assert fine.points_per_band == 2 * points
    np.testing.assert_allclose(fine.nodes, nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(fine.weights, weights, rtol=1e-14)
    assert np.array_equal(fine.nodes, -fine.nodes[::-1])
    assert np.array_equal(fine.weights, fine.weights[::-1])


def test_grid_rejects_odd_split():
    with pytest.raises(ContractError):
        frequency_grid(33)
    with pytest.raises(ContractError):
        frequency_grid(0)


@pytest.mark.parametrize("extent", [np.pi, 2.5])
@pytest.mark.parametrize("panels", [1, 2, 3, 7])
@pytest.mark.parametrize("per_panel", [1, 4, 9])
def test_gauss_legendre_exact_to_its_degree(extent, panels, per_panel):
    nodes, weights = gauss_legendre(extent, panels, per_panel)
    assert nodes.shape == weights.shape == (panels * per_panel,)
    assert np.all(np.diff(nodes) > 0) and -extent < nodes[0] and nodes[-1] < extent
    # Shifted monomials (x + c)^k, so that odd degrees are not zero by symmetry;
    # closed form int_{-e}^{e} (x + c)^k dx = ((e + c)^{k+1} - (c - e)^{k+1}) / (k + 1).
    c = 0.3 * extent
    for k in range(2 * per_panel):
        exact = ((extent + c) ** (k + 1) - (c - extent) ** (k + 1)) / (k + 1)
        assert np.sum(weights * (nodes + c) ** k) == pytest.approx(exact, rel=1e-13)


def test_band_norm_gaussian_oracle():
    grid = frequency_grid(256)
    values = (np.exp(-grid.nodes**2 / 2.0) + 0j)[None, :]
    norms = band_norms(AmalgamSpectrum(values=values, tail_estimate=0.0), grid)
    assert norms.shape == (1,)
    assert norms[0] == pytest.approx(GAUSS_BAND0_NORM, rel=1e-12)


def test_band_norm_constant_band():
    grid = frequency_grid(64)
    spectrum = AmalgamSpectrum(values=np.ones((7, 64), dtype=complex), tail_estimate=0.0)
    assert band_norms(spectrum, grid)[6] == pytest.approx(SQRT_TWO_PI, rel=1e-13)
    with pytest.raises(ContractError):
        band_norms(spectrum, frequency_grid(32))


@pytest.mark.parametrize("signal", builtin_signals(), ids=lambda s: s.signal_id)
@pytest.mark.parametrize("points", [64, 256])
def test_signal_spectrum_rows_are_band_slices(signal, points):
    # Row m + M is band m: fhat on the grid shifted by 2 pi m, bit for bit,
    # and its norm is the one-band reduction of that row.
    grid = frequency_grid(points)
    for m_max in (0, 1, 4, 8):
        spectrum = signal_spectrum(signal, grid, m_max)
        assert spectrum.values.shape == (2 * m_max + 1, points)
        assert spectrum.m_max == m_max
        norms = band_norms(spectrum, grid)
        for m in range(-m_max, m_max + 1):
            row = spectrum.values[m + m_max]
            assert np.array_equal(row, signal.fhat(grid.nodes + TWO_PI * m))
            assert norms[m + m_max] == np.sqrt(np.sum(grid.weights * np.abs(row) ** 2))


def test_amalgam_spectrum_validates_band_cover():
    # Rows must cover -M..M: a 2-D array with an odd row count.
    for values in (np.zeros(32, dtype=complex), np.zeros((2, 32), dtype=complex)):
        with pytest.raises(ContractError):
            AmalgamSpectrum(values=values, tail_estimate=0.0)
    with pytest.raises(ContractError):
        AmalgamSpectrum(values=np.zeros((3, 32), dtype=complex), tail_estimate=-1.0)


def test_band_values_must_be_finite():
    for bad in (np.nan, np.inf):
        values = np.zeros((3, 32), dtype=complex)
        values[1, 5] = bad
        with pytest.raises(ContractError):
            AmalgamSpectrum(values=values, tail_estimate=0.0)


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(deadline=None)
def test_parseval_below_amalgam(scales, tail):
    # l1-l2 inequality on band norms extends to the tail accounting.
    grid = frequency_grid(32)
    values = np.array(scales, dtype=complex)[:, None] * np.ones(32)
    spectrum = AmalgamSpectrum(values=values, tail_estimate=tail)
    assert l2_norm_parseval(spectrum, grid) <= amalgam_norm(spectrum, grid) + 1e-12


def test_amalgam_norm_includes_tail():
    grid = frequency_grid(32)
    spectrum = signal_spectrum(get_signal("zero"), grid, 1)
    assert amalgam_norm(spectrum, grid) == 0.0
    with_tail = AmalgamSpectrum(values=spectrum.values, tail_estimate=0.25)
    assert amalgam_norm(with_tail, grid) == pytest.approx(0.25)
    assert l2_norm_parseval(with_tail, grid) == pytest.approx(0.25)


def test_inverse_ft_matches_closed_forms():
    grid = frequency_grid(256)
    xs = np.array([-1.5, 0.0, 0.4, 2.0])
    for signal_id in ("gauss_pair", "tri_band"):
        signal = get_signal(signal_id)
        values = truncated_signal_values(signal, grid, 8, xs)
        # Mass beyond |m| = 8 is negligible for both signals.
        assert np.max(np.abs(signal.f(xs) - values)) < 1e-10


def test_inverse_ft_scalar_matches_vector():
    grid = frequency_grid(64)
    spectrum = signal_spectrum(get_signal("gauss_pair"), grid, 2)
    scalar = inverse_ft_at(spectrum, grid, 0.7)
    vector = inverse_ft_at(spectrum, grid, np.array([0.7]))
    assert isinstance(scalar, complex)
    assert scalar == vector[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_ft_refuses_non_finite_points(monkeypatch, bad):
    grid = frequency_grid(64)
    spectrum = signal_spectrum(get_signal("gauss_pair"), grid, 2)

    def unreachable(*args):
        raise AssertionError("built a phase block for a non-finite point")

    monkeypatch.setattr(spectral, "_mirrored_columns", unreachable)
    for x in (bad, np.array([0.0, bad])):
        with pytest.raises(ContractError, match="NaN"):
            inverse_ft_at(spectrum, grid, x)
        with pytest.raises(ContractError, match="NaN"):
            truncated_signal_values(get_signal("gauss_pair"), grid, 2, x)


@pytest.mark.parametrize("points", [32, 256, 300])
def test_band_forward_is_the_adjoint_of_band_inverse(points):
    # <band_inverse(v), s> over the points equals <v, band_forward(s)> under
    # the grid weights: both are (2 pi)^{-1/2} sum_{k,q} w_k v_k conj(s_q)
    # e^{i xi_k x_q}. This pins what the operator computes, not its blocking.
    grid = frequency_grid(points)
    x, _ = window_quadrature(4.0, 0)
    rng = np.random.default_rng(points)
    v = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    s = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
    [forward] = band_forward(s[None], x, grid, 0)
    assert forward.shape == (points, 1)
    lhs = np.vdot(s, band_inverse(v[None], grid, x)[0])
    rhs = np.vdot(forward[:, 0], grid.weights * v)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    with pytest.raises(ContractError):
        band_forward(s[None, 1:], x, grid, 0)
    # Rows come stacked, each with one value per point, in two dimensions:
    # a lone row is a one-row stack.
    for bad in (s, s[1:], s[None, None], np.asarray(s[0])):
        with pytest.raises(ContractError):
            band_forward(bad, x, grid, 0)


def test_band_inverse_skips_zero_bands():
    grid = frequency_grid(256)
    xs = np.linspace(-8.0, 8.0, 161)
    phase = np.exp(1j * np.outer(xs, grid.nodes))
    values = signal_spectrum(get_signal("two_band"), grid, 4).values
    rows = band_inverse(values, grid, xs)
    nonzero = [i for i, band in enumerate(values) if np.any(band)]
    assert len(nonzero) == 2
    for i, band in enumerate(values):
        if i in nonzero:
            expected = TWO_PI**-0.5 * (phase @ (grid.weights * band))
            assert np.array_equal(rows[i], expected)
        else:
            assert not np.any(rows[i])
    zero = band_inverse(signal_spectrum(get_signal("zero"), grid, 4).values, grid, xs)
    assert zero.shape == (9, xs.size) and not np.any(zero)


def test_spatial_grid_shape():
    grid = spatial_grid(4.0, density=10)
    assert grid.points.size == 81
    assert grid.points[0] == -4.0 and grid.points[-1] == 4.0
    # 2 * extent * density below 1/2 still keeps both endpoints.
    assert np.array_equal(spatial_grid(0.25, density=1).points, [-0.25, 0.25])
    with pytest.raises(ContractError):
        spatial_grid(0.0, 20)
    with pytest.raises(ContractError):
        spatial_grid(1.0, density=0)


def test_band_inverse_peak_memory_is_its_output_and_a_few_phase_blocks():
    # The reconstruct study samples its 2561-point spatial grid. The phase
    # matrix is built one row block at a time, so the whole 2561 x 256 matrix
    # (10 MiB, over five times the bound) never exists.
    grid = frequency_grid(256)
    values = signal_spectrum(get_signal("gauss_pair"), grid, 4).values
    x = spatial_grid(64.0, 20).points
    out_bytes = len(values) * len(x) * np.dtype(complex).itemsize
    block_bytes = ROW_BLOCK * grid.points_per_band * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        band_inverse(values, grid, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + 3 * block_bytes
