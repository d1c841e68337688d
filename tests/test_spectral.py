"""Frequency grids, band spectra, and the three spectral norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwamalgam import (
    AmalgamSpectrum,
    BandSpectrum,
    ContractError,
    amalgam_norm,
    band_l2_norm,
    frequency_grid,
    get_signal,
    inverse_ft_at,
    l2_norm_parseval,
    signal_spectrum,
    spatial_grid,
)
from pwamalgam.spectral import gauss_legendre

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
    band = BandSpectrum(band_index=0, values=np.exp(-grid.nodes**2 / 2.0) + 0j)
    assert band_l2_norm(band, grid) == pytest.approx(GAUSS_BAND0_NORM, rel=1e-12)


def test_band_norm_constant_band():
    grid = frequency_grid(64)
    band = BandSpectrum(band_index=3, values=np.ones(64, dtype=complex))
    assert band_l2_norm(band, grid) == pytest.approx(SQRT_TWO_PI, rel=1e-13)


def test_amalgam_spectrum_validates_band_cover():
    grid = frequency_grid(32)
    bands = tuple(
        BandSpectrum(band_index=m, values=np.zeros(32, dtype=complex)) for m in (0, 1)
    )
    with pytest.raises(ContractError):
        AmalgamSpectrum(bands=bands, truncation_bound=1, tail_estimate=0.0)
    with pytest.raises(ContractError):
        AmalgamSpectrum(bands=bands[:1], truncation_bound=0, tail_estimate=-1.0)


def test_band_values_must_be_finite():
    with pytest.raises(ContractError):
        BandSpectrum(band_index=0, values=np.array([1.0, np.inf], dtype=complex))


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
    bands = tuple(
        BandSpectrum(band_index=m - 1, values=scales[m] * np.ones(32, dtype=complex))
        for m in range(3)
    )
    spectrum = AmalgamSpectrum(bands=bands, truncation_bound=1, tail_estimate=tail)
    assert l2_norm_parseval(spectrum, grid) <= amalgam_norm(spectrum, grid) + 1e-12


def test_amalgam_norm_includes_tail():
    grid = frequency_grid(32)
    spectrum = signal_spectrum(get_signal("zero"), grid, 1)
    assert amalgam_norm(spectrum, grid) == 0.0
    with_tail = AmalgamSpectrum(
        bands=spectrum.bands, truncation_bound=1, tail_estimate=0.25
    )
    assert amalgam_norm(with_tail, grid) == pytest.approx(0.25)
    assert l2_norm_parseval(with_tail, grid) == pytest.approx(0.25)


def test_inverse_ft_matches_closed_forms():
    grid = frequency_grid(256)
    xs = np.array([-1.5, 0.0, 0.4, 2.0])
    for signal_id in ("gauss_pair", "tri_band"):
        signal = get_signal(signal_id)
        spectrum = signal_spectrum(signal, grid, 8)
        values = inverse_ft_at(spectrum, grid, xs)
        expected = signal.f(xs)
        # Mass beyond |m| = 8 is negligible for both signals.
        assert np.max(np.abs(values - expected)) < 1e-10


def test_inverse_ft_scalar_matches_vector():
    grid = frequency_grid(64)
    spectrum = signal_spectrum(get_signal("gauss_pair"), grid, 2)
    scalar = inverse_ft_at(spectrum, grid, 0.7)
    vector = inverse_ft_at(spectrum, grid, np.array([0.7]))
    assert isinstance(scalar, complex)
    assert scalar == vector[0]


def test_spatial_grid_shape():
    grid = spatial_grid(4.0, density=10)
    assert grid.points.size == 81
    assert grid.points[0] == -4.0 and grid.points[-1] == 4.0
    with pytest.raises(ContractError):
        spatial_grid(0.0)
    with pytest.raises(ContractError):
        spatial_grid(1.0, density=0)
