"""Bit-identity pins for the fast forms that the numerics rely on.

Each form below replaced a plainer one only because the two agree bit for bit
with the numpy and OpenBLAS in use, which keeps every output byte-identical.
A numpy or BLAS whose rounding differs fails here, loudly, instead of moving
the outputs silently.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from pwamalgam import (
    collocation_matrix,
    frequency_grid,
    get_family,
    get_signal,
    perturbed_nodes,
    reconstruct,
    sample_band_signal,
    signal_spectrum,
    spatial_grid,
    uniform_nodes,
)
from pwamalgam.kernels import _EXP_ZERO, _gaussian_spatial
from pwamalgam.metrics import window_quadrature
from pwamalgam.spectral import TWO_PI, cis

GRID = frequency_grid(256)
WINDOW, _ = window_quadrature(16.0, 6)  # the 928-point window of the sweep


@pytest.mark.parametrize(
    "angles",
    [
        np.outer(uniform_nodes(256).values, GRID.nodes),
        np.outer(WINDOW, GRID.nodes),
        np.outer(spatial_grid(64.0, 20).points, GRID.nodes),
        TWO_PI * np.outer(WINDOW, np.arange(-6, 7)),
    ],
    ids=["513x256", "928x256", "2561x256", "928x13"],
)
def test_cis_equals_complex_exp(angles):
    assert np.array_equal(cis(angles), np.exp(1j * angles))
    assert np.array_equal(cis(-angles), np.exp(-1j * angles))


def test_cis_keeps_the_rounding_of_each_site():
    # ``c * 1j * a`` carries ``c * a`` as its imaginary part, rounded alike.
    js = np.arange(-6, 7)
    assert np.array_equal(
        cis(-TWO_PI * np.outer(WINDOW, js)), np.exp(-1j * TWO_PI * np.outer(WINDOW, js))
    )
    for m in range(-4, 5):
        assert np.array_equal(cis(TWO_PI * m * WINDOW), np.exp(1j * TWO_PI * m * WINDOW))


@pytest.mark.parametrize("alpha", [0.5, 3.0], ids=["domain-bottom", "domain-top"])
def test_gaussian_kernel_equals_plain_exp(alpha):
    cutoff = np.sqrt(-4.0 * alpha * _EXP_ZERO)  # |x| where the exponent is _EXP_ZERO
    x = np.concatenate(
        [
            np.linspace(-2.0 * cutoff, 2.0 * cutoff, 4001),
            cutoff + np.linspace(-2.0, 2.0, 40001),
            [cutoff, np.nextafter(cutoff, 0.0), np.nextafter(cutoff, np.inf)],
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    plain = np.exp(-(x**2) / (4.0 * alpha))
    assert np.array_equal(_gaussian_spatial(alpha, x), plain, equal_nan=True)
    # The grid straddles the cutoff: exp underflows to 0 on both sides of it.
    assert np.any(plain > 0.0) and np.any((plain == 0.0) & (np.abs(x) < cutoff))
    for scalar in (0.0, 1.5, cutoff, 2.0 * cutoff):
        value = _gaussian_spatial(alpha, np.asarray(scalar))
        assert value.shape == () and value == np.exp(-(scalar**2) / (4.0 * alpha))


@pytest.mark.parametrize(
    "nodes",
    [uniform_nodes(32), uniform_nodes(128), uniform_nodes(256), perturbed_nodes(128, 0.2, 7)],
    ids=["N32", "N128", "N256", "perturbed-N128"],
)
@pytest.mark.parametrize("alpha", [0.75, 2.5])
def test_two_column_band_solve_equals_one_column_solves(nodes, alpha):
    gaussian = get_family("gaussian")
    signal = get_signal("gauss_pair")
    approx = reconstruct(signal, gaussian, alpha, nodes, GRID, 4)
    samples = sample_band_signal(signal_spectrum(signal, GRID, 4).values, GRID, nodes)
    factor = cho_factor(collocation_matrix(gaussian, alpha, nodes))
    for row, band in zip(approx.coefficients, samples):
        one_column = cho_solve(factor, band.real) + 1j * cho_solve(factor, band.imag)
        assert np.array_equal(row, one_column)
