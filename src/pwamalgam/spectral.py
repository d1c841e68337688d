"""Frequency grids, truncated band spectra, and the three spectral norms.

The Fourier convention throughout the library is

.. math:: \\hat{g}(\\xi) = (2\\pi)^{-1/2} \\int g(x) e^{-ix\\xi} dx,

with inversion using the conjugate kernel under the same normalization.
A spectrum truncated to ``|m| <= M`` is one ``(2M+1, K)`` array on the
``K``-point grid, laid out like the coefficients of an `Approximant`: row
``m + M`` holds samples of the baseband function
``g_m(xi) = fhat(xi + 2*pi*m)`` for ``xi`` in ``[-pi, pi]``, so every
band-level computation happens in the same coordinates. Note that the slicing
definition reads the sliced function as the Fourier transform ``fhat``; the
band values are always frequency-side samples.

Norms:

- band L2 norms: quadrature of ``|g_m|^2`` over the base band, one per row,
- amalgam norm: sum of band L2 norms plus an analytic tail estimate,
- Parseval L2 norm: root of the sum of squared band norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FrequencyGrid:
    """Composite Gauss-Legendre quadrature rule on the base band ``[-pi, pi]``.

    Parameters
    ----------
    points_per_band : int
        Total number of quadrature nodes ``K``.
    nodes : np.ndarray
        Strictly increasing abscissae in ``(-pi, pi)``.
    weights : np.ndarray
        Matching positive weights, summing to ``2*pi``.
    """

    points_per_band: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.nodes.shape != (self.points_per_band,) or self.weights.shape != (
            self.points_per_band,
        ):
            raise ContractError("grid arrays must have length points_per_band")
        if not np.all(np.diff(self.nodes) > 0):
            raise ContractError("grid nodes must be strictly increasing")
        if np.min(self.nodes) < -np.pi or np.max(self.nodes) > np.pi:
            raise ContractError("grid nodes must lie in [-pi, pi]")
        if np.min(self.weights) <= 0:
            raise ContractError("grid weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - TWO_PI) > 1e-12 * TWO_PI:
            raise ContractError("grid weights must sum to 2*pi")


def gauss_legendre(
    extent: float, panels: int, per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule ``(nodes, weights)`` on ``[-extent, extent]``.

    Each of `panels` equal panels carries the `per_panel`-point rule, which is
    exact for polynomials up to degree ``2 * per_panel - 1``.
    """
    xs, ws = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(-extent, extent, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * xs + mid).ravel(), (half * ws).ravel()


def frequency_grid(points_per_band: int = 256, panels: int = 2) -> FrequencyGrid:
    """Build the composite Gauss-Legendre rule on ``[-pi, pi]``.

    Parameters
    ----------
    points_per_band : int
        Total node count ``K``; must be positive and divisible by `panels`.
    panels : int
        Number of equal panels. The default 2 places a panel boundary at 0,
        which keeps spectral accuracy for spectra with a kink there.

    Returns
    -------
    FrequencyGrid
    """
    if points_per_band <= 0:
        raise ContractError("points_per_band must be positive")
    if panels <= 0 or points_per_band % panels != 0:
        raise ContractError("points_per_band must be divisible by panels")
    nodes, weights = gauss_legendre(np.pi, panels, points_per_band // panels)
    return FrequencyGrid(points_per_band=points_per_band, nodes=nodes, weights=weights)


@dataclass(frozen=True)
class AmalgamSpectrum:
    """Spectrum truncated to ``|m| <= M``: row ``m + M`` of `values` is band ``m``.

    `values[m + M, k]` is ``fhat(grid.nodes[k] + 2*pi*m)``, already shifted
    to baseband coordinates. `tail_estimate` is an analytic upper bound on
    the summed band L2 norms beyond the truncation; it must come from the
    signal's known decay and is never silently zero for signals with
    unbounded spectral support.
    """

    values: np.ndarray = field(repr=False)
    tail_estimate: float

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] % 2 == 0:
            raise ContractError("values need one row per band -M..M")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("band values must be finite")
        if self.tail_estimate < 0:
            raise ContractError("tail_estimate must be nonnegative")

    @property
    def m_max(self) -> int:
        return (self.values.shape[0] - 1) // 2


@dataclass(frozen=True)
class SpatialGrid:
    """Evaluation abscissae on the interior window ``[-extent, extent]``."""

    extent: float
    points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.points.size == 0:
            raise ContractError("spatial grid must be nonempty")
        if not np.all(np.diff(self.points) > 0):
            raise ContractError("spatial points must be strictly increasing")
        if np.min(self.points) < -self.extent or np.max(self.points) > self.extent:
            raise ContractError("spatial points must lie in [-extent, extent]")


def spatial_grid(extent: float, density: int = 20) -> SpatialGrid:
    """Uniform interior grid with `density` points per unit length.

    Returns
    -------
    SpatialGrid
        ``2*extent*density + 1`` points including both endpoints.
    """
    if extent <= 0 or density <= 0:
        raise ContractError("extent and density must be positive")
    count = int(round(2 * extent * density)) + 1
    return SpatialGrid(extent=float(extent), points=np.linspace(-extent, extent, count))


def band_norms(spectrum: AmalgamSpectrum, grid: FrequencyGrid) -> np.ndarray:
    """L2 norm of each band, ``sqrt(sum_k w_k |values_{m,k}|^2)``, in row order."""
    if spectrum.values.shape[1] != grid.points_per_band:
        raise ContractError("band size does not match grid size")
    return np.sqrt(np.sum(grid.weights * np.abs(spectrum.values) ** 2, axis=1))


def amalgam_norm(spectrum: AmalgamSpectrum, grid: FrequencyGrid) -> float:
    """Amalgam norm: band L2 norms summed in ascending band order plus tail."""
    total = 0.0
    for norm in band_norms(spectrum, grid):  # ascending m, fixed reduction order
        total += float(norm)
    return total + spectrum.tail_estimate


def l2_norm_parseval(spectrum: AmalgamSpectrum, grid: FrequencyGrid) -> float:
    """Global L2 norm via Parseval: ``sqrt(sum_m ||g_m||^2 + tail^2)``."""
    squares = np.sum(band_norms(spectrum, grid) ** 2)
    return float(np.sqrt(squares + spectrum.tail_estimate**2))


def band_inverse(values: np.ndarray, grid: FrequencyGrid, x: np.ndarray) -> np.ndarray:
    """Baseband pieces ``g_m(x) = (2*pi)^{-1/2} sum_k w_k values_{m,k} e^{i x xi_k}``.

    `values` holds one band per row, as in `AmalgamSpectrum`; the result holds
    the same rows over the points `x`. All bands share one phase matrix, but
    each keeps its own matrix-vector product, so a row is bit-identical to
    inverting that band alone. An all-zero band gets a row of exact zeros and
    no product.
    """
    if values.ndim != 2 or len(values) == 0 or values.shape[1] != grid.points_per_band:
        raise ContractError("values need at least one band row of grid size")
    phase = np.exp(1j * np.outer(x, grid.nodes))
    rows = np.zeros((len(values), len(phase)), dtype=complex)
    for i, band in enumerate(values):
        if np.any(band):
            rows[i] = TWO_PI**-0.5 * (phase @ (grid.weights * band))
    return rows


def inverse_ft_at(
    spectrum: AmalgamSpectrum, grid: FrequencyGrid, x: float | np.ndarray
) -> complex | np.ndarray:
    """Inverse transform of a truncated spectrum at point(s) ``x``.

    Computes ``sum_m e^{2 pi i m x} g_m(x)`` from the `band_inverse` rows,
    with the fixed summation order ascending m then ascending k.

    Returns
    -------
    complex or np.ndarray
        Scalar for scalar `x`, array matching `x` otherwise.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.shape, dtype=complex)
    for m, g_m in enumerate(band_inverse(spectrum.values, grid, xs), -spectrum.m_max):
        out += np.exp(1j * TWO_PI * m * xs) * g_m
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out
