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

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi
# Rows per block of every dense operator (collocation matrix on perturbed
# nodes, phase, kernel, and `band_forward`, whose block is ROW_BLOCK // 2 nodes
# xi > 0 and their mirrors): no other operator exists in full, and each block
# serves all bands while in cache.
ROW_BLOCK = 64


def row_blocks(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``ROW_BLOCK`` rows covering ``range(count)``.
    A lone last row borrows one from the block before: numpy multiplies a
    one-row block as a dot product, which rounds unlike the whole matrix."""
    starts = list(range(0, count, ROW_BLOCK))
    if count > 1 and count % ROW_BLOCK == 1:
        starts[-1] -= 1
    return (slice(start, stop) for start, stop in zip(starts, [*starts[1:], count]))


def cis(angles: np.ndarray) -> np.ndarray:
    """``e^{i angles} = cos(angles) + i sin(angles)``, filled part by part.

    Equal bit for bit to ``np.exp(1j * angles)`` (numpy's complex exp of a
    purely imaginary argument is ``cos + i sin``), at about half its cost.
    """
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


@dataclass(frozen=True)
class FrequencyGrid:
    """Composite Gauss-Legendre quadrature rule on the base band ``[-pi, pi]``.

    Parameters
    ----------
    nodes : np.ndarray
        Strictly increasing abscissae in ``(-pi, pi)``, exact mirrors:
        ``nodes == -nodes[::-1]``.
    weights : np.ndarray
        Matching positive weights, summing to ``2*pi``, with
        ``weights == weights[::-1]``.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            raise ContractError("grid nodes and weights must be 1-D and of one length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ContractError("grid nodes must be strictly increasing")
        # `band_inverse` and `band_forward` build the phases of the negative
        # half from those of the positive.
        if not (
            np.array_equal(self.nodes, -self.nodes[::-1])
            and np.array_equal(self.weights, self.weights[::-1])
        ):
            raise ContractError("grid nodes and weights must mirror exactly about 0")
        if np.min(self.nodes) < -np.pi or np.max(self.nodes) > np.pi:
            raise ContractError("grid nodes must lie in [-pi, pi]")
        if np.min(self.weights) <= 0:
            raise ContractError("grid weights must be strictly positive")
        total = float(np.sum(self.weights))
        if abs(total - TWO_PI) > 1e-12 * TWO_PI:
            raise ContractError("grid weights must sum to 2*pi")

    @property
    def points_per_band(self) -> int:
        """The number of quadrature nodes ``K``."""
        return len(self.nodes)


@cache
def _legendre_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's `points`-point Gauss-Legendre rule on ``[-1, 1]``, computed once
    per process and read-only, since every caller shares it."""
    rule = np.polynomial.legendre.leggauss(points)
    for array in rule:
        array.flags.writeable = False
    return rule


def gauss_legendre(
    extent: float, panels: int, per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule ``(nodes, weights)`` on ``[-extent, extent]``.

    Each of `panels` equal panels carries the `per_panel`-point rule, which is
    exact for polynomials up to degree ``2 * per_panel - 1``.
    """
    xs, ws = _legendre_rule(per_panel)
    edges = np.linspace(-extent, extent, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * xs + mid).ravel(), (half * ws).ravel()


def frequency_grid(points_per_band: int) -> FrequencyGrid:
    """Build the two-panel composite Gauss-Legendre rule on ``[-pi, pi]``.

    The panel boundary at 0 keeps spectral accuracy for spectra with a kink
    there.

    Parameters
    ----------
    points_per_band : int
        Total node count ``K``; must be positive and even.

    Returns
    -------
    FrequencyGrid
    """
    if points_per_band <= 0 or points_per_band % 2 != 0:
        raise ContractError("points_per_band must be positive and even")
    nodes, weights = gauss_legendre(np.pi, 2, points_per_band // 2)
    return FrequencyGrid(nodes=nodes, weights=weights)


def halved_panels(grid: FrequencyGrid) -> FrequencyGrid:
    """A `frequency_grid` rule with each of its two panels halved: the same
    ``K/2``-point rule on each of the four, ``2K`` nodes."""
    nodes, weights = gauss_legendre(np.pi, 4, grid.points_per_band // 2)
    return FrequencyGrid(nodes=nodes, weights=weights)


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


def spatial_grid(extent: float, density: int) -> SpatialGrid:
    """Uniform interior grid with `density` points per unit length.

    With ``m = count - 1``, point ``k`` is ``((2k - m) * extent) / m``. The
    grid is an exact mirror, ``points == -points[::-1]``, which the phase
    builders use, and ends at ``-extent`` and ``extent``. Where the product
    is exact (an extent of a few binary digits, such as 64 or 16.5, times an
    integer), each point is its exact value rounded once, so where
    ``m == 2 * extent * density`` point ``k`` is the correctly rounded
    ``k / density - extent``: ``-47.85``, where ``np.linspace`` gives
    ``-47.849999999999994``.

    Returns
    -------
    SpatialGrid
        ``2*extent*density + 1`` points (at least 2) including both endpoints.
    """
    if not (0 < extent < np.inf and 0 < density < np.inf):
        raise ContractError(
            f"extent and density must be positive and finite, got {extent!r} and {density!r}"
        )
    count = max(2, int(round(2 * extent * density)) + 1)
    m = count - 1
    points = ((2 * np.arange(count) - m) * float(extent)) / m
    return SpatialGrid(extent=float(extent), points=points)


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


def _mirrored_rows(x: np.ndarray) -> int:
    """How many leading points of `x` are mirrors of the others: ``len(x) // 2``
    if ``x == -x[::-1]`` exactly and holds at least 3 points, else 0.

    Point ``q`` of such an array is ``-x[n - 1 - q]``, so its phase row
    ``e^{i x xi}`` is the conjugate of that row, bit for bit, as in
    `_mirrored_columns`. Two points are left alone: their mirrored half would
    be a one-row block, which numpy multiplies as a dot product.
    """
    return len(x) // 2 if len(x) >= 3 and np.array_equal(x, -x[::-1]) else 0


def _mirrored_columns(
    x: np.ndarray, xi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``cis(outer(x, [-xi[::-1], xi]))`` for nodes ``xi > 0`` from ``cos`` and ``sin``
    on `xi` only: ``x * (-xi)`` is ``-(x * xi)``, and numpy's ``cos`` is even and
    ``sin`` odd bit for bit, so the mirrored half is the other's conjugate, reversed.
    The phase is written into `out` if given.

    The phase is filled at most ``ROW_BLOCK`` rows at a time through two
    contiguous float temporaries of that many rows, so its extra memory does
    not grow with the number of points. Every ufunc acts on whole contiguous
    arrays: a broadcast operand (as in ``np.outer``) or a strided ``.real`` or
    ``.imag`` output makes numpy allocate hidden buffers of up to 8192
    elements, and copying one half of the phase into the other copies its
    source first, since both are views of one array.
    """
    half = len(xi)
    phase = np.empty((len(x), 2 * half), dtype=complex) if out is None else out
    angles = np.empty((min(len(x), ROW_BLOCK), half))
    parts = np.empty_like(angles)  # the points, then cos, then sin
    for start in range(0, len(x), ROW_BLOCK):
        points = x[start : start + ROW_BLOCK]
        rows = slice(start, start + len(points))
        a, p = angles[: len(points)], parts[: len(points)]
        a[...], p[...] = xi, points[:, None]  # assignment broadcasts without buffers
        np.multiply(p, a, out=a)
        np.cos(a, out=p)
        phase[rows, half:].real = p
        phase[rows, :half].real = p[:, ::-1]
        np.sin(a, out=p)
        phase[rows, half:].imag = p
        phase[rows, :half].imag = np.negative(p, out=p)[:, ::-1]
    return phase


def band_inverse(values: np.ndarray, grid: FrequencyGrid, x: np.ndarray) -> np.ndarray:
    """Baseband pieces ``g_m(x) = (2*pi)^{-1/2} sum_k w_k values_{m,k} e^{i x xi_k}``.

    `values` holds one band per row, as in `AmalgamSpectrum`; the result holds
    the same rows over the points `x`. All bands share each `row_blocks` block
    of the phase matrix, but each keeps its own matrix-vector product, so a row
    is bit-identical to inverting that band alone over all points at once. An
    all-zero band gets a row of exact zeros and no product.

    Each block evaluates ``cos`` and ``sin`` on the ``xi > 0`` half of the grid
    only (`_mirrored_columns`): the grid is an exact mirror. If the points are
    one too (`_mirrored_rows`), the blocks cover the second half of them only:
    each is applied to every band, conjugated in place and applied again for
    the mirrored points, whose rows are written reversed. An odd set's middle
    point is its own mirror and is written once.
    """
    if values.ndim != 2 or len(values) == 0 or values.shape[1] != grid.points_per_band:
        raise ContractError("values need at least one band row of grid size")
    weighted = [(i, grid.weights * band) for i, band in enumerate(values) if np.any(band)]
    positive = grid.nodes[grid.points_per_band // 2 :]
    mirrored = _mirrored_rows(x)
    out = np.zeros((len(values), len(x)), dtype=complex)
    # Column q of `own` holds the point x[mirrored + q], and the same column
    # of `flipped` holds its mirror.
    own, flipped = out[:, mirrored:], out[:, ::-1][:, mirrored:]
    for rows in row_blocks(len(x) - mirrored):
        phase = _mirrored_columns(x[mirrored:][rows], positive)
        for i, band in weighted:
            own[i, rows] = TWO_PI**-0.5 * (phase @ band)
        if mirrored:
            np.conjugate(phase, out=phase)
            middle = len(x) % 2 if rows.start == 0 else 0  # an odd set's 0 is its own mirror
            for i, band in weighted:
                flipped[i, rows][middle:] = (TWO_PI**-0.5 * (phase @ band))[middle:]
        del phase  # before the next one is built
    return out


def band_forward(
    weighted: np.ndarray, x: np.ndarray, grid: FrequencyGrid, j_cap: int
) -> np.ndarray:
    """``(2 pi)^{-1/2} sum_q weighted_q e^{-i (xi_k + 2 pi j) x_q}`` in row ``k``
    and column ``j + j_cap``, for the bands ``|j| <= j_cap``: the windowed
    forward transform, adjoint to `band_inverse` under the grid weights.

    `weighted` is a stack of rows, each the values at the points `x` times
    their quadrature weights, with one result per row along a leading axis.
    ``e^{-i(xi + 2 pi j) x} = e^{-i xi x} e^{-2 pi i j x}``: one phase
    matrix over the base band is applied to each row's ``2 j_cap + 1``
    modulated columns, in blocks of ``ROW_BLOCK // 2`` nodes ``xi > 0`` and
    their mirrors (`_mirrored_columns` at ``-x``). If the points are an exact
    mirror (`_mirrored_rows`), as the window quadrature is, each block's rows
    for the first half of them are filled in place as the conjugates of the
    others, reversed. Every row keeps its own product with each block, so a
    row's transform is bit-identical to transforming it alone, and to the
    whole matrix's product. A row's modulated columns are formed again for
    each block, in one buffer that assignment fills without the hidden ufunc
    buffers of a broadcast product (131 kB): held for the four rows of an
    ``N = 256`` sweep, they lifted its traced peak from 2.36 to 2.50 MiB.
    """
    if weighted.ndim != 2 or weighted.shape[1:] != x.shape or x.ndim != 1 or j_cap < 0:
        raise ContractError("weighted rows need one value per point, and j_cap >= 0")
    js = np.arange(-j_cap, j_cap + 1)
    modulation = cis(-TWO_PI * np.outer(x, js))
    modulated = np.empty_like(modulation)  # a row's modulated columns
    half = grid.points_per_band // 2
    mirrored = _mirrored_rows(x)
    transforms = np.empty((len(weighted), grid.points_per_band, len(js)), dtype=complex)
    for start in range(0, half, ROW_BLOCK // 2):
        xi = grid.nodes[half + start : half + start + ROW_BLOCK // 2]
        phase = np.empty((len(x), 2 * len(xi)), dtype=complex)
        _mirrored_columns(-x[mirrored:], xi, out=phase[mirrored:])
        # A reversed operand makes a ufunc buffer; an assignment does not.
        phase[:mirrored] = phase[::-1][:mirrored]
        np.conjugate(phase[:mirrored], out=phase[:mirrored])
        for out, row in zip(transforms, weighted):
            modulated[...] = row[:, None]  # assignment broadcasts without buffers
            np.multiply(modulated, modulation, out=modulated)
            product = TWO_PI**-0.5 * (phase.T @ modulated)
            out[half - start - len(xi) : half - start] = product[: len(xi)]
            out[half + start : half + start + len(xi)] = product[len(xi) :]
        del phase  # before the next one is built
    return transforms


def inverse_ft_at(
    spectrum: AmalgamSpectrum, grid: FrequencyGrid, x: float | np.ndarray
) -> complex | np.ndarray:
    """Inverse transform of a truncated spectrum at point(s) ``x``.

    Computes ``sum_m e^{2 pi i m x} g_m(x)`` from the `band_inverse` rows,
    with the fixed summation order ascending m then ascending k. All-zero
    bands are skipped: their terms are exact zeros, which leave every sum as
    it was. The result is allocated only once `band_inverse` has returned its
    rows, so no array the length of `x` stands beside a phase block, and the
    call peaks where `band_inverse` does. A NaN or infinite point raises
    `ContractError`.

    Returns
    -------
    complex or np.ndarray
        Scalar for scalar `x`, array matching `x` otherwise.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ContractError("evaluation points must be finite, not NaN or infinite")
    rows = [i for i, band in enumerate(spectrum.values) if np.any(band)]  # ascending m
    pieces = band_inverse(spectrum.values[rows], grid, xs) if rows else ()
    out = np.zeros(xs.shape, dtype=complex)
    for i, g_m in zip(rows, pieces):
        out += cis(TWO_PI * (i - spectrum.m_max) * xs) * g_m
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out
