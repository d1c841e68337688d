"""Collocation solves and assembly of the modulated approximant.

For each band ``m`` the coefficients ``a_{m,n}`` solve the symmetric positive
definite collocation system ``sum_k a_k phi_alpha(x_j - x_k) = g_m(x_j)``, so
the band interpolant ``I_alpha g_m(x) = sum_n a_{m,n} phi_alpha(x - x_n)``
matches the sampled baseband piece at every node. The approximant is the
modulated sum ``J_alpha f(x) = sum_m e^{2 pi i m x} I_alpha g_m(x)``.

An `Approximant` holds the coefficients as one complex ``(2M+1, n)`` array:
row ``m + M`` is band ``m`` and column ``k`` is node ``x_k``. The collocation
matrix depends on ``alpha`` and the nodes but not on the band, so each
``alpha`` builds it once, factorizes it once and carries one
``condition_estimate``; every band is then solved against that one factor.
One copy of the collocation matrix is live at a time: on perturbed nodes it
is filled in row blocks, and the Cholesky factor overwrites it. No other
dense operator exists in full: `evaluate_J` builds the kernel matrix
``phi_alpha(x - x_n)``, and the residual check the kernel matrix on the
nodes themselves (equal to the collocation matrix bit for bit), one complex
`spectral.row_blocks` block at a time, whose products
round as the whole matrix's do, and applies each block to every band while
it is in cache. A block spans only the node columns within
`kernels.support_radius` of its points, beyond which the gaussian kernel is
exactly 0.0: about a quarter of the columns at ``N = 256``. Dropping
exact-zero terms leaves every product's rounding as it was, since BLAS sums
each output in column order. Per-band
products and solves are kept (rather than one matrix-matrix product) because
the rounding of the blocked BLAS kernels differs from the per-vector ones,
and large coefficients magnify that difference: at ``N = 256`` and gaussian
``alpha = 2.5`` the coefficients' l1 mass is 3.1e8, and one real product
over all bands in `evaluate_J` moved the sweep's ``amalgam_error`` by
1.49e-6 relative.

Numerical policy: the matrix is factorized by Cholesky; its 2-norm condition
number is always estimated and reported, from one of two sources (see
`condition_source`). On the integer nodes ``x_n = n`` the matrix
``phi_alpha(j - k)`` is Toeplitz: it is built from one row of ``2N+1`` kernel
values, and the estimate is the symbol ratio ``sigma(0) / sigma(pi)`` of
`kernels.condition_bound`, an upper bound that needs no decomposition and
does not saturate near ``1/eps``. It does not depend on ``N``, so it
overestimates the condition number of a small matrix, and the more so the
smaller ``N``: about twice the true value at ``N = 32``, seventeen times at
``N = 16`` and without limit as ``N`` shrinks (gaussian ``alpha = 3`` reads
3.6e12 at every ``N``, while its ``3 x 3`` matrix at ``N = 1`` has condition
about 300). A small uniform run can therefore be flagged precision-limited,
with its residual tolerance unenforced, although its matrix is well
conditioned. On perturbed nodes, whose Kadec
bounds are not explicit, the estimate is ``max|lambda| / min|lambda|`` over
the eigenvalues (one ``eigvalsh`` per ``alpha``), which equals the
singular-value ratio; beyond about 1e15 it is rounding noise and only serves
to flag the row. Runs whose condition estimate exceeds ``PRECISION_CAP`` are
flagged "precision_limited" downstream rather than failed, and the residual
tolerance ``SOLVER_TOL * (1 + max|samples|)`` is not enforced there (the
attainable residual scales with the condition number, so enforcement would
turn a reporting concern into a spurious hard failure). Loss of positive
definiteness raises `ConditioningError`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz

from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import (
    InterpolatorFamily,
    condition_bound,
    phi_spatial,
    phi_spectral,
    support_radius,
)
from .nodes import NodeSet
from .signals import TestSignal, sample_band_signal, signal_spectrum
from .spectral import ROW_BLOCK, TWO_PI, FrequencyGrid, cis, row_blocks

# Condition estimate beyond which solves are flagged instead of failed.
PRECISION_CAP = 1e12
# Absolute interpolation-residual tolerance, scaled by ``1 + max|samples|``.
SOLVER_TOL = 1e-8


@dataclass(frozen=True)
class Approximant:
    """Coefficients ``a_{m,n}`` of ``J_alpha f``: row ``m + M_max`` is band ``m``.

    `condition_estimate` belongs to the one collocation matrix of this
    ``alpha``; `residuals` holds each band's max-norm interpolation residual.
    """

    alpha: float
    family: InterpolatorFamily
    nodes: NodeSet
    coefficients: np.ndarray = field(repr=False)
    condition_estimate: float
    residuals: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        shape = self.coefficients.shape
        if len(shape) != 2 or shape[0] % 2 == 0:
            raise ContractError("coefficients need one row per band -M_max..M_max")
        if shape[1] != self.nodes.count:
            raise ContractError("coefficient count must match node count")
        if not np.all(np.isfinite(self.coefficients)):
            raise ContractError("coefficients must be finite")
        if self.residuals.shape != (shape[0],):
            raise ContractError("residuals need one value per band")

    @property
    def m_max(self) -> int:
        return (self.coefficients.shape[0] - 1) // 2


def collocation_matrix(
    family: InterpolatorFamily, alpha: float, nodes: NodeSet
) -> np.ndarray:
    """The symmetric positive-definite matrix ``phi_alpha(x_j - x_k)``.

    On integer nodes it is the Toeplitz matrix of ``phi_alpha(0..2N)``:
    ``j - k`` is exact and both kernels are exactly even, so this equals the
    difference build bit for bit. On other nodes it is filled one
    `spectral.row_blocks` block at a time: each block's differences are
    written into its rows and replaced there by their kernel values, so no
    whole difference or exponent array exists beside the matrix. The kernel
    acts entry by entry, so this equals the whole build bit for bit, and it
    is exactly symmetric since ``x_j - x_k`` is ``-(x_k - x_j)``.
    """
    values = nodes.values
    if nodes.is_uniform:
        return toeplitz(phi_spatial(family, alpha, values - values[0]))
    matrix = np.empty((nodes.count, nodes.count))
    for rows in row_blocks(nodes.count):
        block = np.subtract(values[rows, None], values, out=matrix[rows])
        block[...] = phi_spatial(family, alpha, block)
    return matrix


def condition_source(nodes: NodeSet) -> str:
    """Where `solve_coefficients` takes its condition estimate from on `nodes`."""
    return "toeplitz_symbol" if nodes.is_uniform else "eigvalsh"


def solve_coefficients(
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    samples: np.ndarray,
) -> Approximant:
    """Solve the collocation system for a ``(2M+1, nodes)`` stack of band samples.

    Row ``i`` of `samples` is band ``i - M``. The matrix is built, its
    condition estimated (from the source `condition_source` names) and
    factorized once for all rows. The factor overwrites the matrix: the
    matrix is exactly symmetric, so its transpose is a Fortran-ordered array
    holding the bytes LAPACK would otherwise be given a copy of. The residual
    check therefore builds its row blocks from the kernel again, on the
    support columns of each block, equal to the matrix's rows bit for bit.

    All-zero samples short-circuit to exactly zero coefficients (the
    homogeneous system), preserving exact zeros for signals with empty bands;
    when every row is zero the matrix is not factorized. Each complex row is
    solved as two real systems against the one real factorization, so a row
    is bit-identical to a one-row solve of that band alone.

    Raises
    ------
    ContractError
        If `samples` is misshapen or holds a non-finite value.
    ConditioningError
        If the Cholesky factorization fails (matrix numerically indefinite).
    AccuracyError
        If a band's interpolation residual exceeds
        ``SOLVER_TOL * (1 + max|samples|)`` while the condition estimate is
        below `PRECISION_CAP`; the first such band in row order is named.
    """
    stacked = np.asarray(samples, dtype=complex)
    if stacked.ndim != 2 or stacked.shape[0] % 2 == 0 or stacked.shape[1] != nodes.count:
        raise ContractError("samples need one row per band -M..M and one value per node")
    if not np.all(np.isfinite(stacked)):
        raise ContractError("samples must be finite")
    family.check_alpha(alpha)
    matrix = collocation_matrix(family, alpha, nodes)
    if condition_source(nodes) == "toeplitz_symbol":
        condition = condition_bound(family, alpha)
    else:
        # The matrix is exactly symmetric, so its singular values are the
        # magnitudes of its eigenvalues: max|lambda| / min|lambda| is the 2-norm
        # condition number at about half the cost of an SVD. A zero eigenvalue
        # gives inf, silently.
        magnitudes = np.abs(np.linalg.eigvalsh(matrix))
        with np.errstate(divide="ignore"):
            condition = float(magnitudes.max() / magnitudes.min())
    nonzero = [i for i, row in enumerate(stacked) if np.any(row)]
    coeffs = np.zeros(stacked.shape, dtype=complex)
    residuals = np.zeros(len(stacked))
    if nonzero:
        try:
            # In place: the symmetric matrix's transpose is Fortran-ordered,
            # so LAPACK writes the factor over it instead of over a copy.
            factor = cho_factor(matrix.T, overwrite_a=True)
        except LinAlgError as exc:
            raise ConditioningError(
                f"collocation matrix lost positive definiteness at alpha={alpha} "
                f"(condition estimate {condition:.3e})",
                condition_estimate=condition,
            ) from exc
        for i in nonzero:
            # One two-column solve per band, real and imaginary part. OpenBLAS
            # solves each column alike below 12 columns, so two columns round
            # as two one-column solves do; all bands in one call would cross
            # 12 and reblock, changing the rounding of every band. The matrix
            # and samples were checked finite above.
            parts = cho_solve(
                factor,
                np.column_stack([stacked[i].real, stacked[i].imag]),
                check_finite=False,
            )
            coeffs[i] = parts[:, 0] + 1j * parts[:, 1]
        del matrix, factor  # freed before the residual blocks are built
        radius = support_radius(family, alpha)
        for rows, block, cols in _kernel_blocks(family, alpha, nodes, nodes.values, radius):
            for i in nonzero:
                error = np.max(np.abs(block @ coeffs[i, cols] - stacked[i, rows]))
                residuals[i] = max(residuals[i], error)
        for i in nonzero:
            scale = 1.0 + float(np.max(np.abs(stacked[i])))
            if residuals[i] > SOLVER_TOL * scale and condition <= PRECISION_CAP:
                raise AccuracyError(
                    f"interpolation residual {residuals[i]:.3e} exceeds "
                    f"SOLVER_TOL*(1+max|samples|)={SOLVER_TOL * scale:.3e} "
                    f"for band {i - len(stacked) // 2} at alpha={alpha}",
                    residual=residuals[i],
                    condition_estimate=condition,
                )
    return Approximant(alpha, family, nodes, coeffs, condition, residuals)


def reconstruct(
    signal: TestSignal,
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    grid: FrequencyGrid,
    m_max: int,
) -> Approximant:
    """Slice, sample, and solve every band ``|m| <= m_max``.

    All bands are sampled through one streamed phase matrix (see
    `spectral.band_inverse`) and solved in one
    `solve_coefficients` call: one collocation matrix, one condition
    estimate and one Cholesky factorization for this ``alpha``.

    Raises
    ------
    ConditioningError, AccuracyError
        Propagated from the solve; an `AccuracyError` names the failing band.
    """
    samples = sample_band_signal(signal_spectrum(signal, grid, m_max).values, grid, nodes)
    return solve_coefficients(family, alpha, nodes, samples)


def _support_columns(nodes: NodeSet, points: np.ndarray, radius: float) -> slice:
    """The columns of the nodes within `radius` of a non-empty `points` block;
    on all others the kernel is exactly 0.0 (see `kernels.support_radius`)."""
    lo, hi = np.searchsorted(nodes.values, [np.min(points) - radius, np.max(points) + radius])
    return slice(int(lo), int(hi))


def _kernel_blocks(
    family: InterpolatorFamily, alpha: float, nodes: NodeSet, xs: np.ndarray, radius: float
) -> Iterator[tuple[slice, np.ndarray, slice]]:
    """``(rows, block, cols)`` for each `spectral.row_blocks` block of the
    complex kernel matrix ``phi_alpha(xs - x_n)``, on the columns `cols` of
    the nodes within `radius` of its points.

    Every block is the real part of a view of one complex buffer, whose
    imaginary part stays zero; the next block overwrites it.
    """
    buffer = np.zeros((min(len(xs), ROW_BLOCK), nodes.count), dtype=complex)
    for rows in row_blocks(len(xs)):
        cols = _support_columns(nodes, xs[rows], radius)
        block = buffer[: rows.stop - rows.start, cols]
        block.real = phi_spatial(family, alpha, xs[rows, None] - nodes.values[cols])
        yield rows, block, cols


def evaluate_J(approx: Approximant, x: float | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``J_alpha f(x) = sum_m e^{2 pi i m x} sum_n a_{m,n} phi_alpha(x - x_n)``.

    Each row block of the kernel matrix ``phi_alpha(x - x_n)`` is built on
    the nodes within `kernels.support_radius` of its points only and applied
    to every non-empty band's coefficients in ascending band order; one phase
    build per block gives the modulations of all bands. A lone point keeps
    every node: numpy multiplies one row as a dot product, whose rounding
    depends on its length. A one-row approximant is the baseband interpolant
    ``I_alpha g``.

    Raises
    ------
    ContractError
        If a point is NaN.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.isnan(xs)):
        raise ContractError("evaluation points must not be NaN")
    out = np.zeros(xs.shape, dtype=complex)
    bands = [i for i, row in enumerate(approx.coefficients) if np.any(row)]  # ascending m
    if bands:
        omegas = TWO_PI * (np.array(bands) - approx.m_max)
        radius = support_radius(approx.family, approx.alpha) if len(xs) > 1 else np.inf
        blocks = _kernel_blocks(approx.family, approx.alpha, approx.nodes, xs, radius)
        for rows, block, cols in blocks:
            modulations = cis(np.outer(omegas, xs[rows]))
            for i, modulation in zip(bands, modulations):
                out[rows] += modulation * (block @ approx.coefficients[i, cols])
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def J_spectrum_band(approx: Approximant, j: int, grid: FrequencyGrid) -> np.ndarray:
    """Band-``j`` spectrum of ``J_alpha f`` in baseband coordinates, on `grid`.

    Band ``m``'s interpolant has the exact transform
    ``I_hat_m(xi) = phi_hat(xi) sum_n a_{m,n} e^{-i x_n xi}``; the modulation
    by ``e^{2 pi i m x}`` shifts it by ``2 pi m``, so on band ``j`` the
    approximant's spectrum is ``sum_m I_hat_m(xi + 2 pi (j - m))``.
    """
    values = np.zeros(grid.nodes.shape, dtype=complex)
    for i, row in enumerate(approx.coefficients):
        shifted = grid.nodes + TWO_PI * (j - i + approx.m_max)
        phase = cis(-np.outer(shifted, approx.nodes.values))
        values += phi_spectral(approx.family, approx.alpha, shifted) * (phase @ row)
    return values
