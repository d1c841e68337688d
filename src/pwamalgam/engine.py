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
``condition_estimate``; every band is then solved against that one factor, in
one call.
One copy of the collocation matrix is live at a time: on perturbed nodes it
is filled in row blocks, which take their kernel values in place, and the
Cholesky factor overwrites it. No other dense operator exists in full:
`evaluate_J` builds the kernel matrix
``phi_alpha(x - x_n)``, and the residual check the kernel matrix on the
nodes themselves (equal to the collocation matrix bit for bit), one complex
`spectral.row_blocks` block at a time, whose products round as the whole
matrix's do, and applies each block to every band while it is in cache. A
block spans only the node columns within `kernels.support_radius` of its
points, beyond which the gaussian kernel is exactly 0.0: 28% of the columns,
weighted by rows, over the blocks of an ``N = 256`` sweep. Dropping
exact-zero terms leaves every product's rounding as it was, since BLAS sums
each output in column order. Per-band products are kept (rather than one
matrix-matrix product), because the rounding of the blocked BLAS kernels
differs from the per-vector ones, and large coefficients magnify that
difference: at ``N = 256`` and gaussian ``alpha = 2.5`` the coefficients' l1
mass is 3.1e8, and one real product over all bands in `evaluate_J` moved the
sweep's ``amalgam_error`` by 1.49e-6 relative.

Numerical policy: the matrix is factorized by Cholesky, and on every node
set its 1-norm condition number is estimated from the factor in ``O(n^2)``
(see `_inverse_norm_1`). For a symmetric matrix ``kappa_1 >= kappa_2``; the
estimate reads 1.0-2.1 times the 2-norm condition number, and above about
1e16 it saturates, where the row is flagged anyway. Runs whose condition
estimate exceeds ``PRECISION_CAP`` are flagged "precision_limited"
downstream rather than failed, and the residual tolerance
``SOLVER_TOL * (1 + max|samples|)`` is not enforced there (the attainable
residual scales with the condition number). Loss of positive definiteness
raises `ConditioningError`. On the integer nodes it carries
`kernels.condition_bound`, the Toeplitz symbol bound; no condition bound holds
off the integer nodes, so there it carries ``inf``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz
from scipy.linalg.lapack import dlange

from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import (
    PRECISION_CAP,
    InterpolatorFamily,
    condition_bound,
    phi_spatial,
    phi_spectral,
    support_radius,
)
from .nodes import NodeSet
from .signals import TestSignal, sample_band_signal, signal_spectrum
from .spectral import ROW_BLOCK, TWO_PI, FrequencyGrid, cis, row_blocks

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
    written into its rows, a row at a time, and `phi_spatial` replaces them
    there by their kernel values (``out=`` the block). So no difference or
    exponent array exists beside the matrix, only the gaussian kernel's one
    boolean mask and the finiteness check's: a difference ufunc over the whole
    block would have numpy allocate hidden buffers for its broadcast operand.
    The kernel acts entry by entry, so this equals the whole build bit for
    bit, and it is exactly symmetric since ``x_j - x_k`` is ``-(x_k - x_j)``.

    The values are checked finite as they are made, the Toeplitz column or
    each row block, so the factorization need not check the whole matrix.

    Raises
    ------
    ContractError
        If a kernel value is not finite.
    """
    values = nodes.values
    if nodes.is_uniform:
        column = phi_spatial(family, alpha, values - values[0])
        _check_finite(column)
        return toeplitz(column)
    matrix = np.empty((nodes.count, nodes.count))
    for rows in row_blocks(nodes.count):
        block = matrix[rows]
        for point, row in zip(values[rows], block):
            np.subtract(point, values, out=row)
        _check_finite(phi_spatial(family, alpha, block, out=block))
    return matrix


def _check_finite(kernel_values: np.ndarray) -> None:
    if not np.isfinite(kernel_values).all():
        raise ContractError("collocation matrix entries must be finite")


def _inverse_norm_1(factor: tuple[np.ndarray, bool]) -> float:
    """``|A^-1|_1`` of a symmetric ``A`` from its Cholesky factor: the iteration
    ``dpocon`` runs (LAPACK's Hager-Higham ``dlacn2``), without its overflow
    scaling. ``dpocon`` reads the same to rounding, but its level-2 BLAS rounds
    by the address of its work arrays, so its last digit varied from run to
    run; `cho_solve`, the coefficients' solve, repeats bit for bit.

    The start vector and the final alternating one are fixed in advance, so
    they are solved together, as two columns that round as two one-column
    solves do."""
    n = len(factor[0])
    solve = partial(cho_solve, factor, check_finite=False)
    alternating = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    x, x_alternating = solve(np.column_stack([np.full(n, 1.0 / n), alternating])).T
    estimate, signs = np.abs(x).sum(), np.where(x >= 0, 1.0, -1.0)
    j = np.argmax(np.abs(solve(signs)))
    for _ in range(4):  # dlacn2's ITMAX = 5 counts the start
        x = solve(np.eye(1, n, j)[0])
        previous, estimate = estimate, np.abs(x).sum()
        signs, previous_signs = np.where(x >= 0, 1.0, -1.0), signs
        if estimate <= previous or np.array_equal(signs, previous_signs):
            break
        x = solve(signs)
        last, j = j, np.argmax(np.abs(x))
        if x[last] == abs(x[j]):
            break
    return float(max(estimate, 2 * np.abs(x_alternating).sum() / (3 * n)))


def solve_coefficients(
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    samples: np.ndarray,
) -> Approximant:
    """Solve the collocation system for a ``(2M+1, nodes)`` stack of band samples.

    Row ``i`` of `samples` is band ``i - M``. The matrix is built and
    factorized once for all rows, and its condition estimated from the
    factor, which overwrites it: the matrix is exactly symmetric, so its
    transpose is a Fortran-ordered array holding the bytes LAPACK would
    otherwise be given a copy of. The residual check therefore builds its
    row blocks from the kernel again, equal to the matrix's rows bit for bit.

    All-zero samples short-circuit to exactly zero coefficients (the
    homogeneous system), preserving exact zeros for signals with empty bands;
    the matrix is factorized even when every row is zero. Each non-empty
    complex row is two real columns of one right-hand side, solved against the
    one real factorization in one call; the coefficients are allocated only
    once the factor is freed.

    Raises
    ------
    ContractError
        If `samples` is misshapen or holds a non-finite value, or the
        collocation matrix does.
    ConditioningError
        If the Cholesky factorization fails (matrix numerically indefinite).
        Its condition estimate is `kernels.condition_bound` on the integer
        nodes, and ``inf`` off them, where no condition bound holds.
    AccuracyError
        If a band's interpolation residual exceeds
        ``SOLVER_TOL * (1 + max|samples|)`` of its row while the condition
        estimate is below `PRECISION_CAP`; the first such band in row order
        is named.
    """
    stacked = np.asarray(samples, dtype=complex)
    if stacked.ndim != 2 or stacked.shape[0] % 2 == 0 or stacked.shape[1] != nodes.count:
        raise ContractError("samples need one row per band -M..M and one value per node")
    if not np.all(np.isfinite(stacked)):
        raise ContractError("samples must be finite")
    family.check_alpha(alpha)
    matrix = collocation_matrix(family, alpha, nodes)
    # LAPACK reads the norm of the Fortran-ordered transpose and factors it in
    # place; `collocation_matrix` checked its entries finite.
    norm = dlange("1", matrix.T)
    try:
        factor = cho_factor(matrix.T, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        if nodes.is_uniform:
            bound = condition_bound(family, alpha)
            detail = f"condition bound {bound:.3e}"
        else:
            bound, detail = math.inf, "no condition bound holds off the integer nodes"
        raise ConditioningError(
            f"collocation matrix lost positive definiteness at alpha={alpha} ({detail})",
            condition_estimate=bound,
        ) from exc
    condition = norm * _inverse_norm_1(factor)
    nonzero = [i for i, row in enumerate(stacked) if np.any(row)]
    # Rows 2k and 2k+1 of `parts` are band k's real and imaginary parts: its
    # transpose is a Fortran-ordered right-hand side, solved in place. The
    # matrix and samples were checked finite above.
    parts = np.empty((2 * len(nonzero), nodes.count))
    for k, i in enumerate(nonzero):
        parts[2 * k], parts[2 * k + 1] = stacked[i].real, stacked[i].imag
    parts = cho_solve(factor, parts.T, overwrite_b=True, check_finite=False).T
    del matrix, factor  # freed before the coefficients and residual blocks are built
    coeffs = np.zeros(stacked.shape, dtype=complex)
    coeffs[nonzero] = parts[0::2] + 1j * parts[1::2]
    residuals = np.zeros(len(stacked))
    if nonzero:
        radius = support_radius(family, alpha)
        for rows, block, cols in _kernel_blocks(family, alpha, nodes, nodes.values, radius):
            for i in nonzero:
                error = np.max(np.abs(block @ coeffs[i, cols] - stacked[i, rows]))
                residuals[i] = max(residuals[i], error)
    tolerances = SOLVER_TOL * (1.0 + np.max(np.abs(stacked), axis=1))
    over = np.flatnonzero(residuals > tolerances)
    if over.size and condition <= PRECISION_CAP:
        i = over[0]
        raise AccuracyError(
            f"interpolation residual {residuals[i]:.3e} exceeds "
            f"SOLVER_TOL*(1+max|samples|)={tolerances[i]:.3e} "
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
    `spectral.band_inverse`) and solved in one `solve_coefficients` call: one
    collocation matrix, factorization and condition estimate per ``alpha``.

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
    imaginary part stays zero; the next block overwrites it. The kernel is
    applied in place to each block's difference array, which is freed before
    the block is yielded, so it never stands beside the next one.
    """
    buffer = np.zeros((min(len(xs), ROW_BLOCK), nodes.count), dtype=complex)
    for rows in row_blocks(len(xs)):
        cols = _support_columns(nodes, xs[rows], radius)
        block = buffer[: rows.stop - rows.start, cols]
        differences = xs[rows, None] - nodes.values[cols]
        block.real = phi_spatial(family, alpha, differences, out=differences)
        del differences  # not held beside the next block's
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
        If a point is NaN or infinite, before any block is built.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ContractError("evaluation points must be finite, not NaN or infinite")
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
