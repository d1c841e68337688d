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
Likewise `evaluate_J` builds the kernel matrix ``phi_alpha(x - x_n)`` once
and applies it band by band. Per-band products and solves are kept (rather
than one matrix-matrix product) because the rounding of the blocked BLAS
kernels differs from the per-vector ones, and large coefficients magnify
that difference: at ``N = 256`` and gaussian ``alpha = 2.5`` the
coefficients' l1 mass is 3.1e8, and one real product over all bands in
`evaluate_J` moved the sweep's ``amalgam_error`` by 1.49e-6 relative.

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
flagged "precision_limited" downstream rather than failed, and the
interpolation-residual tolerance is not enforced there (the attainable
residual scales with the condition number, so enforcement would turn a
reporting concern into a spurious hard failure). Loss of positive
definiteness raises `ConditioningError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz

from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import InterpolatorFamily, condition_bound, phi_spatial, phi_spectral
from .nodes import NodeSet
from .signals import TestSignal, sample_band_signal, signal_spectrum
from .spectral import TWO_PI, FrequencyGrid

# Condition estimate beyond which solves are flagged instead of failed.
PRECISION_CAP = 1e12


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
    difference build bit for bit.
    """
    values = nodes.values
    if nodes.is_uniform:
        return toeplitz(phi_spatial(family, alpha, values - values[0]))
    return phi_spatial(family, alpha, values[:, None] - values[None, :])


def condition_source(nodes: NodeSet) -> str:
    """Where `solve_coefficients` takes its condition estimate from on `nodes`."""
    return "toeplitz_symbol" if nodes.is_uniform else "eigvalsh"


def solve_coefficients(
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    samples: np.ndarray,
    tol: float = 1e-8,
) -> Approximant:
    """Solve the collocation system for a ``(2M+1, nodes)`` stack of band samples.

    Row ``i`` of `samples` is band ``i - M``. The matrix is built, its
    condition estimated (from the source `condition_source` names) and
    factorized once for all rows.

    All-zero samples short-circuit to exactly zero coefficients (the
    homogeneous system), preserving exact zeros for signals with empty bands;
    when every row is zero the matrix is not factorized. Each complex row is
    solved as two real systems against the one real factorization, so a row
    is bit-identical to a one-row solve of that band alone.

    Raises
    ------
    ConditioningError
        If the Cholesky factorization fails (matrix numerically indefinite).
    AccuracyError
        If a band's interpolation residual exceeds ``tol * (1 + max|samples|)``
        while the condition estimate is below `PRECISION_CAP`; the first such
        band in row order is named.
    """
    stacked = np.asarray(samples, dtype=complex)
    if stacked.ndim != 2 or stacked.shape[0] % 2 == 0 or stacked.shape[1] != nodes.count:
        raise ContractError("samples need one row per band -M..M and one value per node")
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
            factor = cho_factor(matrix)
        except LinAlgError as exc:
            raise ConditioningError(
                f"collocation matrix lost positive definiteness at alpha={alpha} "
                f"(condition estimate {condition:.3e})",
                condition_estimate=condition,
            ) from exc
        complex_matrix = matrix.astype(complex)
        for i in nonzero:
            # One triangular solve pair per band: a multi-column solve lets
            # BLAS reblock (OpenBLAS does from 12 columns at 513 nodes) and
            # changes the rounding of every band.
            coeffs[i] = cho_solve(factor, stacked[i].real) + 1j * cho_solve(
                factor, stacked[i].imag
            )
            residuals[i] = np.max(np.abs(complex_matrix @ coeffs[i] - stacked[i]))
            scale = 1.0 + float(np.max(np.abs(stacked[i])))
            if residuals[i] > tol * scale and condition <= PRECISION_CAP:
                raise AccuracyError(
                    f"interpolation residual {residuals[i]:.3e} exceeds tol*(1+max|samples|)"
                    f"={tol * scale:.3e} for band {i - len(stacked) // 2} at alpha={alpha}",
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
    tol: float = 1e-8,
) -> Approximant:
    """Slice, sample, and solve every band ``|m| <= m_max``.

    All bands are sampled through one phase matrix and solved in one
    `solve_coefficients` call: one collocation matrix, one condition
    estimate and one Cholesky factorization for this ``alpha``.

    Raises
    ------
    ConditioningError, AccuracyError
        Propagated from the solve; an `AccuracyError` names the failing band.
    """
    samples = sample_band_signal(signal_spectrum(signal, grid, m_max).values, grid, nodes)
    return solve_coefficients(family, alpha, nodes, samples, tol=tol)


def evaluate_J(approx: Approximant, x: float | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``J_alpha f(x) = sum_m e^{2 pi i m x} sum_n a_{m,n} phi_alpha(x - x_n)``.

    The kernel matrix ``phi_alpha(x - x_n)`` is built once and applied to
    each non-empty band's coefficients in turn. A one-row approximant is the
    baseband interpolant ``I_alpha g``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.shape, dtype=complex)
    bands = [i for i, row in enumerate(approx.coefficients) if np.any(row)]  # ascending m
    if bands:
        # The differences stay a temporary: holding them while the complex
        # copy is made would add a third window-sized matrix to the peak.
        kernel = phi_spatial(
            approx.family, approx.alpha, xs[:, None] - approx.nodes.values[None, :]
        ).astype(complex)
        for i in bands:
            part = kernel @ approx.coefficients[i]
            out += np.exp(1j * TWO_PI * (i - approx.m_max) * xs) * part
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
        phase = np.exp(-1j * np.outer(shifted, approx.nodes.values))
        values += phi_spectral(approx.family, approx.alpha, shifted) * (phase @ row)
    return values
