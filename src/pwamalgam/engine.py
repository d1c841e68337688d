"""Collocation solves and assembly of the modulated approximant.

For each band ``m`` the coefficients ``a_{m,n}`` solve the symmetric positive
definite collocation system ``sum_k a_k phi_alpha(x_j - x_k) = g_m(x_j)``, so
the band interpolant ``I_alpha g_m(x) = sum_n a_{m,n} phi_alpha(x - x_n)``
matches the sampled baseband piece at every node. The approximant is the
modulated sum ``J_alpha f(x) = sum_m e^{2 pi i m x} I_alpha g_m(x)``.

The collocation matrix depends on ``alpha`` and the nodes but not on the
band, so each ``alpha`` builds it once, estimates its condition number once
and factorizes it once; every band is then solved against that one factor.
Likewise `evaluate_J` builds the kernel matrix ``phi_alpha(x - x_n)`` once
and applies it band by band. Per-band products and solves are kept (rather
than one matrix-matrix product) because the rounding of the blocked BLAS
kernels differs from the per-vector ones, and near the precision cap the
sweep amplifies such differences far beyond machine precision.

Numerical policy: the matrix is factorized by Cholesky; its 2-norm condition
number is always estimated and reported. Because the matrix is symmetric, the
estimate is ``max|lambda| / min|lambda|`` over its eigenvalues (one
``eigvalsh`` per ``alpha``), which equals the singular-value ratio; beyond
about 1e15 it is rounding noise and only serves to flag the row. Runs whose condition estimate
exceeds ``PRECISION_CAP`` are flagged "precision_limited" downstream rather
than failed, and the interpolation-residual tolerance is not enforced there
(the attainable residual scales with the condition number, so enforcement
would turn a reporting concern into a spurious hard failure). Loss of
positive definiteness raises `ConditioningError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import InterpolatorFamily, phi_spatial, phi_spectral
from .nodes import NodeSet
from .signals import TestSignal, sample_band_signal, signal_spectrum
from .spectral import TWO_PI, BandSpectrum, FrequencyGrid

# Condition estimate beyond which solves are flagged instead of failed.
PRECISION_CAP = 1e12


@dataclass(frozen=True)
class SolveDiagnostics:
    """Conditioning and accuracy record of one collocation solve."""

    condition_estimate: float
    max_residual: float


@dataclass(frozen=True)
class CoefficientSet:
    """Solved coefficients ``a_{m,n}`` for one band."""

    alpha: float
    band_index: int
    node_ref: NodeSet
    values: np.ndarray = field(repr=False)
    diagnostics: SolveDiagnostics = field(repr=False)

    def __post_init__(self) -> None:
        if self.values.shape != (self.node_ref.count,):
            raise ContractError("coefficient count must match node count")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("coefficients must be finite")


@dataclass(frozen=True)
class Approximant:
    """Per-band coefficient sets assembling ``J_alpha f``."""

    alpha: float
    family: InterpolatorFamily
    nodes: NodeSet
    coefficient_sets: tuple[CoefficientSet, ...]

    def __post_init__(self) -> None:
        indices = [c.band_index for c in self.coefficient_sets]
        m_max = (len(indices) - 1) // 2
        if indices != list(range(-m_max, m_max + 1)):
            raise ContractError("coefficient sets must cover exactly -M_max..M_max")

    @property
    def m_max(self) -> int:
        return (len(self.coefficient_sets) - 1) // 2

    def band(self, m: int) -> CoefficientSet:
        return self.coefficient_sets[m + self.m_max]


def collocation_matrix(
    family: InterpolatorFamily, alpha: float, nodes: NodeSet
) -> np.ndarray:
    """The symmetric positive-definite matrix ``phi_alpha(x_j - x_k)``."""
    diffs = nodes.values[:, None] - nodes.values[None, :]
    return phi_spatial(family, alpha, diffs)


def solve_coefficients(
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    samples: np.ndarray,
    tol: float = 1e-8,
    band_index: int | Sequence[int] = 0,
) -> CoefficientSet | tuple[CoefficientSet, ...]:
    """Solve the collocation system for one band's samples, or for several.

    `samples` is either one band's vector over the nodes, with `band_index`
    an int, or a ``(bands, nodes)`` stack with one band index per row; the
    stack returns one `CoefficientSet` per row, in row order. The matrix is
    built, its condition estimated and factorized once for all rows.

    All-zero samples short-circuit to exactly zero coefficients (the
    homogeneous system), preserving exact zeros for signals with empty bands;
    when every row is zero the matrix is not factorized. Each complex row is
    solved as two real systems against the one real factorization, so a row
    is bit-identical to solving that band alone.

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
    single = stacked.ndim == 1
    indices = [int(m) for m in np.atleast_1d(band_index)]
    stacked = np.atleast_2d(stacked)
    if stacked.shape != (len(indices), nodes.count):
        raise ContractError("samples need one row per band index and one value per node")
    family.check_alpha(alpha)
    matrix = collocation_matrix(family, alpha, nodes)
    # The matrix is exactly symmetric, so its singular values are the magnitudes
    # of its eigenvalues: max|lambda| / min|lambda| is the 2-norm condition number
    # at about half the cost of an SVD. A zero eigenvalue gives inf, silently.
    magnitudes = np.abs(np.linalg.eigvalsh(matrix))
    with np.errstate(divide="ignore"):
        condition = float(magnitudes.max() / magnitudes.min())
    nonzero = [i for i, row in enumerate(stacked) if np.any(row)]
    coeffs = np.zeros(stacked.shape, dtype=complex)
    residuals = [0.0] * len(indices)
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
            residual = float(np.max(np.abs(complex_matrix @ coeffs[i] - stacked[i])))
            scale = 1.0 + float(np.max(np.abs(stacked[i])))
            if residual > tol * scale and condition <= PRECISION_CAP:
                raise AccuracyError(
                    f"interpolation residual {residual:.3e} exceeds tol*(1+max|samples|)"
                    f"={tol * scale:.3e} for band {indices[i]} at alpha={alpha}",
                    residual=residual,
                    condition_estimate=condition,
                )
            residuals[i] = residual
    sets = tuple(
        CoefficientSet(
            alpha=alpha,
            band_index=m,
            node_ref=nodes,
            values=values,
            diagnostics=SolveDiagnostics(
                condition_estimate=condition, max_residual=residual
            ),
        )
        for m, values, residual in zip(indices, coeffs, residuals)
    )
    return sets[0] if single else sets


def interpolant_spatial(
    coeffs: CoefficientSet,
    family: InterpolatorFamily,
    nodes: NodeSet,
    x: float | np.ndarray,
) -> complex | np.ndarray:
    """Evaluate ``sum_n a_n phi_alpha(x - x_n)`` at point(s) ``x``."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    kernel = phi_spatial(family, coeffs.alpha, xs[:, None] - nodes.values[None, :])
    out = kernel @ coeffs.values
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def interpolant_spectral(
    coeffs: CoefficientSet,
    family: InterpolatorFamily,
    nodes: NodeSet,
    xi: float | np.ndarray,
) -> complex | np.ndarray:
    """Exact transform of the interpolant: ``phi_hat(xi) sum_n a_n e^{-i x_n xi}``."""
    zs = np.atleast_1d(np.asarray(xi, dtype=float))
    phase = np.exp(-1j * np.outer(zs, nodes.values))
    out = phi_spectral(family, coeffs.alpha, zs) * (phase @ coeffs.values)
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return complex(out[0])
    return out


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
    bands = signal_spectrum(signal, grid, m_max).bands
    samples = sample_band_signal(bands, grid, nodes)
    solved = solve_coefficients(
        family, alpha, nodes, samples, tol=tol, band_index=[b.band_index for b in bands]
    )
    return Approximant(alpha=alpha, family=family, nodes=nodes, coefficient_sets=solved)


def evaluate_J(approx: Approximant, x: float | np.ndarray) -> complex | np.ndarray:
    """Evaluate ``J_alpha f(x) = sum_m e^{2 pi i m x} I_alpha g_m(x)``.

    The kernel matrix ``phi_alpha(x - x_n)`` is built once and applied to
    each non-empty band's coefficients in turn.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.shape, dtype=complex)
    bands = [c for c in approx.coefficient_sets if np.any(c.values)]  # ascending m
    if bands:
        # The differences stay a temporary: holding them while the complex
        # copy is made would add a third window-sized matrix to the peak.
        kernel = phi_spatial(
            approx.family, approx.alpha, xs[:, None] - approx.nodes.values[None, :]
        ).astype(complex)
        for coeffs in bands:
            part = kernel @ coeffs.values
            out += np.exp(1j * TWO_PI * coeffs.band_index * xs) * part
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


def J_spectrum_band(approx: Approximant, j: int, grid: FrequencyGrid) -> BandSpectrum:
    """Band-``j`` spectrum of ``J_alpha f`` in baseband coordinates.

    The modulation by ``e^{2 pi i m x}`` shifts each band interpolant's
    spectrum by ``2 pi m``, so on band ``j`` the approximant's spectrum is
    ``sum_m I_hat_m(xi + 2 pi (j - m))``.
    """
    values = np.zeros(grid.nodes.shape, dtype=complex)
    for coeffs in approx.coefficient_sets:
        if not np.any(coeffs.values):
            continue
        shifted = grid.nodes + TWO_PI * (j - coeffs.band_index)
        values += interpolant_spectral(coeffs, approx.family, approx.nodes, shifted)
    return BandSpectrum(band_index=j, values=values)
