"""Error functionals of the approximant and the convergence sweep.

The three error functionals (global L2, amalgam norm, uniform norm) are
measured for the residual ``f - J_alpha f`` on the interior window
``[-T, T]`` given by the spatial grid. Truncating the node set makes the
exterior unrepresentative: the bi-infinite coefficient sequence carries
slowly decaying mass beyond the node window that grows with alpha, so global
spectral functionals of the truncated approximant are dominated by window
effects rather than by the interpolation method. Windowed functionals track
the method itself; the restriction is part of the measurement contract and
interior-window stability under node-set growth is a tested property.

Concretely, the residual is evaluated on a phase-resolved composite
Gauss-Legendre grid over the window, its band spectra come from the windowed
forward transform, and the band L2 norms are summed (amalgam) or summed in
squares (Parseval L2). Mass that the measurement cannot see is accounted
separately and explicitly:

- ``tail_slack_f``: the signal's own band norms beyond the reconstruction
  truncation ``M_max`` (analytic per signal),
- ``tail_slack_J``: the approximant's spectral leak beyond the error-band
  cap ``j_cap`` (``M_max + 2`` in CLI runs), bounded by the coefficient l1
  mass times the kernel's band-suprema tail.

Both slacks are added to the amalgam error, combined in quadrature for the
L2 error, and reported as separate columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    PRECISION_CAP,
    Approximant,
    evaluate_J,
    reconstruct,
)
from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import InterpolatorFamily, m_alpha, mj_tail_bound, phi_spectral
from .nodes import NodeSet
from .signals import TestSignal, signal_spectrum
from .spectral import (
    TWO_PI,
    AmalgamSpectrum,
    FrequencyGrid,
    SpatialGrid,
    amalgam_norm,
    cis,
    gauss_legendre,
    inverse_ft_at,
    l2_norm_parseval,
)


@dataclass(frozen=True)
class ErrorReport:
    """The three error functionals plus bound and conditioning diagnostics.

    ``bound_ratio`` is ``amalgam_error / rhs_bound`` (defined as 0 for the
    zero signal, whose bound is 0). ``precision_limited`` marks runs whose
    condition estimate exceeds the double-precision trust cap; their error
    values are reported but not trustworthy. Failed solves produce reports
    with NaN error fields and an explanatory flag.
    """

    alpha: float
    l2_error: float
    amalgam_error: float
    sup_error: float
    rhs_bound: float
    bound_ratio: float
    condition_estimate: float
    tail_slack_f: float
    tail_slack_J: float
    precision_limited: bool
    flags: tuple[str, ...] = ()


def window_quadrature(extent: float, j_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over ``[-extent, extent]``.

    Panel order resolves the fastest phase present in the windowed
    transforms, ``(2 j_cap + 1) pi`` per unit length, with margin.
    """
    if extent <= 0:
        raise ContractError("window extent must be positive")
    n_panels = max(1, int(np.ceil(2.0 * extent)))
    panel_len = 2.0 * extent / n_panels
    per_panel = int(np.ceil((2 * j_cap + 1) * np.pi * panel_len / 2.0)) + 8
    return gauss_legendre(extent, n_panels, per_panel)


def truncated_signal_values(
    signal: TestSignal, grid: FrequencyGrid, m_max: int, x: np.ndarray
) -> np.ndarray:
    """The band-truncated signal ``sum_{|m|<=M} e^{2 pi i m x} g_m(x)``.

    This is the reconstruction target: the same quadrature inversion that
    feeds the node sampling, truncated to the same bands. Signal mass beyond
    ``m_max`` is accounted by ``tail_slack_f``, never silently dropped.
    """
    return inverse_ft_at(signal_spectrum(signal, grid, m_max), grid, x)


@dataclass(frozen=True)
class _Target:
    """The band-truncated signal on the window quadrature and the spatial grid.

    It depends on the signal, the grids and the truncations, not on ``alpha``,
    so `sweep` builds it once and measures every approximant against it.
    """

    xq: np.ndarray
    wq: np.ndarray
    on_window: np.ndarray
    on_grid: np.ndarray


def _build_target(
    signal: TestSignal, grid: FrequencyGrid, m_max: int, x_grid: SpatialGrid, j_cap: int
) -> _Target:
    if j_cap <= m_max:
        raise ContractError("j_cap must exceed the band truncation M_max")
    xq, wq = window_quadrature(x_grid.extent, j_cap)
    return _Target(
        xq=xq,
        wq=wq,
        on_window=truncated_signal_values(signal, grid, m_max, xq),
        on_grid=truncated_signal_values(signal, grid, m_max, x_grid.points),
    )


def error_report(
    signal: TestSignal,
    approx: Approximant,
    grid: FrequencyGrid,
    x_grid: SpatialGrid,
    j_cap: int,
    *,
    _target: _Target | None = None,
) -> ErrorReport:
    """Measure the approximant's error functionals on the interior window.

    Per band ``|j| <= j_cap`` the residual's band spectrum comes from the
    windowed forward transform of ``f - J_alpha f`` evaluated over
    ``[-extent, extent]`` of `x_grid`; the amalgam error sums band norms plus
    the two analytic tail slacks, the L2 error combines them by Parseval, and
    the sup error is the max over the spatial grid points. The bound side is
    ``sum_j || (m_alpha / phi_hat) fhat(. + 2 pi j) ||`` plus the signal's
    tail beyond ``j_cap``.

    `_target` is private to this module: `sweep` passes the target it built
    once from the same arguments.
    """
    m_max = approx.m_max
    target = _target or _build_target(signal, grid, m_max, x_grid, j_cap)
    family = approx.family
    alpha = approx.alpha
    xq = target.xq

    # e^{-i(xi + 2 pi j) x} = e^{-i xi x} e^{-2 pi i j x}: one exponential
    # matrix over the base band, applied to the 2 j_cap + 1 modulated
    # residual columns.
    residual_q = target.on_window - evaluate_J(approx, xq)
    js = np.arange(-j_cap, j_cap + 1)
    modulated = (target.wq * residual_q)[:, None] * cis(-TWO_PI * np.outer(xq, js))
    transforms = TWO_PI**-0.5 * (cis(-np.outer(grid.nodes, xq)) @ modulated)

    tail_f = signal.tail_bound(m_max)
    coeff_l1 = sum(float(np.sum(np.abs(row))) for row in approx.coefficients)
    tail_J = (
        np.sqrt(TWO_PI) * coeff_l1 * mj_tail_bound(family, alpha, j_cap - m_max)
        if coeff_l1 > 0.0
        else 0.0
    )

    residual = AmalgamSpectrum(transforms.T, float(tail_f + tail_J))
    amalgam_error = float(amalgam_norm(residual, grid))
    l2_error = l2_norm_parseval(residual, grid)

    residual_s = target.on_grid - evaluate_J(approx, x_grid.points)
    sup_error = float(np.max(np.abs(residual_s)))

    weight = m_alpha(family, alpha) / phi_spectral(family, alpha, grid.nodes)
    bands = signal_spectrum(signal, grid, j_cap)
    rhs = amalgam_norm(AmalgamSpectrum(weight * bands.values, bands.tail_estimate), grid)

    return ErrorReport(
        alpha=float(alpha),
        l2_error=l2_error,
        amalgam_error=amalgam_error,
        sup_error=sup_error,
        rhs_bound=float(rhs),
        bound_ratio=float(amalgam_error / rhs) if rhs > 0.0 else 0.0,
        condition_estimate=approx.condition_estimate,
        tail_slack_f=float(tail_f),
        tail_slack_J=float(tail_J),
        precision_limited=approx.condition_estimate > PRECISION_CAP,
    )


def _failed_report(alpha: float, message: str, condition: float) -> ErrorReport:
    nan = float("nan")
    return ErrorReport(
        alpha=float(alpha),
        l2_error=nan,
        amalgam_error=nan,
        sup_error=nan,
        rhs_bound=nan,
        bound_ratio=nan,
        condition_estimate=condition,
        tail_slack_f=nan,
        tail_slack_J=nan,
        precision_limited=False,
        flags=(message,),
    )


def sweep(
    signal: TestSignal,
    family: InterpolatorFamily,
    alpha_values: list[float],
    nodes: NodeSet,
    grid: FrequencyGrid,
    x_grid: SpatialGrid,
    m_max: int,
    j_cap: int,
) -> list[ErrorReport]:
    """One `error_report` per alpha, in sweep order.

    The band-truncated target does not depend on alpha and is evaluated once
    for the whole sweep. Solver failures at one alpha do not stop the sweep:
    the failed alpha yields a NaN report flagged with the failure message and
    carrying the condition estimate of its matrix, and remaining values still
    run. Callers decide whether flagged failures are fatal.
    """
    if not alpha_values:
        raise ContractError("alpha sweep must be nonempty")
    if any(b <= a for a, b in zip(alpha_values, alpha_values[1:])):
        raise ContractError("alpha sweep must be strictly ascending")
    target = _build_target(signal, grid, m_max, x_grid, j_cap)
    reports = []
    for alpha in alpha_values:
        try:
            approx = reconstruct(signal, family, alpha, nodes, grid, m_max)
            reports.append(
                error_report(signal, approx, grid, x_grid, j_cap, _target=target)
            )
        except (ConditioningError, AccuracyError) as exc:
            reports.append(
                _failed_report(alpha, f"failed: {exc}", exc.condition_estimate)
            )
    return reports
