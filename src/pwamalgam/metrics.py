"""Error functionals of the approximant and the convergence sweep.

The three error functionals (global L2, amalgam norm, uniform norm) are
measured for the residual ``f - J_alpha f`` on the interior window
``[-T, T]`` given by the spatial grid. Truncating the node set makes the
exterior unrepresentative: the bi-infinite coefficient sequence carries
slowly decaying mass beyond the node window that grows with alpha, so global
spectral functionals of the truncated approximant are dominated by window
effects rather than by the interpolation method. Windowed functionals track
the method itself once the node set reaches well beyond the window; the
restriction is part of the measurement contract and interior-window
stability under node-set growth is a tested property. The node truncation
still shows inside the window at large alpha: with the same window,
``sweep_gauss_pair`` at N=32 reads ``amalgam_error`` +27.7%, ``l2_error``
+27.1% and ``sup_error`` +35.0% above N=128 at alpha 2.5, against +5.4%
(``amalgam_error``) at 1.75 and +0.01% at 0.75. ROADMAP item 13 accounts for
it.

Concretely, the residual is evaluated on a phase-resolved composite
Gauss-Legendre grid over the window, its band spectra come from the windowed
forward transform `spectral.band_forward`, and the band L2 norms are summed
(amalgam) or summed in squares (Parseval L2). Mass that the measurement
cannot see is accounted separately and explicitly:

- ``tail_slack_f``: the signal's own band norms beyond the reconstruction
  truncation ``M_max`` (analytic per signal),
- ``tail_slack_J``: the approximant's spectral leak beyond the error-band
  cap ``j_cap = M_max + J_MARGIN``, bounded by the coefficient l1 mass times
  the kernel's band-suprema tail.

Both slacks are added to the amalgam error, combined in quadrature for the
L2 error, and reported as separate columns.

Only the kernel changes along an alpha sweep: `sweep` samples the bands at
the nodes and builds the `Target` once, then solves each alpha and evaluates
``J_alpha f`` once on the target's points. The window's phase blocks do not
depend on alpha either, so after the last solve the finishing step that
`error_report` takes too transforms every alpha's window residual in one
pass of `spectral.band_forward`. They are streamed, not held in `Target`: the
whole phase matrix over the window would outweigh the collocation matrix,
the peak of a sweep. The same step builds the signal's bands up to ``j_cap``
once and weighs them by each alpha's kernel for the bound side.

The reference that approximant values are compared against, the closed form
of ``f`` or else the band-truncated signal, is chosen here too, in
`pointwise_values`.

The run checks of the ``sweep`` and ``reconstruct`` manifests are decided
here as well: `sweep_checks` reads a sweep's rows and decides which of them
are trusted, and `quadrature_checks` records ``quadrature_drift``, the
signal's amalgam-norm change on a frequency grid refined by the fixed
``quadrature_refinement_factor`` (2): the run's grid with each of its two
panels halved, carrying the same Gauss-Legendre rule. `run_verdict` decides
every command's ``all_pass``, ``verify-family``'s too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import Approximant, evaluate_J, reconstruct, solve_coefficients
from .errors import AccuracyError, ConditioningError, ContractError
from .kernels import PRECISION_CAP, InterpolatorFamily, m_alpha, mj_tail_bound, phi_spectral
from .nodes import NodeSet
from .signals import TestSignal, sample_band_signal, signal_spectrum
from .spectral import (
    TWO_PI,
    AmalgamSpectrum,
    FrequencyGrid,
    SpatialGrid,
    amalgam_norm,
    band_forward,
    gauss_legendre,
    halved_panels,
    inverse_ft_at,
    l2_norm_parseval,
)


# Bands the error measurement reads beyond the reconstruction's ``M_max``.
J_MARGIN = 2

# Nodes of the drift check's grid per node of the run's: `halved_panels`.
QUADRATURE_REFINEMENT = 2

# The largest ``quadrature_drift`` a run passes with (committed configs: 2.3e-15).
DRIFT_TOL = 1e-12


@dataclass(frozen=True, kw_only=True)
class ErrorReport:
    """The three error functionals plus bound and conditioning diagnostics.

    ``bound_ratio`` is ``amalgam_error / rhs_bound`` (defined as 0 for the
    zero signal, whose bound is 0). ``precision_limited`` marks runs whose
    condition estimate exceeds the double-precision trust cap; their error
    values are reported but not trustworthy. A failed solve gives a report
    with NaN measured fields, the condition estimate the error carries and an
    explanatory flag; ``precision_limited`` labels it too.
    """

    alpha: float
    l2_error: float = np.nan
    amalgam_error: float = np.nan
    sup_error: float = np.nan
    rhs_bound: float = np.nan
    bound_ratio: float = np.nan
    condition_estimate: float
    tail_slack_f: float = np.nan
    tail_slack_J: float = np.nan
    precision_limited: bool = False
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
class Target:
    """What an approximant is measured against: the band-truncated signal
    `values` at `points` and its tail ``tail_f`` beyond ``m_max``.

    `points` holds the first half of the window quadrature nodes (one per
    weight of `wq`), then the spatial grid, then the other half. Both parts
    are exact mirrors, so where the window has an even number of nodes (an
    even number of panels, ``2 T_int`` for an integer ``T_int``) the whole
    is one, and `truncated_signal_values` and each `evaluate_J` on it build
    the phases and kernel rows of one half only. It does not depend on
    ``alpha``, so `sweep` builds it once and measures every approximant
    against it.
    """

    signal: TestSignal
    grid: FrequencyGrid
    m_max: int
    wq: np.ndarray
    points: np.ndarray
    values: np.ndarray
    tail_f: float

    @property
    def spatial(self) -> slice:
        """The entries of `points` that are the spatial grid; the others,
        in order, are the window quadrature nodes."""
        half = len(self.wq) // 2
        return slice(half, half + len(self.points) - len(self.wq))


def measurement_target(
    signal: TestSignal, grid: FrequencyGrid, x_grid: SpatialGrid, m_max: int
) -> Target:
    """The `Target` that `error_report` measures approximants of `m_max` against."""
    xq, wq = window_quadrature(x_grid.extent, m_max + J_MARGIN)
    half = len(xq) // 2
    points = np.concatenate([xq[:half], x_grid.points, xq[half:]])
    return Target(
        signal=signal,
        grid=grid,
        m_max=m_max,
        wq=wq,
        points=points,
        values=truncated_signal_values(signal, grid, m_max, points),
        tail_f=float(signal.tail_bound(m_max)),
    )


def error_report(approx: Approximant, target: Target) -> ErrorReport:
    """Measure the approximant's error functionals on the interior window.

    Per band ``|j| <= j_cap = M_max + J_MARGIN`` the residual's band spectrum
    comes from the windowed forward transform (`spectral.band_forward`) of
    ``f - J_alpha f`` evaluated over ``[-extent, extent]`` of the target's
    spatial grid; the amalgam error sums band norms plus the two analytic
    tail slacks, the L2 error combines them by Parseval, and the sup error is
    the max over the spatial grid points. The bound side is
    ``sum_j || (m_alpha / phi_hat) fhat(. + 2 pi j) ||`` plus the signal's
    tail beyond ``j_cap``.

    This is the one-alpha case of `sweep`, through the same two steps: the
    approximant is evaluated once on the target's points, its kernel blocks
    freed, and only then does the forward transform build its phase blocks.
    """
    return _finish([_measure(approx, target)], target, approx.family)[0]


def _report(alpha: float, condition: float, **fields) -> ErrorReport:
    """An `ErrorReport`: the one place that decides ``precision_limited``."""
    limited = condition > PRECISION_CAP
    return ErrorReport(
        alpha=float(alpha), condition_estimate=condition, precision_limited=limited, **fields
    )


def _measure(approx: Approximant, target: Target) -> tuple[np.ndarray, ErrorReport]:
    """All that `error_report` needs of the approximant: the window residual
    ``f - J_alpha f`` times the quadrature weights, and the report with every
    field but the four that `_finish` gives (NaN until then)."""
    m_max, family, alpha = approx.m_max, approx.family, approx.alpha
    if m_max != target.m_max:
        raise ContractError(
            f"approximant has M_max={m_max} but the target was built for {target.m_max}"
        )

    # One evaluation: the spatial grid's residual between the window's halves.
    residual = evaluate_J(approx, target.points)
    np.subtract(target.values, residual, out=residual)
    weighted = target.wq * np.delete(residual, target.spatial)
    sup_error = float(np.max(np.abs(residual[target.spatial])))

    coeff_l1 = sum(float(np.sum(np.abs(row))) for row in approx.coefficients)
    tail_J = (
        np.sqrt(TWO_PI) * coeff_l1 * mj_tail_bound(family, alpha, J_MARGIN)
        if coeff_l1 > 0.0
        else 0.0
    )

    return weighted, _report(
        alpha,
        approx.condition_estimate,
        sup_error=sup_error,
        tail_slack_f=target.tail_f,
        tail_slack_J=float(tail_J),
    )


def _finish(
    measured: list[tuple[np.ndarray | None, ErrorReport]],
    target: Target,
    family: InterpolatorFamily,
) -> list[ErrorReport]:
    """Each report completed by the L2 and amalgam errors of its weighted
    window residual's band transforms, all from one `band_forward` pass, its
    bound side ``rhs_bound`` and their bound ratio. The signal's bands up to
    ``j_cap`` that the bound side weighs are built once for every alpha. A
    failed row, which has no residual, passes through."""
    grid, j_cap = target.grid, target.m_max + J_MARGIN
    xq = np.delete(target.points, target.spatial)
    residuals = [weighted for weighted, _ in measured if weighted is not None]
    transforms = iter(band_forward(np.array(residuals), xq, grid, j_cap) if residuals else ())
    bands = signal_spectrum(target.signal, grid, j_cap)
    reports = []
    for weighted, report in measured:
        if weighted is not None:
            slack = report.tail_slack_f + report.tail_slack_J
            residual = AmalgamSpectrum(next(transforms).T, slack)
            error = float(amalgam_norm(residual, grid))
            alpha = report.alpha
            weight = m_alpha(family, alpha) / phi_spectral(family, alpha, grid.nodes)
            bound = AmalgamSpectrum(weight * bands.values, bands.tail_estimate)
            rhs = float(amalgam_norm(bound, grid))
            report = replace(
                report,
                l2_error=l2_norm_parseval(residual, grid),
                amalgam_error=error,
                rhs_bound=rhs,
                bound_ratio=float(error / rhs) if rhs > 0.0 else 0.0,
            )
        reports.append(report)
    return reports


def sweep(
    signal: TestSignal,
    family: InterpolatorFamily,
    alpha_values: list[float],
    nodes: NodeSet,
    grid: FrequencyGrid,
    x_grid: SpatialGrid,
    m_max: int,
) -> list[ErrorReport]:
    """One `error_report` per alpha, in sweep order.

    The band samples at the nodes and the `Target` do not depend on alpha, so
    each is computed once for the whole sweep; every alpha only solves the
    collocation system for those samples (see `engine.solve_coefficients`)
    and evaluates its approximant once on the target's points, freeing it
    before the next alpha solves. The window's phase blocks do not depend on
    alpha either: after the last solve, the finishing step of `error_report`
    transforms every alpha's weighted window residual in one `band_forward`
    pass and builds the bound side's signal bands once, so each row equals
    its `error_report` bit for bit. Solver failures at one alpha do not stop
    the sweep: the failed alpha yields a NaN report flagged with the failure
    message and carrying the condition estimate of its matrix, and remaining
    values still run. Callers decide whether flagged failures are fatal.
    """
    if not alpha_values:
        raise ContractError("alpha sweep must be nonempty")
    if any(b <= a for a, b in zip(alpha_values, alpha_values[1:])):
        raise ContractError("alpha sweep must be strictly ascending")
    target = measurement_target(signal, grid, x_grid, m_max)
    samples = sample_band_signal(signal_spectrum(signal, grid, m_max).values, grid, nodes)
    measured: list[tuple[np.ndarray | None, ErrorReport]] = []
    for alpha in alpha_values:
        try:
            approx = solve_coefficients(family, alpha, nodes, samples)
            measured.append(_measure(approx, target))
            del approx  # freed before the next alpha solves
        except (ConditioningError, AccuracyError) as exc:
            failed = _report(alpha, exc.condition_estimate, flags=(f"failed: {exc}",))
            measured.append((None, failed))
    return _finish(measured, target, family)


def sweep_checks(reports: list[ErrorReport]) -> dict:
    """The run-level checks of a sweep's rows, in sweep order.

    Row counts cover every row. The embedding and monotone checks read only
    trusted rows: failed rows carry no errors, and precision-limited rows
    carry rounding noise. Each error must fall strictly from one trusted row
    to the next or be exactly 0 in both (an exact reconstruction, as of the
    zero signal), and the L2 error may exceed the amalgam error by a relative
    1e-12: ``sqrt(sum n_m^2 + t^2) <= sum n_m + t`` holds exactly, so the
    slack covers rounding only, at every error scale.
    """
    trusted = [r for r in reports if not r.flags and not r.precision_limited]
    decreasing = all(
        all(b < a or a == b == 0.0 for a, b in zip(col, col[1:]))
        for col in (
            [r.l2_error for r in trusted],
            [r.amalgam_error for r in trusted],
            [r.sup_error for r in trusted],
        )
    )
    return {
        "rows": len(reports),
        "failed_rows": sum(1 for r in reports if r.flags),
        "precision_limited_rows": sum(1 for r in reports if r.precision_limited),
        "excluded_rows": len(reports) - len(trusted),
        "embedding_l2_le_amalgam": all(
            r.l2_error <= r.amalgam_error * (1 + 1e-12) for r in trusted
        ),
        "errors_strictly_decreasing": decreasing,
    }


def quadrature_checks(signal: TestSignal, grid: FrequencyGrid, m_max: int) -> dict:
    """The quadrature self-check: the relative change of the signal's amalgam
    norm over bands ``|m| <= m_max`` from the run's `grid` to one refined by
    `QUADRATURE_REFINEMENT`, its panels halved."""
    fine = halved_panels(grid)
    a = amalgam_norm(signal_spectrum(signal, grid, m_max), grid)
    b = amalgam_norm(signal_spectrum(signal, fine, m_max), fine)
    return {
        "quadrature_refinement_factor": QUADRATURE_REFINEMENT,
        "quadrature_drift": abs(a - b) / (abs(b) or 1.0),
    }


def run_verdict(checks: dict) -> bool:
    """``checks.all_pass`` of any run: every boolean check holds,
    ``failed_rows`` is 0 and ``quadrature_drift`` is at most `DRIFT_TOL`, each
    where present. Counts and numbers with no a-priori bound are not judged."""
    return bool(
        all(value for value in checks.values() if isinstance(value, bool))
        and not checks.get("failed_rows", 0)
        and checks.get("quadrature_drift", 0.0) <= DRIFT_TOL
    )


def pointwise_values(
    signal: TestSignal,
    family: InterpolatorFamily,
    alpha: float,
    nodes: NodeSet,
    grid: FrequencyGrid,
    m_max: int,
    xs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(f, J)`` at the points `xs`: the reference values and ``J_alpha f``.

    The reference is the signal's closed spatial form when it has one, and
    otherwise the band-truncated signal, the target the approximant is built
    against (see `truncated_signal_values`). The approximant is freed before
    the reference is evaluated.
    """
    j_vals = evaluate_J(reconstruct(signal, family, alpha, nodes, grid, m_max), xs)
    if signal.f is not None:
        f_vals = np.asarray(signal.f(xs), dtype=complex)
    else:
        f_vals = truncated_signal_values(signal, grid, m_max, xs)
    return f_vals, j_vals
