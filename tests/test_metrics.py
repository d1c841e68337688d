"""Interior-window error functionals and the alpha sweep."""

import dataclasses

import numpy as np
import pytest

from pwamalgam import (
    ContractError,
    evaluate_J,
    error_report,
    frequency_grid,
    get_family,
    get_signal,
    m_alpha,
    perturbed_nodes,
    phi_spectral,
    reconstruct,
    spatial_grid,
    sweep,
    uniform_nodes,
)
from pwamalgam import engine, kernels, metrics, signals, spectral
from pwamalgam.engine import PRECISION_CAP
from pwamalgam.errors import AccuracyError, ConditioningError
from pwamalgam.metrics import (
    DRIFT_TOL,
    J_MARGIN,
    ErrorReport,
    measurement_target,
    pointwise_values,
    quadrature_checks,
    run_verdict,
    sweep_checks,
    truncated_signal_values,
    window_quadrature,
)

from .memory import traced_peak

GAUSSIAN = get_family("gaussian")


def small_setup(signal_id: str, alpha: float, m_max: int = 2, n: int = 16):
    grid = frequency_grid(128)
    nodes = uniform_nodes(n)
    x_grid = spatial_grid(n / 2.0, density=10)
    signal = get_signal(signal_id)
    approx = reconstruct(signal, GAUSSIAN, alpha, nodes, grid, m_max)
    return grid, x_grid, approx, measurement_target(signal, grid, x_grid, m_max)


def test_window_quadrature_resolves_phases():
    xq, wq = window_quadrature(3.5, 6)
    assert wq.sum() == pytest.approx(7.0, rel=1e-13)
    for omega in (0.9 * 13 * np.pi, 4.0, 0.0):
        numeric = np.sum(wq * np.exp(1j * omega * xq))
        exact = 7.0 if omega == 0.0 else 2.0 * np.sin(omega * 3.5) / omega
        assert abs(numeric - exact) < 1e-10
    with pytest.raises(ContractError):
        window_quadrature(0.0, 4)


@pytest.mark.parametrize("extent", [np.inf, np.nan])
def test_window_quadrature_rejects_a_non_finite_extent(extent):
    # Once Python's OverflowError (inf) or ValueError (NaN) from the panel count.
    with pytest.raises(ContractError, match="window extent must be positive and finite"):
        window_quadrature(extent, 6)


def test_zero_signal_reports_exact_zeros():
    _, _, approx, target = small_setup("zero", 1.0)
    report = error_report(approx, target)
    assert report.l2_error == 0.0
    assert report.amalgam_error == 0.0
    assert report.sup_error == 0.0
    assert report.rhs_bound == 0.0
    assert report.bound_ratio == 0.0
    assert report.tail_slack_f == 0.0
    assert report.tail_slack_J == 0.0
    assert not report.flags


def test_error_report_rejects_a_target_of_other_m_max():
    grid, x_grid, approx, _ = small_setup("gauss_pair", 1.0, m_max=2)
    for m_max in (1, 3):
        target = measurement_target(get_signal("gauss_pair"), grid, x_grid, m_max)
        with pytest.raises(ContractError, match="M_max=2"):
            error_report(approx, target)


def test_rhs_bound_matches_closed_form():
    signal = get_signal("gauss_pair")
    grid, _, approx, target = small_setup("gauss_pair", 1.0, m_max=2)
    j_cap = 4
    report = error_report(approx, target)
    weight = m_alpha(GAUSSIAN, 1.0) / phi_spectral(GAUSSIAN, 1.0, grid.nodes)
    expected = sum(
        float(
            np.sqrt(
                np.sum(
                    grid.weights
                    * np.abs(weight * signal.fhat(grid.nodes + 2 * np.pi * j)) ** 2
                )
            )
        )
        for j in range(-j_cap, j_cap + 1)
    ) + signal.tail_bound(j_cap)
    assert report.rhs_bound == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.75, 2.5])
def test_windowed_transform_matches_direct_product(alpha):
    # error_report factors e^{-i(xi + 2 pi j) x} as e^{-i xi x} e^{-2 pi i j x};
    # the direct per-j product must give the same band norms.
    signal = get_signal("gauss_pair")
    grid, x_grid, approx, target = small_setup("gauss_pair", alpha, m_max=2)
    j_cap = 4
    report = error_report(approx, target)
    xq, wq = window_quadrature(x_grid.extent, j_cap)
    residual = truncated_signal_values(signal, grid, 2, xq) - evaluate_J(approx, xq)
    norms = []
    for j in range(-j_cap, j_cap + 1):
        phase = np.exp(-1j * np.outer(grid.nodes + 2 * np.pi * j, xq))
        transform = (2 * np.pi) ** -0.5 * (phase @ (wq * residual))
        norms.append(np.sqrt(np.sum(grid.weights * np.abs(transform) ** 2)))
    tails = report.tail_slack_f + report.tail_slack_J
    # The band norms carry the error, so the comparison below tests them.
    assert sum(norms) > 10.0 * tails
    assert report.amalgam_error == pytest.approx(sum(norms) + tails, rel=1e-12)
    expected_l2 = np.sqrt(sum(v**2 for v in norms) + tails**2)
    assert report.l2_error == pytest.approx(expected_l2, rel=1e-12)


def test_embedding_and_tail_accounting():
    signal = get_signal("cauchy_decay")
    _, _, approx, target = small_setup("cauchy_decay", 1.0, m_max=2)
    report = error_report(approx, target)
    assert report.l2_error <= report.amalgam_error + 1e-10
    # Polynomial decay leaves visible truncation slack in both accounts.
    assert report.tail_slack_f == pytest.approx(signal.tail_bound(2), rel=1e-12)
    assert report.tail_slack_J > 0
    assert report.amalgam_error >= report.tail_slack_f + report.tail_slack_J


def test_single_band_signal_has_no_signal_tail():
    _, _, approx, target = small_setup("tri_band", 1.0, m_max=2)
    report = error_report(approx, target)
    assert report.tail_slack_f == 0.0
    assert report.sup_error < 1e-2
    assert not report.precision_limited


def test_sweep_errors_decrease_for_gauss_pair():
    grid = frequency_grid(128)
    nodes = uniform_nodes(16)
    x_grid = spatial_grid(8.0, density=10)
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, [0.75, 1.25, 1.75], nodes, grid,
        x_grid, 2,
    )
    assert [r.alpha for r in reports] == [0.75, 1.25, 1.75]
    for prev, curr in zip(reports, reports[1:]):
        assert curr.amalgam_error < prev.amalgam_error
        assert curr.l2_error < prev.l2_error
        assert curr.sup_error < prev.sup_error
    for r in reports:
        assert r.l2_error <= r.amalgam_error + 1e-10
        assert not r.flags


def test_sweep_records_breakdown_and_continues():
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    x_grid = spatial_grid(8.0, density=10)
    reports = sweep(
        get_signal("gauss_pair"), get_family("poisson"), [8.0, 16.0], nodes,
        grid, x_grid, 1,
    )
    ok, broken = reports
    assert not ok.flags
    assert np.isfinite(ok.amalgam_error)
    assert broken.flags
    assert "failed" in broken.flags[0]
    assert np.isnan(broken.amalgam_error)
    assert broken.condition_estimate > 1e15
    assert broken.precision_limited


def test_sweep_keeps_condition_estimate_on_accuracy_failures(monkeypatch):
    monkeypatch.setattr(engine, "SOLVER_TOL", 1e-15)
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    x_grid = spatial_grid(8.0, density=10)
    (report,) = sweep(
        get_signal("gauss_pair"), GAUSSIAN, [2.5], nodes, grid, x_grid, 1
    )
    assert report.flags and "residual" in report.flags[0]
    assert np.isnan(report.amalgam_error)
    assert np.isfinite(report.condition_estimate)
    assert 1.0 < report.condition_estimate <= PRECISION_CAP


def test_sweep_flags_precision_limited_rows():
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    x_grid = spatial_grid(8.0, density=10)
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, [3.0], nodes, grid, x_grid, 1
    )
    assert reports[0].precision_limited
    assert not reports[0].flags
    assert np.isfinite(reports[0].amalgam_error)


@pytest.mark.parametrize(
    "family_id, alphas, kinds",
    [
        ("gaussian", [1.0, 2.0, 3.0], ["ok", "ok", "limited"]),
        ("gaussian", [0.75, 2.5, 2.75, 3.0], ["ok", "ok", "failed", "limited"]),
        ("poisson", [4.0, 8.0, 16.0], ["ok", "ok", "failed"]),
    ],
    ids=["gaussian", "gaussian-accuracy-failure", "poisson-breakdown"],
)
def test_sweep_rows_are_error_reports_against_one_target(family_id, alphas, kinds):
    # sweep samples the bands once, solves each alpha, and transforms the
    # window residuals of all its alphas in one pass, so its rows are
    # reconstruct + error_report per alpha against one shared target. A
    # failed row has no residual, so each row after it must still be matched
    # with its own transform. The gaussian alpha = 3 row is precision-limited
    # at N = 32; 2.75 fails the residual check, and poisson 16 breaks down.
    family = get_family(family_id)
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    x_grid = spatial_grid(8.0, density=10)
    signal = get_signal("gauss_pair")
    rows = sweep(signal, family, alphas, nodes, grid, x_grid, 1)
    target = measurement_target(signal, grid, x_grid, 1)
    assert [
        "failed" if r.flags else "limited" if r.precision_limited else "ok" for r in rows
    ] == kinds
    for row, alpha in zip(rows, alphas):
        try:
            approx = reconstruct(signal, family, alpha, nodes, grid, 1)
        except (ConditioningError, AccuracyError) as exc:
            assert row.flags == (f"failed: {exc}",)
            assert row.condition_estimate == exc.condition_estimate
            assert np.isnan(row.amalgam_error) and np.isnan(row.l2_error)
            continue
        assert dataclasses.asdict(row) == dataclasses.asdict(error_report(approx, target))


def test_sweep_transforms_the_window_once(monkeypatch):
    # One forward transform for the sweep, over the residuals of the alphas
    # that solved (2.75 fails), not one per alpha.
    shapes = []
    original = metrics.band_forward

    def counting(weighted, *args):
        shapes.append(weighted.shape)
        return original(weighted, *args)

    monkeypatch.setattr(metrics, "band_forward", counting)
    x_grid = spatial_grid(8.0, density=10)
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, [0.75, 1.25, 2.75, 3.0],
        uniform_nodes(32), frequency_grid(128), x_grid, 1,
    )
    assert [bool(r.flags) for r in reports] == [False, False, True, False]
    assert shapes == [(3, len(window_quadrature(x_grid.extent, 1 + J_MARGIN)[0]))]


def test_sweep_input_validation():
    grid = frequency_grid(64)
    nodes = uniform_nodes(4)
    x_grid = spatial_grid(2.0, density=5)
    with pytest.raises(ContractError):
        sweep(get_signal("zero"), GAUSSIAN, [], nodes, grid, x_grid, 1)
    with pytest.raises(ContractError):
        sweep(get_signal("zero"), GAUSSIAN, [2.0, 1.0], nodes, grid, x_grid, 1)


def test_error_report_peak_memory_is_one_transform_block():
    # The N = 256 sweep row. The forward transform holds one phase block of
    # ROW_BLOCK rows over the window at a time, with the cos/sin angles of its
    # half and the modulated residual columns; that block is gone before the
    # kernel blocks of the spatial-grid evaluation are built. Holding the
    # last block over that evaluation, or one block over the build of the
    # next, read about 4.4 MiB with 128-row blocks.
    grid = frequency_grid(256)
    signal = get_signal("gauss_pair")
    target = measurement_target(signal, grid, spatial_grid(16.0, 20), 4)
    approx = reconstruct(signal, GAUSSIAN, 2.5, uniform_nodes(256), grid, 4)
    item = np.dtype(complex).itemsize
    block_bytes = engine.ROW_BLOCK * len(target.wq) * item
    modulated_bytes = len(target.wq) * (2 * (4 + J_MARGIN) + 1) * item
    peak = traced_peak(lambda: error_report(approx, target))
    assert peak <= 1.5 * block_bytes + 2 * modulated_bytes


def test_sweep_frees_each_approximant_before_the_next_solve():
    # An N = 256 approximant is 9 x 513 complex coefficients (74 KB). Held
    # while the next alpha solves, it lifts a two-alpha sweep above a sweep of
    # the second alpha alone. The narrow window keeps each row's solve, not
    # its error report, the peak of the row.
    grid = frequency_grid(256)
    nodes = uniform_nodes(256)
    x_grid = spatial_grid(4.0, 20)
    signal = get_signal("gauss_pair")

    def peak(alphas):
        sweep(signal, GAUSSIAN, alphas, nodes, grid, x_grid, 4)  # warm
        return traced_peak(lambda: sweep(signal, GAUSSIAN, alphas, nodes, grid, x_grid, 4))

    assert peak([1.25, 2.5]) <= peak([2.5]) + 10 * 1024


def test_sweep_samples_the_bands_once(monkeypatch):
    # Only the kernel changes with alpha: the band samples at the nodes are
    # one `band_inverse` call per sweep, not one per alpha. The target's
    # inversions go through `spectral.inverse_ft_at`, which binds its own
    # `band_inverse`, so they are not counted here.
    calls = []
    original = signals.band_inverse

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(signals, "band_inverse", counting)
    grid = frequency_grid(128)
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, [0.75, 1.25, 1.75, 2.25],
        uniform_nodes(16), grid, spatial_grid(8.0, density=10), 2,
    )
    assert len(reports) == 4 and not any(r.flags for r in reports)
    assert len(calls) == 1


@pytest.mark.parametrize("alphas", [[1.25], [0.75, 1.25, 1.75, 2.25]])
def test_sweep_measures_each_alpha_in_one_evaluation(monkeypatch, alphas):
    # The target is one point set, the window quadrature and then the spatial
    # grid, inverted once per sweep; each alpha evaluates its approximant on
    # it once.
    calls = {"evaluate_J": 0, "truncated_signal_values": 0}

    def counted(name):
        original = getattr(metrics, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(metrics, name, counting)

    counted("evaluate_J")
    counted("truncated_signal_values")
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, alphas,
        uniform_nodes(16), frequency_grid(128), spatial_grid(8.0, density=10), 2,
    )
    assert len(reports) == len(alphas) and not any(r.flags for r in reports)
    assert calls == {"evaluate_J": len(alphas), "truncated_signal_values": 1}


@pytest.mark.parametrize("alphas", [[1.25], [0.75, 1.25, 1.75, 2.25]])
def test_sweep_builds_the_bound_side_spectrum_once(monkeypatch, alphas):
    # The bound side weighs the signal's bands up to j_cap by an alpha's
    # kernel; the bands themselves do not depend on alpha, so a sweep builds
    # them once, after the last solve.
    m_max = 2
    caps = []
    original = metrics.signal_spectrum

    def counting(signal, grid, m):
        caps.append(m)
        return original(signal, grid, m)

    monkeypatch.setattr(metrics, "signal_spectrum", counting)
    reports = sweep(
        get_signal("gauss_pair"), GAUSSIAN, alphas,
        uniform_nodes(16), frequency_grid(128), spatial_grid(8.0, density=10), m_max,
    )
    assert len(reports) == len(alphas) and not any(r.flags for r in reports)
    assert caps.count(m_max + J_MARGIN) == 1


def test_target_is_the_spatial_grid_between_the_window_halves():
    signal = get_signal("gauss_pair")
    grid = frequency_grid(128)
    x_grid = spatial_grid(8.0, density=10)
    target = measurement_target(signal, grid, x_grid, 2)
    xq, wq = window_quadrature(x_grid.extent, 2 + J_MARGIN)
    half = len(xq) // 2
    assert np.array_equal(target.wq, wq)
    assert np.array_equal(target.points, np.concatenate([xq[:half], x_grid.points, xq[half:]]))
    assert np.array_equal(target.points[target.spatial], x_grid.points)
    assert np.array_equal(np.delete(target.points, target.spatial), xq)
    assert target.values.tobytes() == (
        truncated_signal_values(signal, grid, 2, target.points).tobytes()
    )
    assert target.tail_f == signal.tail_bound(2)


@pytest.mark.parametrize(
    "extent, density, points", [(16.0, 20, 256), (8.0, 10, 128)], ids=["sweeps", "T8"]
)
def test_target_is_one_mirrored_point_set(extent, density, points):
    # Every committed sweep's target (T_int 16, density 20) and the tests'
    # narrow one: the signal is inverted, and each alpha's approximant
    # evaluated, on half of its points and their mirrors.
    target = measurement_target(
        get_signal("gauss_pair"), frequency_grid(points), spatial_grid(extent, density), 4
    )
    assert np.array_equal(target.points, -target.points[::-1])
    assert spectral._mirrored_rows(target.points) == len(target.points) // 2


@pytest.mark.parametrize("signal_id", ["gauss_pair", "two_band"])
def test_pointwise_values_are_the_approximant_and_its_reference(signal_id):
    # gauss_pair has a closed spatial form, which is the reference; two_band
    # has none, and is compared against its band-truncated signal.
    signal = get_signal(signal_id)
    grid = frequency_grid(128)
    nodes = perturbed_nodes(16, 0.2, 5)
    xs = spatial_grid(8.0, density=10).points
    f, J = pointwise_values(signal, GAUSSIAN, 1.5, nodes, grid, 2, xs)
    approx = reconstruct(signal, GAUSSIAN, 1.5, nodes, grid, 2)
    assert J.tobytes() == evaluate_J(approx, xs).tobytes()
    if signal_id == "gauss_pair":
        expected = np.asarray(signal.f(xs), dtype=complex)
    else:
        assert signal.f is None
        expected = truncated_signal_values(signal, grid, 2, xs)
    assert f.dtype == complex
    assert f.tobytes() == expected.tobytes()


def measured_row(alpha, error, *, l2_error=None, precision_limited=False):
    """A hand-built sweep row: all three errors `error`, unless `l2_error`."""
    return ErrorReport(
        alpha=alpha,
        l2_error=error if l2_error is None else l2_error,
        amalgam_error=error,
        sup_error=error,
        condition_estimate=PRECISION_CAP * 10 if precision_limited else 1e3,
        precision_limited=precision_limited,
    )


def test_sweep_checks_skip_a_precision_limited_row():
    rows = [
        measured_row(1.0, 1e-2),
        measured_row(2.0, 1e-3),
        measured_row(3.0, 5e-2, precision_limited=True),
        measured_row(4.0, 1e-4),
    ]
    assert sweep_checks(rows) == {
        "rows": 4,
        "failed_rows": 0,
        "precision_limited_rows": 1,
        "excluded_rows": 1,
        "embedding_l2_le_amalgam": True,
        "errors_strictly_decreasing": True,
    }
    # The same rising errors on a trusted row break the monotone check.
    rows[2] = measured_row(3.0, 5e-2)
    assert not sweep_checks(rows)["errors_strictly_decreasing"]


def test_sweep_checks_count_a_failed_row_and_skip_it():
    failed = ErrorReport(alpha=2.0, condition_estimate=1e5, flags=("failed: breakdown",))
    checks = sweep_checks([measured_row(1.0, 1e-2), failed, measured_row(3.0, 1e-3)])
    assert (checks["rows"], checks["failed_rows"], checks["excluded_rows"]) == (3, 1, 1)
    assert checks["precision_limited_rows"] == 0
    assert checks["embedding_l2_le_amalgam"] and checks["errors_strictly_decreasing"]
    # A failed row that is also precision-limited is excluded once.
    failed = dataclasses.replace(failed, precision_limited=True)
    checks = sweep_checks([measured_row(1.0, 1e-2), failed])
    assert (checks["failed_rows"], checks["precision_limited_rows"]) == (1, 1)
    assert checks["excluded_rows"] == 1


def test_sweep_checks_a_tie_is_not_a_decrease():
    rows = [measured_row(1.0, 1e-2), measured_row(2.0, 1e-2)]
    assert not sweep_checks(rows)["errors_strictly_decreasing"]
    # One tied column is enough.
    rows[1] = dataclasses.replace(rows[1], l2_error=1e-3, amalgam_error=1e-3)
    assert not sweep_checks(rows)["errors_strictly_decreasing"]


def test_sweep_checks_exact_zeros_are_not_a_rise():
    # An exact reconstruction, as of the zero signal, cannot fall below 0.
    zeros = [measured_row(1.0, 0.0), measured_row(2.0, 0.0), measured_row(3.0, 0.0)]
    assert sweep_checks(zeros)["errors_strictly_decreasing"]
    assert sweep_checks([measured_row(1.0, 1e-2), *zeros[1:]])["errors_strictly_decreasing"]
    # Rows that stall at an equal non-zero error still fail, at any scale.
    for error in (1e-2, 5e-324):
        stalled = [measured_row(1.0, 1e-1), measured_row(2.0, error), measured_row(3.0, error)]
        assert not sweep_checks(stalled)["errors_strictly_decreasing"]
    # A rise from exactly 0 fails too.
    rising = [measured_row(1.0, 0.0), measured_row(2.0, 1e-300)]
    assert not sweep_checks(rising)["errors_strictly_decreasing"]


def test_sweep_checks_embedding_slack_is_relative_1e_12():
    amalgam = 1e-3
    held = [measured_row(1.0, amalgam, l2_error=amalgam * (1 + 5e-13))]
    broken = [measured_row(1.0, amalgam, l2_error=amalgam * (1 + 2e-12))]
    assert sweep_checks(held)["embedding_l2_le_amalgam"]
    assert not sweep_checks(broken)["embedding_l2_le_amalgam"]
    # The slack scales with the errors, so rows near rounding level are checked too.
    tiny = [measured_row(1.0, 1e-13, l2_error=2e-13)]
    assert not sweep_checks(tiny)["embedding_l2_le_amalgam"]


PASSING_SWEEP = {
    **sweep_checks([measured_row(1.0, 1e-2), measured_row(2.0, 1e-3)]),
    "quadrature_refinement_factor": 2,
    "quadrature_drift": 2.3e-15,
}


def test_run_verdict_passes_a_clean_sweep_and_reconstruct():
    assert run_verdict(PASSING_SWEEP) is True
    reconstruct = {"alpha": 1.0, "points": 161, "max_pointwise_error": 0.5}
    assert run_verdict({**reconstruct, "quadrature_drift": DRIFT_TOL}) is True
    # Counts and unbounded numbers are not judged.
    assert run_verdict({**PASSING_SWEEP, "excluded_rows": 3, "precision_limited_rows": 3})


@pytest.mark.parametrize(
    "change",
    [
        {"failed_rows": 1},
        {"embedding_l2_le_amalgam": False},
        {"errors_strictly_decreasing": False},
        {"quadrature_drift": np.nextafter(DRIFT_TOL, 1.0)},
        {"quadrature_drift": np.nan},
        {"errors_strictly_decreasing": np.False_},
    ],
    ids=["failed_row", "embedding", "decreasing", "drift_above_tol", "drift_nan", "numpy_false"],
)
def test_run_verdict_fails_on_each_part_alone(change):
    assert run_verdict({**PASSING_SWEEP, **change}) is False


def test_run_verdict_reads_every_regularity_flag():
    family = get_family("gaussian")
    checks = kernels.regularity_checks(family, kernels.verify_regularity(family, [0.5, 3.0]))
    assert run_verdict(checks) is True
    for flag in ("A2", "A3", "H2", "H3_monotone", "H3_final"):
        assert run_verdict({**checks, flag: False}) is False
    assert run_verdict({**checks, "precision_boundary_alpha": None}) is True


def test_drift_tol_is_pinned():
    # Every committed config drifts by at most 2.3e-15; a looser bound would
    # pass grids that do not resolve their signal.
    assert DRIFT_TOL == 1e-12


def test_quadrature_checks_of_the_zero_signal():
    # Both norms are 0: the drift divides by 1, not by the refined norm.
    checks = quadrature_checks(get_signal("zero"), frequency_grid(64), 2)
    assert checks == {"quadrature_refinement_factor": 2, "quadrature_drift": 0.0}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 12: K=256 resolves band samples only to |x|≈132",
)
def test_pointwise_values_are_resolved_across_256_integer_nodes():
    # The band samples at |x_n| >= 135 are wrong by up to 0.24, and J follows
    # them: |f - J| is 1.45e-4 at x = 150 and 0.147 at x = 200, where f is
    # about 0, against at most 2.2e-14 for |x| <= 100.
    f, J = pointwise_values(
        get_signal("gauss_pair"),
        GAUSSIAN,
        1.25,
        uniform_nodes(256),
        frequency_grid(256),
        4,
        np.array([200.0]),
    )
    assert abs(f[0] - J[0]) < 1e-6
