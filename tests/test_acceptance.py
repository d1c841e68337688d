"""End-to-end acceptance checks at the advertised tolerances.

Each test computes its verdict, prints a ``criterion NN PASS/FAIL`` line
(echoed in the terminal summary by conftest), and only then asserts, so a
red run still reports a line for every criterion.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import pwamalgam as pw
from pwamalgam.cli import main

from .acceptance_report import record
from .oracles import conjugate_gradient_complex, transform_by_quadrature

DOMAINS = (("gaussian", 0.5, 3.0), ("poisson", 1.0, 8.0))

SWEEP_ALPHAS = [0.75, 1.25, 1.75, 2.5]
# gauss_pair keeps a strictly positive spectrum at the band edge, so its
# achievable fold over this alpha range saturates near 2.5 (observed folds
# 2.46 / 2.65 / 2.97 across the three error columns); its floor sits below
# those with margin. two_band vanishes at its band edges and folds by more
# than 800, so it carries a much stricter floor.
FOLD_FLOOR = {"gauss_pair": 2.0, "two_band": 5.0}

_trend_cache: dict[str, object] = {}


def trend_sweeps():
    """Criterion-5 sweeps, computed once and shared with criterion 6."""
    if "rows" not in _trend_cache:
        start = time.monotonic()
        family = pw.get_family("gaussian")
        nodes = pw.uniform_nodes(32)
        grid = pw.frequency_grid(256)
        x_grid = pw.spatial_grid(16.0, 20)
        _trend_cache["rows"] = {
            signal_id: pw.sweep(
                pw.get_signal(signal_id), family, SWEEP_ALPHAS, nodes, grid,
                x_grid, m_max=4, j_cap=6,
            )
            for signal_id in FOLD_FLOOR
        }
        _trend_cache["seconds"] = time.monotonic() - start
    return _trend_cache["rows"], _trend_cache["seconds"]


def test_criterion_01_regularity_certificates():
    start = time.monotonic()
    ok = True
    for family_id, lo, hi in DOMAINS:
        family = pw.get_family(family_id)
        reports = pw.verify_regularity(family, np.linspace(lo, hi, 6).tolist())
        verdict = pw.regularity_verdict(reports)
        ok = ok and all(verdict.values())
        ok = ok and all(r.delta_estimate > 0 for r in reports)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert record(1, ok, "regularity certificates hold on both families", elapsed)


def test_criterion_02_transform_matches_quadrature():
    start = time.monotonic()
    worst = 0.0
    xi_grid = np.linspace(-3.0 * np.pi, 3.0 * np.pi, 20)
    for family_id, lo, hi in DOMAINS:
        family = pw.get_family(family_id)
        for alpha in np.linspace(lo, hi, 20):
            for xi in xi_grid:
                direct = transform_by_quadrature(family_id, alpha, xi)
                value = float(pw.phi_spectral(family, alpha, float(xi)))
                worst = max(worst, abs(value - direct))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    assert record(
        2, ok, f"spectra match direct quadrature (max dev {worst:.1e})", elapsed
    )


def test_criterion_03_interpolation_exactness():
    start = time.monotonic()
    family = pw.get_family("gaussian")
    nodes = pw.uniform_nodes(32)
    grid = pw.frequency_grid(128)
    ok = True
    for signal in pw.builtin_signals():
        bands = pw.signal_spectrum(signal, grid, 4).values
        for m in range(-4, 5):
            samples = pw.sample_band_signal(bands[m + 4 : m + 5], grid, nodes)
            approx = pw.solve_coefficients(family, 1.0, nodes, samples)
            values = pw.evaluate_J(approx, nodes.values)
            residual = float(np.max(np.abs(values - samples[0])))
            ok = ok and residual <= 1e-9 * (1.0 + float(np.max(np.abs(samples))))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert record(3, ok, "band interpolants match every sample at the nodes", elapsed)


def test_criterion_04_solver_matches_iterative_oracle():
    start = time.monotonic()
    family = pw.get_family("gaussian")
    grid = pw.frequency_grid(128)
    bands = pw.signal_spectrum(pw.get_signal("gauss_pair"), grid, 1).values
    ok = True
    for half_width in (8, 32):
        nodes = pw.uniform_nodes(half_width)
        matrix = pw.collocation_matrix(family, 1.0, nodes)
        for m in (0, 1):
            samples = pw.sample_band_signal(bands[m + 1 : m + 2], grid, nodes)
            dense = pw.solve_coefficients(family, 1.0, nodes, samples).coefficients[0]
            oracle = conjugate_gradient_complex(matrix, samples[0], tol=1e-14)
            rel = np.linalg.norm(dense - oracle) / np.linalg.norm(dense)
            ok = ok and rel <= 1e-8
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert record(4, ok, "dense and conjugate-gradient coefficients agree", elapsed)


def test_criterion_05_errors_fold_along_the_sweep():
    rows, elapsed = trend_sweeps()
    ok = elapsed < 60.0
    for signal_id, floor in FOLD_FLOOR.items():
        reports = rows[signal_id]
        ok = ok and not any(r.flags for r in reports)
        for column in ("l2_error", "amalgam_error", "sup_error"):
            series = [getattr(r, column) for r in reports]
            ok = ok and all(b < a for a, b in zip(series, series[1:]))
            ok = ok and series[0] / series[-1] >= floor
    assert record(5, ok, "all three error columns fold monotonically", elapsed)


def test_criterion_06_bound_ratio_and_embedding():
    rows, _ = trend_sweeps()
    ok = True
    for reports in rows.values():
        ratios = [r.bound_ratio for r in reports]
        ok = ok and max(ratios) / min(ratios) < 10.0
        ok = ok and all(r.l2_error <= r.amalgam_error + 1e-10 for r in reports)
    assert record(6, ok, "bound ratio within one decade; embedding holds")


def test_criterion_07_single_band_signal_reduces_to_one_interpolant():
    family = pw.get_family("gaussian")
    nodes = pw.uniform_nodes(32)
    grid = pw.frequency_grid(256)
    signal = pw.get_signal("tri_band")
    approx = pw.reconstruct(signal, family, 1.0, nodes, grid, m_max=4)
    side_bands_zero = np.all(np.delete(approx.coefficients, approx.m_max, axis=0) == 0.0)
    # A one-row solve of band 0 alone is the baseband interpolant.
    band0 = pw.signal_spectrum(signal, grid, 0).values
    samples = pw.sample_band_signal(band0, grid, nodes)
    interpolant = pw.solve_coefficients(family, 1.0, nodes, samples)
    xs = pw.spatial_grid(16.0, 20).points
    assembled = pw.evaluate_J(approx, xs)
    baseband = pw.evaluate_J(interpolant, xs)
    identical = float(np.max(np.abs(assembled - baseband))) == 0.0
    ok = side_bands_zero and identical
    assert record(7, ok, "single-band signal reduces to the baseband interpolant")


def test_criterion_08_real_signals_stay_real():
    start = time.monotonic()
    family = pw.get_family("gaussian")
    nodes = pw.perturbed_nodes(32, d=0.2, seed=7, symmetric=True)
    grid = pw.frequency_grid(256)
    xs = pw.spatial_grid(16.0, 20).points
    ok = True
    for signal in pw.builtin_signals():
        if not signal.is_real:
            continue
        approx = pw.reconstruct(signal, family, 1.0, nodes, grid, m_max=4)
        values = pw.evaluate_J(approx, xs)
        sup_f = float(np.max(np.abs(signal.f(xs))))
        ok = ok and float(np.max(np.abs(values.imag))) <= 1e-10 * (1.0 + sup_f)
    elapsed = time.monotonic() - start
    assert record(8, ok, "real signals stay real on symmetric nodes", elapsed)


def test_criterion_09_node_count_insensitivity():
    start = time.monotonic()
    family = pw.get_family("gaussian")
    grid = pw.frequency_grid(256)
    x_grid = pw.spatial_grid(16.0, 20)
    signal = pw.get_signal("gauss_pair")
    reports = {}
    for half_width in (32, 48):
        nodes = pw.uniform_nodes(half_width)
        reports[half_width] = pw.sweep(
            signal, family, [1.5], nodes, grid, x_grid, m_max=4, j_cap=6
        )[0]
    ok = True
    for column in ("l2_error", "amalgam_error", "sup_error"):
        a = getattr(reports[32], column)
        b = getattr(reports[48], column)
        ok = ok and abs(a - b) <= 0.10 * max(abs(a), abs(b))
    elapsed = time.monotonic() - start
    assert record(9, ok, "interior-window errors stable under extra nodes", elapsed)


DETERMINISM_CONFIG = {
    "family": {"id": "gaussian"},
    "alpha_sweep": {"values": [0.75, 1.25]},
    "nodes": {"N": 16, "d": 0.1, "seed": 3, "symmetric": True},
    "bands": {"M_max": 2, "points_per_band": 128},
    "signal": {"id": "gauss_pair"},
    "spatial": {"T_int": 8.0, "density": 10},
    "output": {"directory": "."},
}


def _run_sweep_csv(tmp_path, tag):
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(DETERMINISM_CONFIG), encoding="utf-8")
    out = tmp_path / tag
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        return None
    return (out / "convergence.csv").read_bytes()


def test_criterion_10_byte_identical_csv(tmp_path):
    start = time.monotonic()
    runs = [_run_sweep_csv(tmp_path, f"run_{i}") for i in range(2)]
    ok = runs[0] is not None and all(body == runs[0] for body in runs)
    elapsed = time.monotonic() - start
    assert record(10, ok, "sweep CSV bytes identical across runs", elapsed)
