"""Collocation solves, approximant assembly, and spectral bookkeeping."""

import numpy as np
import pytest

from pwamalgam import (
    AccuracyError,
    Approximant,
    ConditioningError,
    ContractError,
    J_spectrum_band,
    band_slice,
    collocation_matrix,
    evaluate_J,
    frequency_grid,
    get_family,
    get_signal,
    interpolant_spatial,
    interpolant_spectral,
    perturbed_nodes,
    reconstruct,
    sample_band_signal,
    solve_coefficients,
    uniform_nodes,
)
from pwamalgam.engine import PRECISION_CAP
from .oracles import conjugate_gradient_complex

GAUSSIAN = get_family("gaussian")
POISSON = get_family("poisson")


def band_samples(signal_id: str, m: int, nodes, grid):
    band = band_slice(get_signal(signal_id), m, grid)
    return sample_band_signal(band, grid, nodes)


def test_collocation_matrix_structure():
    nodes = uniform_nodes(3)
    matrix = collocation_matrix(GAUSSIAN, 1.0, nodes)
    assert matrix.shape == (7, 7)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)
    assert matrix[0, 1] == pytest.approx(np.exp(-0.25), rel=1e-15)


def test_interpolation_conditions_hold():
    grid = frequency_grid(256)
    nodes = uniform_nodes(16)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    coeffs = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    at_nodes = interpolant_spatial(coeffs, GAUSSIAN, nodes, nodes.values)
    scale = 1.0 + float(np.max(np.abs(samples)))
    assert np.max(np.abs(at_nodes - samples)) <= 1e-9 * scale
    assert coeffs.diagnostics.max_residual <= 1e-9 * scale
    assert coeffs.diagnostics.condition_estimate > 1.0


def test_zero_samples_give_exact_zero_coefficients():
    nodes = uniform_nodes(8)
    samples = np.zeros(nodes.count, dtype=complex)
    coeffs = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    assert np.all(coeffs.values == 0.0)
    assert coeffs.diagnostics.max_residual == 0.0


def test_solve_is_linear_in_samples():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    samples = band_samples("gauss_pair", 1, nodes, grid)
    c = 1.5 - 2.0j
    base = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    scaled = solve_coefficients(GAUSSIAN, 1.0, nodes, c * samples)
    assert np.max(np.abs(scaled.values - c * base.values)) < 1e-12 * np.max(
        np.abs(base.values)
    )


def test_sample_count_mismatch_rejected():
    nodes = uniform_nodes(4)
    with pytest.raises(ContractError):
        solve_coefficients(GAUSSIAN, 1.0, nodes, np.zeros(3, dtype=complex))


def test_stacked_solve_needs_one_band_index_per_row():
    grid = frequency_grid(128)
    nodes = uniform_nodes(4)
    samples = np.array([band_samples("gauss_pair", m, nodes, grid) for m in (0, 1)])
    solved = solve_coefficients(GAUSSIAN, 1.0, nodes, samples, band_index=[0, 1])
    assert [c.band_index for c in solved] == [0, 1]
    with pytest.raises(ContractError):
        solve_coefficients(GAUSSIAN, 1.0, nodes, samples, band_index=[0, 1, 2])
    with pytest.raises(ContractError):
        solve_coefficients(GAUSSIAN, 1.0, nodes, samples, band_index=0)


def test_conditioning_breakdown_raises():
    # Deep in the poisson domain the collocation matrix loses numerical
    # positive definiteness and the factorization must fail loudly.
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    with pytest.raises(ConditioningError) as excinfo:
        solve_coefficients(POISSON, 16.0, nodes, samples)
    assert excinfo.value.condition_estimate > 1e15


def test_precision_limited_solves_return():
    # At the gaussian domain top the condition estimate crosses the trust
    # cap; the solve returns with diagnostics instead of raising.
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    coeffs = solve_coefficients(GAUSSIAN, 3.0, nodes, samples)
    assert coeffs.diagnostics.condition_estimate > PRECISION_CAP


def test_accuracy_error_below_cap():
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    with pytest.raises(AccuracyError) as excinfo:
        solve_coefficients(GAUSSIAN, 2.5, nodes, samples, tol=1e-15)
    assert excinfo.value.residual > 0
    # The estimate comes from the eigenvalues, not an SVD: both give the
    # 2-norm condition number, to rounding that grows like eps * cond.
    condition = np.linalg.cond(collocation_matrix(GAUSSIAN, 2.5, nodes))
    eps = np.finfo(float).eps
    assert abs(excinfo.value.condition_estimate - condition) / condition <= 64 * eps * condition
    assert excinfo.value.condition_estimate <= PRECISION_CAP


@pytest.mark.parametrize(
    "family, alpha",
    [(GAUSSIAN, a) for a in (0.5, 1.75, 2.5, 3.0)] + [(POISSON, a) for a in (1.0, 4.0, 8.0)],
)
@pytest.mark.parametrize("perturbed", [False, True])
def test_condition_estimate_matches_svd(family, alpha, perturbed):
    # Oracle: the singular-value ratio of np.linalg.cond. Gaussian alpha=3
    # sits above PRECISION_CAP at N=32 and must stay there.
    nodes = perturbed_nodes(32, 0.2, 7, symmetric=False) if perturbed else uniform_nodes(32)
    solved = solve_coefficients(family, alpha, nodes, np.zeros(nodes.count, dtype=complex))
    estimate = solved.diagnostics.condition_estimate
    condition = np.linalg.cond(collocation_matrix(family, alpha, nodes))
    eps = np.finfo(float).eps
    assert abs(estimate - condition) / condition <= 64 * eps * condition
    assert (estimate > PRECISION_CAP) == (condition > PRECISION_CAP)


def test_dense_solve_matches_cg_oracle():
    grid = frequency_grid(256)
    nodes = uniform_nodes(8)
    matrix = collocation_matrix(GAUSSIAN, 1.0, nodes)
    for m in (0, 1):
        samples = band_samples("gauss_pair", m, nodes, grid)
        dense = solve_coefficients(GAUSSIAN, 1.0, nodes, samples).values
        iterative = conjugate_gradient_complex(matrix, samples, tol=1e-13)
        rel = np.max(np.abs(dense - iterative)) / np.max(np.abs(dense))
        assert rel < 1e-8


def test_reconstruct_assembles_all_bands():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 2)
    assert approx.m_max == 2
    assert [c.band_index for c in approx.coefficient_sets] == [-2, -1, 0, 1, 2]
    assert approx.band(-2).band_index == -2
    with pytest.raises(ContractError):
        reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, -1)


def test_batched_reconstruct_matches_single_band_solves():
    # reconstruct solves every band against one factorization; each band must
    # come out exactly as a solve of that band alone, and the empty bands of
    # two_band must stay exact zeros.
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("two_band"), GAUSSIAN, 1.0, nodes, grid, 3)
    for coeffs in approx.coefficient_sets:
        samples = band_samples("two_band", coeffs.band_index, nodes, grid)
        single = solve_coefficients(
            GAUSSIAN, 1.0, nodes, samples, band_index=coeffs.band_index
        )
        assert np.array_equal(coeffs.values, single.values)
        assert coeffs.diagnostics == single.diagnostics
    empty = [c for c in approx.coefficient_sets if c.band_index not in (0, 1)]
    assert all(np.all(c.values == 0.0) for c in empty)


def test_approximant_coverage_validated():
    grid = frequency_grid(128)
    nodes = uniform_nodes(4)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 1)
    shuffled = (
        approx.coefficient_sets[1],
        approx.coefficient_sets[0],
        approx.coefficient_sets[2],
    )
    with pytest.raises(ContractError):
        Approximant(
            alpha=1.0, family=GAUSSIAN, nodes=nodes, coefficient_sets=shuffled
        )


def test_evaluate_j_sums_modulated_bands():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 2)
    xs = np.array([-0.9, 0.0, 1.3])
    manual = np.zeros(3, dtype=complex)
    for coeffs in approx.coefficient_sets:
        part = interpolant_spatial(coeffs, GAUSSIAN, nodes, xs)
        manual += np.exp(2j * np.pi * coeffs.band_index * xs) * part
    assert np.max(np.abs(evaluate_J(approx, xs) - manual)) < 1e-14
    scalar = evaluate_J(approx, 0.0)
    assert isinstance(scalar, complex)
    assert scalar == evaluate_J(approx, np.array([0.0]))[0]


def test_interpolant_spectral_matches_spatial_quadrature():
    # The closed-form transform of the interpolant agrees with a direct
    # windowed transform of its spatial values; the gaussian tails beyond
    # |x| = 40 are far below the tolerance.
    grid = frequency_grid(128)
    nodes = uniform_nodes(4)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    coeffs = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    xs, ws = np.polynomial.legendre.leggauss(800)
    xs = 40.0 * xs
    ws = 40.0 * ws
    spatial_values = interpolant_spatial(coeffs, GAUSSIAN, nodes, xs)
    for xi in (0.0, 1.0, np.pi - 0.1):
        direct = (2 * np.pi) ** -0.5 * np.sum(
            ws * spatial_values * np.exp(-1j * xi * xs)
        )
        closed = interpolant_spectral(coeffs, GAUSSIAN, nodes, xi)
        assert abs(direct - closed) < 1e-6


def test_j_spectrum_band_consistent_with_spatial_values():
    # Inverting the per-band spectra of J reproduces J pointwise: the
    # spectral bookkeeping and the spatial evaluation are two routes to the
    # same object.
    grid = frequency_grid(256)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 2)
    j_cap = 5
    for x in (0.0, 0.37, 1.5):
        total = 0.0 + 0.0j
        for j in range(-j_cap, j_cap + 1):
            band = J_spectrum_band(approx, j, grid)
            phases = np.exp(1j * x * (grid.nodes + 2 * np.pi * j))
            total += (2 * np.pi) ** -0.5 * np.sum(grid.weights * band.values * phases)
        assert abs(total - evaluate_J(approx, x)) < 1e-6
