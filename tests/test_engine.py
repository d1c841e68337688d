"""Collocation solves, approximant assembly, and spectral bookkeeping."""

import numpy as np
import pytest

from pwamalgam import (
    AccuracyError,
    Approximant,
    ConditioningError,
    ContractError,
    J_spectrum_band,
    collocation_matrix,
    condition_bound,
    evaluate_J,
    frequency_grid,
    get_family,
    get_signal,
    perturbed_nodes,
    phi_spatial,
    reconstruct,
    sample_band_signal,
    signal_spectrum,
    solve_coefficients,
    uniform_nodes,
)
from pwamalgam.engine import PRECISION_CAP
from .oracles import conjugate_gradient_complex

GAUSSIAN = get_family("gaussian")
POISSON = get_family("poisson")


def band_samples(signal_id: str, m: int, nodes, grid):
    """One band's samples as a one-row stack: the baseband of a one-row solve."""
    row = m + abs(m)  # band m of a spectrum truncated at |m|
    values = signal_spectrum(get_signal(signal_id), grid, abs(m)).values
    return sample_band_signal(values[row : row + 1], grid, nodes)


def test_collocation_matrix_structure():
    nodes = uniform_nodes(3)
    matrix = collocation_matrix(GAUSSIAN, 1.0, nodes)
    assert matrix.shape == (7, 7)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)
    assert matrix[0, 1] == pytest.approx(np.exp(-0.25), rel=1e-15)


@pytest.mark.parametrize(
    "family, alpha", [(GAUSSIAN, 1.0), (GAUSSIAN, 3.0), (POISSON, 0.5), (POISSON, 16.0)]
)
@pytest.mark.parametrize("half_width", [0, 1, 8, 32, 256])
def test_toeplitz_build_matches_difference_build(family, alpha, half_width):
    # Integer nodes take the one-row Toeplitz build; it must equal the dense
    # build from all (2N+1)^2 differences bit for bit.
    values = uniform_nodes(half_width).values
    dense = phi_spatial(family, alpha, values[:, None] - values[None, :])
    assert np.array_equal(collocation_matrix(family, alpha, uniform_nodes(half_width)), dense)


def test_interpolation_conditions_hold():
    grid = frequency_grid(256)
    nodes = uniform_nodes(16)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    approx = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    at_nodes = evaluate_J(approx, nodes.values)
    scale = 1.0 + float(np.max(np.abs(samples)))
    assert np.max(np.abs(at_nodes - samples[0])) <= 1e-9 * scale
    assert approx.residuals[0] <= 1e-9 * scale
    assert approx.condition_estimate > 1.0


def test_zero_samples_give_exact_zero_coefficients():
    nodes = uniform_nodes(8)
    samples = np.zeros((3, nodes.count), dtype=complex)
    approx = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    assert np.all(approx.coefficients == 0.0)
    assert np.all(approx.residuals == 0.0)


def test_solve_is_linear_in_samples():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    samples = band_samples("gauss_pair", 1, nodes, grid)
    c = 1.5 - 2.0j
    base = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
    scaled = solve_coefficients(GAUSSIAN, 1.0, nodes, c * samples)
    assert np.max(np.abs(scaled.coefficients - c * base.coefficients)) < 1e-12 * np.max(
        np.abs(base.coefficients)
    )


def test_sample_count_mismatch_rejected():
    nodes = uniform_nodes(4)
    for shape in ((1, 3), (3, 10)):
        with pytest.raises(ContractError):
            solve_coefficients(GAUSSIAN, 1.0, nodes, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("shape", [(9,), (2, 9)], ids=["1-D", "even-rows"])
def test_solve_needs_odd_stack_of_bands(shape):
    nodes = uniform_nodes(4)
    with pytest.raises(ContractError):
        solve_coefficients(GAUSSIAN, 1.0, nodes, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize(
    "rows, cols, residuals, bad",
    [(2, 9, 2, False), (3, 8, 3, False), (3, 9, 2, False), (3, 9, 3, True)],
    ids=["even-rows", "wrong-cols", "residual-length", "non-finite"],
)
def test_approximant_contract(rows, cols, residuals, bad):
    nodes = uniform_nodes(4)
    coefficients = np.zeros((rows, cols), dtype=complex)
    if bad:
        coefficients[1, 2] = np.nan
    with pytest.raises(ContractError):
        Approximant(
            alpha=1.0,
            family=GAUSSIAN,
            nodes=nodes,
            coefficients=coefficients,
            condition_estimate=1.0,
            residuals=np.zeros(residuals),
        )


def test_conditioning_breakdown_raises():
    # Deep in the poisson domain the collocation matrix loses numerical
    # positive definiteness and the factorization must fail loudly: at the
    # domain top, and from alpha ~ 13.25 below it (README, Conditioning).
    grid = frequency_grid(128)
    for half_width, alpha in ((32, 16.0), (128, 14.0)):
        nodes = uniform_nodes(half_width)
        samples = band_samples("gauss_pair", 0, nodes, grid)
        with pytest.raises(ConditioningError) as excinfo:
            solve_coefficients(POISSON, alpha, nodes, samples)
        # On integer nodes the estimate is the poisson symbol ratio
        # cosh(alpha pi), not the rounding noise an eigenvalue solver returns.
        expected = np.cosh(alpha * np.pi)
        assert abs(excinfo.value.condition_estimate - expected) <= 1e-12 * expected


def test_precision_limited_solves_return():
    # At the gaussian domain top the condition estimate crosses the trust
    # cap; the solve returns with diagnostics instead of raising.
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    approx = solve_coefficients(GAUSSIAN, 3.0, nodes, samples)
    assert approx.condition_estimate > PRECISION_CAP


def test_small_uniform_solve_is_flagged_by_the_size_free_bound():
    # The symbol bound does not depend on N. For the 3x3 matrix at N=1,
    # gaussian alpha=3, it reads 3.6e12 against a true condition number of
    # about 300, so the solve is flagged precision-limited and its residual
    # tolerance is not enforced (with tol=0 any nonzero residual would raise
    # below the cap). Kept on purpose: the estimate needs no decomposition.
    nodes = uniform_nodes(1)
    samples = np.array([[1.0, -2.0, 0.5]])
    approx = solve_coefficients(GAUSSIAN, 3.0, nodes, samples, tol=0.0)
    assert approx.condition_estimate == condition_bound(GAUSSIAN, 3.0)
    assert approx.condition_estimate > PRECISION_CAP
    assert np.linalg.cond(collocation_matrix(GAUSSIAN, 3.0, nodes)) < 1e3


def test_accuracy_error_below_cap():
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    with pytest.raises(AccuracyError) as excinfo:
        solve_coefficients(GAUSSIAN, 2.5, nodes, samples, tol=1e-15)
    assert excinfo.value.residual > 0
    # On integer nodes the estimate is the Toeplitz symbol bound: at or above
    # the 2-norm condition number (to rounding that grows like eps * cond),
    # and still below the cap, so the residual tolerance is enforced.
    estimate = excinfo.value.condition_estimate
    assert estimate == condition_bound(GAUSSIAN, 2.5)
    condition = np.linalg.cond(collocation_matrix(GAUSSIAN, 2.5, nodes))
    eps = np.finfo(float).eps
    assert estimate >= condition * (1 - 64 * eps * condition)
    assert estimate <= PRECISION_CAP


def test_accuracy_error_names_band_not_row():
    # With M_max=3 the first row over the forced tolerance is row 3, which
    # holds band 0: the message must name the band.
    grid = frequency_grid(128)
    with pytest.raises(AccuracyError) as excinfo:
        reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, uniform_nodes(8), grid, 3, tol=1e-15)
    assert "for band 0 at alpha=1.0" in str(excinfo.value)


@pytest.mark.parametrize(
    "family, alpha",
    [(GAUSSIAN, a) for a in (0.5, 1.75, 2.5, 3.0)] + [(POISSON, a) for a in (1.0, 4.0, 8.0)],
)
@pytest.mark.parametrize("perturbed", [False, True])
def test_condition_estimate_matches_svd(family, alpha, perturbed):
    # Oracle: the singular-value ratio of np.linalg.cond. Perturbed nodes take
    # the eigenvalue ratio, which agrees to rounding. Integer nodes take the
    # Toeplitz symbol bound: never below the oracle (every case here has
    # cond < 1e14, where the oracle is still trustworthy), and within 5% of it
    # at N=256. Gaussian alpha=3 sits above PRECISION_CAP at N=32 and must
    # stay there; these alphas keep both numbers on the same side of the cap.
    eps = np.finfo(float).eps
    for half_width in (32,) if perturbed else (32, 128, 256):
        if perturbed:
            nodes = perturbed_nodes(half_width, 0.2, 7, symmetric=False)
        else:
            nodes = uniform_nodes(half_width)
        zeros = np.zeros((1, nodes.count), dtype=complex)
        estimate = solve_coefficients(family, alpha, nodes, zeros).condition_estimate
        condition = np.linalg.cond(collocation_matrix(family, alpha, nodes))
        assert (estimate > PRECISION_CAP) == (condition > PRECISION_CAP)
        if perturbed:
            assert abs(estimate - condition) / condition <= 64 * eps * condition
        else:
            assert estimate >= condition * (1 - 64 * eps * condition)
            if half_width == 256:
                assert estimate <= 1.05 * condition


def test_condition_path_follows_the_nodes(monkeypatch):
    # Integer nodes need no eigendecomposition; perturbed nodes need one per
    # alpha. Only the solve is counted: building a frequency grid calls
    # eigvalsh too, inside leggauss.
    grid = frequency_grid(128)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    for nodes, expected in ((uniform_nodes(16), 0), (perturbed_nodes(16, 0.2, 7), 1)):
        samples = band_samples("gauss_pair", 0, nodes, grid)
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
        monkeypatch.undo()
        assert len(calls) == expected


def test_dense_solve_matches_cg_oracle():
    grid = frequency_grid(256)
    nodes = uniform_nodes(8)
    matrix = collocation_matrix(GAUSSIAN, 1.0, nodes)
    for m in (0, 1):
        samples = band_samples("gauss_pair", m, nodes, grid)
        dense = solve_coefficients(GAUSSIAN, 1.0, nodes, samples).coefficients[0]
        iterative = conjugate_gradient_complex(matrix, samples[0], tol=1e-13)
        rel = np.max(np.abs(dense - iterative)) / np.max(np.abs(dense))
        assert rel < 1e-8


def test_reconstruct_assembles_all_bands():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 2)
    assert approx.m_max == 2
    assert approx.coefficients.shape == (5, nodes.count)
    assert approx.residuals.shape == (5,)
    with pytest.raises(ContractError):
        reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, -1)


def test_batched_reconstruct_matches_single_band_solves():
    # reconstruct solves every band against one factorization; each band must
    # come out exactly as a solve of that band alone, and the empty bands of
    # two_band must stay exact zeros.
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("two_band"), GAUSSIAN, 1.0, nodes, grid, 3)
    for i, row in enumerate(approx.coefficients):
        samples = band_samples("two_band", i - approx.m_max, nodes, grid)
        single = solve_coefficients(GAUSSIAN, 1.0, nodes, samples)
        assert np.array_equal(row, single.coefficients[0])
        assert approx.residuals[i] == single.residuals[0]
        assert approx.condition_estimate == single.condition_estimate
    empty = [i for i in range(7) if i - approx.m_max not in (0, 1)]
    assert np.all(approx.coefficients[empty] == 0.0)


def test_evaluate_j_sums_modulated_bands():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, nodes, grid, 2)
    xs = np.array([-0.9, 0.0, 1.3])
    kernel = phi_spatial(GAUSSIAN, 1.0, xs[:, None] - nodes.values[None, :])
    manual = np.zeros(3, dtype=complex)
    for i, row in enumerate(approx.coefficients):
        manual += np.exp(2j * np.pi * (i - approx.m_max) * xs) * (kernel @ row)
    assert np.max(np.abs(evaluate_J(approx, xs) - manual)) < 1e-14
    scalar = evaluate_J(approx, 0.0)
    assert isinstance(scalar, complex)
    assert scalar == evaluate_J(approx, np.array([0.0]))[0]


def test_j_spectrum_band_matches_spatial_quadrature():
    # The closed-form transform of a band interpolant agrees with a direct
    # windowed transform of its spatial values; the gaussian tails beyond
    # |x| = 40 are far below the tolerance. A one-row approximant is that
    # interpolant, and its band-j spectrum samples the transform at xi + 2 pi j.
    grid = frequency_grid(128)
    nodes = uniform_nodes(4)
    approx = solve_coefficients(GAUSSIAN, 1.0, nodes, band_samples("gauss_pair", 0, nodes, grid))
    xs, ws = np.polynomial.legendre.leggauss(800)
    xs = 40.0 * xs
    ws = 40.0 * ws
    spatial_values = evaluate_J(approx, xs)
    for j in (-1, 0, 1):
        closed = J_spectrum_band(approx, j, grid)
        for k in (0, 40, 64, 100, 127):
            xi = grid.nodes[k] + 2 * np.pi * j
            direct = (2 * np.pi) ** -0.5 * np.sum(ws * spatial_values * np.exp(-1j * xi * xs))
            assert abs(direct - closed[k]) < 1e-6


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
            total += (2 * np.pi) ** -0.5 * np.sum(grid.weights * band * phases)
        assert abs(total - evaluate_J(approx, x)) < 1e-6
