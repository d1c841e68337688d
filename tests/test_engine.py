"""Collocation solves, approximant assembly, and spectral bookkeeping."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwamalgam
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
from pwamalgam import engine
from pwamalgam.engine import PRECISION_CAP
from pwamalgam.metrics import window_quadrature
from pwamalgam.spectral import ROW_BLOCK
from .memory import traced_peak
from .oracles import conjugate_gradient_complex

GAUSSIAN = get_family("gaussian")
POISSON = get_family("poisson")


def band_samples(signal_id: str, m: int, nodes, grid):
    """One band's samples as a one-row stack: the baseband of a one-row solve."""
    row = m + abs(m)  # band m of a spectrum truncated at |m|
    values = signal_spectrum(get_signal(signal_id), grid, abs(m)).values
    return sample_band_signal(values[row : row + 1], grid, nodes)


@pytest.mark.xfail(
    strict=True,
    raises=AccuracyError,
    reason="ROADMAP item 1: the absolute residual test fails solves below PRECISION_CAP",
)
def test_solve_below_the_precision_cap_is_accepted():
    # The condition estimate is 3.6e11, below PRECISION_CAP, yet band -1's
    # residual 2.275e-8 exceeds the tolerance 1.001e-8 and raises
    # AccuracyError.
    grid = frequency_grid(256)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 2.8, uniform_nodes(32), grid, 4)
    assert isinstance(approx, Approximant)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_samples_raise_contract_error(bad):
    nodes = uniform_nodes(4)
    samples = np.ones((3, nodes.count), dtype=complex)
    samples[2, 5] = bad
    with pytest.raises(ContractError, match="finite"):
        solve_coefficients(GAUSSIAN, 1.0, nodes, samples)


@pytest.mark.parametrize(
    "nodes", [uniform_nodes(32), perturbed_nodes(32, 0.2, 7)], ids=["uniform", "perturbed"]
)
def test_non_finite_kernel_values_raise_before_the_factorization(monkeypatch, nodes):
    # The factorization no longer checks the whole matrix: the Toeplitz column
    # or each row block is checked as it is made.
    def with_nan(family, alpha, x, out=None):
        values = phi_spatial(family, alpha, x, out=out)
        values.flat[-1] = np.nan
        return values

    def factor(*args, **kwargs):
        raise AssertionError("factorized a matrix with a NaN entry")

    monkeypatch.setattr(engine, "phi_spatial", with_nan)
    monkeypatch.setattr(engine, "cho_factor", factor)
    samples = np.ones((3, nodes.count), dtype=complex)
    with pytest.raises(ContractError, match="finite"):
        solve_coefficients(GAUSSIAN, 1.0, nodes, samples)


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
        # A breakdown has no factor to estimate from: it carries the analytic
        # bound, the poisson symbol ratio cosh(alpha pi).
        expected = np.cosh(alpha * np.pi)
        assert abs(excinfo.value.condition_estimate - expected) <= 1e-12 * expected


def test_perturbed_breakdown_carries_no_condition_bound():
    # Off the integer nodes the collocation matrix is not Toeplitz and the
    # symbol bound cosh(alpha pi) does not hold for it: a breakdown there
    # carries inf and says that no bound holds.
    grid = frequency_grid(128)
    nodes = perturbed_nodes(16, 0.2, 3)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    with pytest.raises(ConditioningError) as excinfo:
        solve_coefficients(POISSON, 16.0, nodes, samples)
    assert excinfo.value.condition_estimate == math.inf
    assert "no condition bound holds off the integer nodes" in str(excinfo.value)


def test_precision_limited_solves_return():
    # At the gaussian domain top the condition estimate crosses the trust
    # cap; the solve returns with diagnostics instead of raising.
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    approx = solve_coefficients(GAUSSIAN, 3.0, nodes, samples)
    assert approx.condition_estimate > PRECISION_CAP


def test_small_uniform_solve_is_checked_against_its_own_matrix(monkeypatch):
    # The estimate is taken from the matrix's own factor, so it follows N. For
    # the 3x3 matrix at N=1, gaussian alpha=3, it reads about 429 (the N-free
    # symbol bound reads 3.6e12), below the cap: the residual tolerance is
    # enforced, and with SOLVER_TOL=0 any nonzero residual raises.
    nodes = uniform_nodes(1)
    samples = np.array([[1.0, -2.0, 0.5]])
    approx = solve_coefficients(GAUSSIAN, 3.0, nodes, samples)
    assert 420 < approx.condition_estimate < 440
    assert condition_bound(GAUSSIAN, 3.0) > PRECISION_CAP
    assert np.linalg.cond(collocation_matrix(GAUSSIAN, 3.0, nodes)) < 1e3
    monkeypatch.setattr(engine, "SOLVER_TOL", 0.0)
    assert np.any(approx.residuals > 0)
    with pytest.raises(AccuracyError):
        solve_coefficients(GAUSSIAN, 3.0, nodes, samples)


def test_accuracy_error_below_cap(monkeypatch):
    monkeypatch.setattr(engine, "SOLVER_TOL", 1e-15)
    grid = frequency_grid(128)
    nodes = uniform_nodes(32)
    samples = band_samples("gauss_pair", 0, nodes, grid)
    with pytest.raises(AccuracyError) as excinfo:
        solve_coefficients(GAUSSIAN, 2.5, nodes, samples)
    assert excinfo.value.residual > 0
    # The error carries the solve's own estimate: the 1-norm estimate from the
    # factor, at or above the 2-norm condition number (to rounding that grows
    # like eps * cond), and still below the cap, so the tolerance is enforced.
    estimate = excinfo.value.condition_estimate
    assert estimate == solve_coefficients(GAUSSIAN, 2.5, nodes, 0 * samples).condition_estimate
    condition = np.linalg.cond(collocation_matrix(GAUSSIAN, 2.5, nodes))
    eps = np.finfo(float).eps
    assert estimate >= condition * (1 - 64 * eps * condition)
    assert estimate <= PRECISION_CAP


def test_accuracy_error_names_band_not_row(monkeypatch):
    # With M_max=3 the first row over the forced tolerance is row 3, which
    # holds band 0: the message must name the band.
    monkeypatch.setattr(engine, "SOLVER_TOL", 1e-15)
    grid = frequency_grid(128)
    with pytest.raises(AccuracyError) as excinfo:
        reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, uniform_nodes(8), grid, 3)
    assert "for band 0 at alpha=1.0" in str(excinfo.value)


@pytest.mark.parametrize(
    "family, alpha",
    [(GAUSSIAN, a) for a in (0.5, 1.75, 2.5, 3.0)] + [(POISSON, a) for a in (1.0, 4.0, 8.0)],
)
@pytest.mark.parametrize(
    "nodes",
    [uniform_nodes(n) for n in (1, 32, 128, 256)]
    + [perturbed_nodes(n, 0.2, 7, symmetric=False) for n in (32, 128)],
    ids=["u1", "u32", "u128", "u256", "p32", "p128"],
)
def test_condition_estimate_brackets_the_oracles(monkeypatch, family, alpha, nodes):
    # One estimate on every node set: the 1-norm estimate from the Cholesky
    # factor. For a symmetric matrix kappa_2 <= kappa_1, and the estimator
    # never exceeds the exact kappa_1 (it evaluates |A^-1 x|_1 for unit x);
    # both oracles come from np.linalg.cond, to rounding that grows like
    # eps * cond (every case here has cond < 1e13). The estimate reads
    # 1.0002-2.06 times kappa_2 here, the most on perturbed N=128. Gaussian
    # alpha=3 sits above PRECISION_CAP from N=32 and must stay there; these
    # alphas keep estimate and oracle on the same side of the cap. No
    # eigendecomposition or SVD runs beside the factorization.
    eps = np.finfo(float).eps
    zeros = np.zeros((1, nodes.count), dtype=complex)
    with monkeypatch.context() as patch:
        for name in ("eigvalsh", "svd"):
            patch.setattr(np.linalg, name, lambda *args, name=name: pytest.fail(name))
        estimate = solve_coefficients(family, alpha, nodes, zeros).condition_estimate
    matrix = collocation_matrix(family, alpha, nodes)
    condition = np.linalg.cond(matrix)
    assert (estimate > PRECISION_CAP) == (condition > PRECISION_CAP)
    assert estimate >= condition * (1 - 64 * eps * condition)
    assert estimate <= np.linalg.cond(matrix, 1) * (1 + 64 * eps * condition)


REPEATS_SCRIPT = """
import numpy as np
from pwamalgam import get_family, solve_coefficients, uniform_nodes
nodes = uniform_nodes(256)
zeros = np.zeros((1, nodes.count), dtype=complex)
held, estimates = [], set()
for size in np.random.default_rng(0).integers(1, 3000, 40):
    held.append(np.empty(size))
    estimates.add(solve_coefficients(get_family("gaussian"), 0.75, nodes, zeros).condition_estimate)
print(len(estimates))
"""


def test_condition_estimate_repeats_wherever_its_arrays_land():
    # LAPACK's dpocon gives this estimate to rounding, but on one BLAS thread
    # its level-2 BLAS rounds by the address of its work arrays: on one factor
    # (gaussian alpha=0.75, N=256) it read 819.796484858567 or
    # 819.7964848585673 as the arrays held below came and went. OpenBLAS
    # reads its thread count when it loads, hence the fresh interpreter.
    src = str(Path(pwamalgam.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", REPEATS_SCRIPT], env=env, capture_output=True, text=True
    )
    assert result.stdout.split() == ["1"], result.stderr


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


def test_evaluate_j_peak_memory_stays_near_its_kernel():
    # The N = 256 sweep evaluates on its 928-point window. The kernel is built
    # and applied one row block at a time, so the whole 928 x 513 matrix
    # (7.3 MiB, over twice the bound) never exists.
    nodes = uniform_nodes(256)
    xq, _ = window_quadrature(16.0, 6)
    approx = Approximant(
        alpha=1.25,
        family=GAUSSIAN,
        nodes=nodes,
        coefficients=np.ones((9, nodes.count), dtype=complex),
        condition_estimate=1.0,
        residuals=np.zeros(9),
    )
    out_bytes = len(xq) * np.dtype(complex).itemsize
    block_bytes = ROW_BLOCK * nodes.count * np.dtype(complex).itemsize
    assert traced_peak(lambda: evaluate_J(approx, xq)) <= out_bytes + 3 * block_bytes


def test_solve_coefficients_makes_no_complex_copy_of_the_matrix():
    # At N = 256 the real 513 x 513 matrix and its Cholesky factor take
    # 2 MiB each; a complex copy of the matrix would add 4 MiB more. The
    # residual check converts one row block at a time instead.
    nodes = uniform_nodes(256)
    grid = frequency_grid(256)
    values = signal_spectrum(get_signal("gauss_pair"), grid, 4).values
    samples = sample_band_signal(values, grid, nodes)
    matrix_bytes = nodes.count**2 * np.dtype(float).itemsize
    block_bytes = ROW_BLOCK * nodes.count * np.dtype(complex).itemsize
    peak = traced_peak(lambda: solve_coefficients(GAUSSIAN, 1.25, nodes, samples))
    assert peak <= 2 * matrix_bytes + 2 * block_bytes


@pytest.mark.parametrize(
    "nodes", [uniform_nodes(256), perturbed_nodes(128, 0.2, 41)], ids=["u256", "p128"]
)
def test_solve_coefficients_keeps_one_copy_of_the_matrix(nodes):
    # The 1-norm is read off the matrix in place, the Cholesky factor
    # overwrites it, and the residual check builds its row blocks from the
    # kernel: no second n x n array (2 MiB at N = 256).
    grid = frequency_grid(256)
    values = signal_spectrum(get_signal("gauss_pair"), grid, 4).values
    samples = sample_band_signal(values, grid, nodes)
    matrix_bytes = nodes.count**2 * np.dtype(float).itemsize
    block_bytes = ROW_BLOCK * nodes.count * np.dtype(complex).itemsize
    for alpha in (1.25, 2.5):
        peak = traced_peak(lambda: solve_coefficients(GAUSSIAN, alpha, nodes, samples))
        assert peak <= matrix_bytes + 2 * block_bytes


def test_solve_coefficients_holds_one_right_hand_side_beside_the_matrix():
    # While the matrix or its factor lives, the only other array of band size
    # is the one real right-hand side of all bands, as large as the complex
    # samples; the coefficients are allocated once the factor is freed.
    # Solving in groups, with the coefficients allocated beside the factor,
    # read about 2.1 samples' worth above the matrix.
    nodes = uniform_nodes(256)
    grid = frequency_grid(256)
    values = signal_spectrum(get_signal("gauss_pair"), grid, 4).values
    samples = sample_band_signal(values, grid, nodes)
    matrix_bytes = nodes.count**2 * np.dtype(float).itemsize
    for alpha in (1.25, 2.5):
        peak = traced_peak(lambda: solve_coefficients(GAUSSIAN, alpha, nodes, samples))
        assert peak <= matrix_bytes + 1.5 * samples.nbytes


def test_solve_coefficients_checks_finiteness_without_a_whole_mask():
    # `np.isfinite` over the matrix, as a checking `cho_factor` runs it, stood
    # an n x n boolean array (0.25 MiB at N = 256) beside the matrix; the
    # kernel values are checked as they are made instead.
    nodes = uniform_nodes(256)
    grid = frequency_grid(256)
    values = signal_spectrum(get_signal("gauss_pair"), grid, 4).values
    samples = sample_band_signal(values, grid, nodes)
    matrix_bytes = nodes.count**2 * np.dtype(float).itemsize
    mask_bytes = nodes.count**2 * np.dtype(bool).itemsize
    peak = traced_peak(lambda: solve_coefficients(GAUSSIAN, 1.25, nodes, samples))
    assert peak < matrix_bytes + mask_bytes


@pytest.mark.parametrize("family", [GAUSSIAN, POISSON], ids=["gaussian", "poisson"])
def test_perturbed_collocation_matrix_is_built_in_row_blocks(family):
    # The reconstruct-n128 matrix, 257 x 257. Built whole, its difference array
    # and the kernel's exponent and masks over it stood beside it: 2.2 times
    # its size. Each block's differences are written into its rows, a row at a
    # time, and replaced there by their kernel values, so only the gaussian's
    # one mask and the finiteness check's stand beside it (0.14 blocks). A
    # difference ufunc over the whole block (numpy's hidden buffers for its
    # broadcast operand) and a kernel into a new array read 1.27 blocks for
    # the gaussian and 2.01 for the poisson kernel.
    nodes = perturbed_nodes(128, 0.2, 41)
    matrix_bytes = nodes.count**2 * np.dtype(float).itemsize
    block_bytes = ROW_BLOCK * nodes.count * np.dtype(float).itemsize
    peak = traced_peak(lambda: collocation_matrix(family, 2.5, nodes))
    assert peak <= matrix_bytes + block_bytes / 2


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


def test_evaluate_j_beyond_the_support_and_at_nan():
    # Every node lies beyond the support radius (55.6 at alpha = 1) of these
    # blocks, so they build no kernel column and each value is an exact zero.
    # A NaN point would give its block an empty column range, so it is refused.
    grid = frequency_grid(128)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, uniform_nodes(8), grid, 2)
    for far in ([-1e3, -64.0], [64.0, 1e3]):
        assert np.array_equal(evaluate_J(approx, np.array(far)), np.zeros(2))
    with pytest.raises(ContractError, match="NaN"):
        evaluate_J(approx, np.array([0.0, np.nan]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_j_refuses_non_finite_points(monkeypatch, bad):
    grid = frequency_grid(128)
    approx = reconstruct(get_signal("gauss_pair"), GAUSSIAN, 1.0, uniform_nodes(8), grid, 2)

    def unreachable(*args):
        raise AssertionError("built a kernel block for a non-finite point")

    monkeypatch.setattr(engine, "phi_spatial", unreachable)
    for x in (bad, np.array([0.0, bad])):
        with pytest.raises(ContractError, match="NaN"):
            evaluate_J(approx, x)


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
