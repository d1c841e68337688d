"""Bit-identity pins for the fast forms that the numerics rely on.

Each form below replaced a plainer one only because the two agree bit for bit
with the numpy and OpenBLAS in use, which keeps every output byte-identical.
A numpy or BLAS whose rounding differs fails here, loudly, instead of moving
the outputs silently.

`engine` calls LAPACK's Cholesky routines directly, `dpotrf` to factor and
`dpotrs` to solve; the pins compare its factor and solutions with those of
scipy's `cho_factor` and `cho_solve`, which wrap the same routines, as a
reference that does not go through `engine`. The in-place Cholesky pin
compares the factor that `solve_coefficients` writes over the collocation
matrix with the factor of a copy: it relies on the matrix being exactly
symmetric, so that its transpose holds the bytes of the Fortran-ordered copy
LAPACK is otherwise given.

The row-block pins compare each streamed operator (`spectral.row_blocks`),
the collocation matrix on perturbed nodes among them, with the whole-matrix
expression it replaced: a BLAS whose gemv or gemm rounding depends on the
number of rows fails them. The same pins cover the
two exact cuts inside the blocks: kernel products over the support columns
only (`engine._support_columns`), which relies on BLAS summing each output in
column order so that dropped exact zeros change nothing, and phase blocks
whose ``xi < 0`` half is the conjugate of the ``xi > 0`` half, which relies on
numpy's ``cos`` being even and its ``sin`` odd bit for bit. The mirrored
kernel blocks of `engine._kernel_blocks` are pinned against the blocks built
from their own differences: they rely on ``(-x) - (-y)`` being ``-(x - y)``
and the kernel being even, bit for bit.

The gaussian kernel is the one form that differs from the plain one on
purpose: it returns 0.0 where plain ``exp`` would be subnormal. Its pins
compare every number of a solve and an evaluation with the kernel that kept
the subnormals, and check that no kernel operator holds one.
"""

import dataclasses
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

import pwamalgam
from pwamalgam import (
    collocation_matrix,
    evaluate_J,
    frequency_grid,
    get_family,
    get_signal,
    inverse_ft_at,
    perturbed_nodes,
    phi_spatial,
    reconstruct,
    sample_band_signal,
    signal_spectrum,
    solve_coefficients,
    spatial_grid,
    uniform_nodes,
)
from pwamalgam import engine, kernels, spectral
from pwamalgam.kernels import _EXP_ZERO, _gaussian_spatial, support_radius
from pwamalgam.metrics import error_report, measurement_target, window_quadrature
from pwamalgam.spectral import ROW_BLOCK, TWO_PI, band_forward, band_inverse, cis, row_blocks

GRID = frequency_grid(256)
WINDOW, _ = window_quadrature(16.0, 6)  # the 928-point window of the sweep
SWEEP_GRID = spatial_grid(16.0, 20).points  # the 641 points of the sweep
GAUSSIAN = get_family("gaussian")
POISSON = get_family("poisson")


@pytest.mark.parametrize(
    "angles",
    [
        np.outer(uniform_nodes(256).values, GRID.nodes),
        np.outer(WINDOW, GRID.nodes),
        np.outer(spatial_grid(64.0, 20).points, GRID.nodes),
        TWO_PI * np.outer(WINDOW, np.arange(-6, 7)),
    ],
    ids=["513x256", "928x256", "2561x256", "928x13"],
)
def test_cis_equals_complex_exp(angles):
    assert np.array_equal(cis(angles), np.exp(1j * angles))
    assert np.array_equal(cis(-angles), np.exp(-1j * angles))


def test_cis_keeps_the_rounding_of_each_site():
    # ``c * 1j * a`` carries ``c * a`` as its imaginary part, rounded alike.
    js = np.arange(-6, 7)
    assert np.array_equal(
        cis(-TWO_PI * np.outer(WINDOW, js)), np.exp(-1j * TWO_PI * np.outer(WINDOW, js))
    )
    for m in range(-4, 5):
        assert np.array_equal(cis(TWO_PI * m * WINDOW), np.exp(1j * TWO_PI * m * WINDOW))


TINY = np.finfo(float).tiny


def subnormal(values):
    return (values != 0.0) & (np.abs(values) < TINY)


@pytest.mark.parametrize("alpha", [0.5, 3.0], ids=["domain-bottom", "domain-top"])
def test_gaussian_kernel_equals_plain_exp_where_normal(alpha):
    cutoff = np.sqrt(-4.0 * alpha * _EXP_ZERO)  # |x| where the exponent is _EXP_ZERO
    x = np.concatenate(
        [
            np.linspace(-2.0 * cutoff, 2.0 * cutoff, 4001),
            cutoff + np.linspace(-2.0, 2.0, 40001),
            [cutoff, np.nextafter(cutoff, 0.0), np.nextafter(cutoff, np.inf)],
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    plain = np.exp(-(x**2) / (4.0 * alpha))
    kernel = _gaussian_spatial(alpha, x)
    normal = plain >= TINY
    assert np.array_equal(kernel[normal], plain[normal])
    assert np.all(kernel[~normal & ~np.isnan(x)] == 0.0)
    assert np.array_equal(np.isnan(kernel), np.isnan(x))
    assert not np.any(subnormal(kernel))
    # The grid straddles the cutoff: plain exp is normal inside it, subnormal
    # just beyond it, and 0 further out.
    assert np.any(normal) and np.any(subnormal(plain)) and np.any(plain == 0.0)
    assert not np.any(normal & (np.abs(x) > cutoff + 1e-9))
    for scalar in (0.0, 1.5, cutoff, 2.0 * cutoff):
        value = _gaussian_spatial(alpha, np.asarray(scalar))
        expected = np.exp(-(scalar**2) / (4.0 * alpha))
        assert value.shape == () and value == (expected if expected >= TINY else 0.0)


@pytest.mark.parametrize("alpha", [0.5, 3.0], ids=["domain-bottom", "domain-top"])
@pytest.mark.parametrize("family", [GAUSSIAN, POISSON], ids=["gaussian", "poisson"])
def test_kernel_in_place_equals_kernel_into_a_new_array(family, alpha):
    # The collocation blocks and `evaluate_J`'s difference arrays are replaced
    # by their kernel values where they stand: `out` is `x` itself. On a grid
    # that straddles the gaussian's cutoff, at NaN and infinite points and for
    # 0-d input, every value keeps its bits.
    cutoff = np.sqrt(-4.0 * alpha * _EXP_ZERO)  # |x| where the exponent is _EXP_ZERO
    x = np.concatenate(
        [
            np.linspace(-2.0 * cutoff, 2.0 * cutoff, 4001),
            cutoff + np.linspace(-2.0, 2.0, 40001),
            [cutoff, np.nextafter(cutoff, 0.0), np.nextafter(cutoff, np.inf)],
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    zero_d = [np.asarray(point) for point in (0.0, 1.5, cutoff, 2.0 * cutoff, np.inf, np.nan)]
    for points in [x, x[:44000].reshape(200, 220), *zero_d]:
        expected = np.asarray(phi_spatial(family, alpha, points), dtype=float)
        values = points.copy()
        assert phi_spatial(family, alpha, values, out=values) is values
        assert values.shape == points.shape and values.tobytes() == expected.tobytes()


# The gaussian domain in steps of 0.25; uniform nodes at the sweep sizes
# N = 32, 128 and 256, and perturbed N = 128 nodes as reconstruct uses them.
ALPHAS = [0.5 + 0.25 * k for k in range(11)]
KERNEL_NODES = {
    "N32": uniform_nodes(32),
    "N128": uniform_nodes(128),
    "N256": uniform_nodes(256),
    "perturbed-N128-seed7": perturbed_nodes(128, 0.2, 7),
    "perturbed-N128-seed41": perturbed_nodes(128, 0.2, 41),
}


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("case", list(KERNEL_NODES))
def test_zeroing_subnormal_kernel_values_changes_no_number(monkeypatch, case, alpha):
    # The oracle is the kernel that kept its subnormal values (cutoff -746,
    # where exp itself reaches 0) with the support radius that follows from
    # it. The solve's acceptance check is lifted on both sides, so that
    # alpha = 2.75, which fails it on every node set, is compared too.
    nodes = KERNEL_NODES[case]
    signal = get_signal("gauss_pair")
    monkeypatch.setattr(engine, "SOLVER_TOL", np.inf)

    def run():
        approx = reconstruct(signal, GAUSSIAN, alpha, nodes, GRID, 4)
        return approx, evaluate_J(approx, SWEEP_GRID)

    normal, normal_J = run()
    monkeypatch.setattr(kernels, "_EXP_ZERO", -746.0)
    oracle, oracle_J = run()
    assert np.array_equal(normal.coefficients, oracle.coefficients)
    assert normal.condition_estimate == oracle.condition_estimate
    assert np.array_equal(normal.residuals, oracle.residuals)
    assert np.array_equal(normal_J, oracle_J)


@pytest.mark.parametrize("case", list(KERNEL_NODES))
def test_no_kernel_operator_holds_a_subnormal(case):
    nodes = KERNEL_NODES[case]
    for alpha in ALPHAS:
        assert not np.any(subnormal(collocation_matrix(GAUSSIAN, alpha, nodes)))
        radius = support_radius(GAUSSIAN, alpha)
        # The residual check's points, the sweep's grid and its window.
        for xs in (nodes.values, SWEEP_GRID, WINDOW):
            for _, block, _ in engine._kernel_blocks(GAUSSIAN, alpha, nodes, xs, radius):
                assert not np.any(subnormal(block.real)) and not np.any(block.imag)


def test_the_old_cutoff_left_subnormals_in_the_matrix(monkeypatch):
    # What the test above would catch: at N = 256 the kernel that stopped
    # at exp's own zero filled the collocation matrix with subnormals.
    monkeypatch.setattr(kernels, "_EXP_ZERO", -746.0)
    assert np.any(subnormal(collocation_matrix(GAUSSIAN, 2.5, uniform_nodes(256))))


def one_column_inverse_norm_1(factor):
    """`engine._inverse_norm_1` with one scipy `cho_solve` per vector, as it was
    before the start and the alternating vector were solved together."""
    n = len(factor[0])
    solve = partial(cho_solve, factor, check_finite=False)
    x = solve(np.full(n, 1.0 / n))
    estimate, signs = np.abs(x).sum(), np.where(x >= 0, 1.0, -1.0)
    j = np.argmax(np.abs(solve(signs)))
    for _ in range(4):
        x = solve(np.eye(1, n, j)[0])
        previous, estimate = estimate, np.abs(x).sum()
        signs, previous_signs = np.where(x >= 0, 1.0, -1.0), signs
        if estimate <= previous or np.array_equal(signs, previous_signs):
            break
        x = solve(signs)
        last, j = j, np.argmax(np.abs(x))
        if x[last] == abs(x[j]):
            break
    alternating = np.linspace(1.0, 2.0, n) * (-1.0) ** np.arange(n)
    return float(max(estimate, 2 * np.abs(solve(alternating)).sum() / (3 * n)))


@pytest.mark.parametrize(
    "nodes",
    [uniform_nodes(32), uniform_nodes(256), perturbed_nodes(128, 0.2, 7)],
    ids=["N32", "N256", "perturbed-N128"],
)
@pytest.mark.parametrize("alpha", [0.5, 1.25, 2.5, 3.0])
def test_two_column_condition_solve_equals_one_column_solves(nodes, alpha):
    factor = cho_factor(collocation_matrix(GAUSSIAN, alpha, nodes))
    assert engine._inverse_norm_1(factor[0]) == one_column_inverse_norm_1(factor)


# Runs in a fresh interpreter: OpenBLAS reads its thread count when it loads,
# and its solves round differently on one thread and on two.
ONE_BAND_SOLVE_SCRIPT = """
import sys
import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs
from pwamalgam import (
    collocation_matrix, frequency_grid, get_family, get_signal, perturbed_nodes,
    reconstruct, sample_band_signal, signal_spectrum, uniform_nodes,
)
from pwamalgam import engine

# The band solves are the `dpotrs` calls outside the condition estimate.
band_solves, estimating = [], []

def counting_solve(factor, b, **kwargs):
    if not estimating:
        band_solves.append(np.shape(b))
    return dpotrs(factor, b, **kwargs)

def flagged_estimate(factor, estimate=engine._inverse_norm_1):
    estimating.append(True)
    try:
        return estimate(factor)
    finally:
        estimating.pop()

engine.dpotrs, engine._inverse_norm_1 = counting_solve, flagged_estimate
nodes, family_id, alphas = {
    "N32": (uniform_nodes(32), "gaussian", (0.75, 2.5)),
    "N128": (uniform_nodes(128), "gaussian", (0.75, 2.5)),
    "N256": (uniform_nodes(256), "gaussian", (0.75, 2.5)),
    "perturbed-N128": (perturbed_nodes(128, 0.2, 7), "gaussian", (0.75, 2.5)),
    "poisson-N128": (uniform_nodes(128), "poisson", (4.0, 8.0)),
}[sys.argv[1]]
grid, family, signal = frequency_grid(256), get_family(family_id), get_signal("gauss_pair")
samples = sample_band_signal(signal_spectrum(signal, grid, 4).values, grid, nodes)
nonzero = [i for i, band in enumerate(samples) if np.any(band)]
columns = np.column_stack([p for i in nonzero for p in (samples[i].real, samples[i].imag)])
for alpha in alphas:
    band_solves.clear()
    approx = reconstruct(signal, family, alpha, nodes, grid, 4)
    assert band_solves == [(nodes.count, 2 * len(nonzero))], (alpha, band_solves)
    one_call = cho_solve(cho_factor(collocation_matrix(family, alpha, nodes)), columns)
    for k, i in enumerate(nonzero):
        pair = one_call[:, 2 * k] + 1j * one_call[:, 2 * k + 1]
        assert np.array_equal(approx.coefficients[i], pair), (alpha, i)
    assert not np.any(np.delete(approx.coefficients, nonzero, axis=0)), alpha
print("ok")
"""


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("nodes", ["N32", "N128", "N256", "perturbed-N128", "poisson-N128"])
def test_band_solve_is_one_call_of_all_bands(nodes, blas_threads):
    # Each alpha solves all its non-empty bands, two real columns each, in one
    # `dpotrs` call; every coefficient row is its column pair of scipy's one
    # `cho_solve` call, bit for bit, at gaussian alpha 0.75 and 2.5 and, on a
    # matrix with no exact zeros, poisson alpha 4 and 8. At one BLAS thread
    # the 18-column call rounds unlike one-column solves on some node sets
    # (alpha 2.5 at N = 256 among them), at two threads it happens not to, so
    # both counts run.
    src = str(Path(pwamalgam.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "OMP_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    result = subprocess.run(
        [sys.executable, "-c", ONE_BAND_SOLVE_SCRIPT, nodes],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.stdout.split() == ["ok"], result.stderr


SPATIAL = spatial_grid(64.0, 20).points  # the 2561 points of a reconstruct at N = 128
# Lengths around the block size: none, one, one full block, one row over.
EDGE_LENGTHS = [0, 1, ROW_BLOCK, ROW_BLOCK + 1]


def whole_band_inverse(values, grid, x):
    phase = cis(np.outer(x, grid.nodes))
    out = np.zeros((len(values), len(x)), dtype=complex)
    for i, band in enumerate(values):
        if np.any(band):
            out[i] = TWO_PI**-0.5 * (phase @ (grid.weights * band))
    return out


def whole_evaluate_J(approx, xs):
    kernel = phi_spatial(approx.family, approx.alpha, xs[:, None] - approx.nodes.values)
    kernel = kernel.astype(complex)
    out = np.zeros(len(xs), dtype=complex)
    for i, row in enumerate(approx.coefficients):
        if np.any(row):
            out += cis(TWO_PI * (i - approx.m_max) * xs) * (kernel @ row)
    return out


@pytest.mark.parametrize("half_width", [0, 32, 64, 128, 256], ids=lambda n: f"n{2 * n + 1}")
@pytest.mark.parametrize(
    "family, alpha",
    [(GAUSSIAN, 0.5), (GAUSSIAN, 2.5), (GAUSSIAN, 3.0), (POISSON, 4.0)],
    ids=["a0.5", "a2.5", "a3", "poisson"],
)
def test_perturbed_collocation_matrix_in_row_blocks_equals_whole_difference_build(
    family, alpha, half_width
):
    # At 64-row blocks, 65 and 129 nodes leave a lone last row, which borrows
    # one from the block before.
    nodes = perturbed_nodes(half_width, 0.2, 7)
    assert not nodes.is_uniform
    values = nodes.values
    matrix = collocation_matrix(family, alpha, nodes)
    assert np.array_equal(matrix, phi_spatial(family, alpha, values[:, None] - values[None, :]))
    assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("x", [WINDOW, SPATIAL], ids=["928", "2561"])
def test_one_modulation_build_equals_one_per_band(x):
    # `evaluate_J` builds the phases of all bands of a block in one call.
    ms = np.arange(-6, 7)
    for m, row in zip(ms, cis(np.outer(TWO_PI * ms, x))):
        assert np.array_equal(row, cis(TWO_PI * m * x))


@pytest.mark.parametrize("count", [*EDGE_LENGTHS, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 2561])
def test_row_blocks_cover_each_row_once_and_never_one_row_of_several(count):
    sizes = [rows.stop - rows.start for rows in row_blocks(count)]
    starts = [rows.start for rows in row_blocks(count)]
    assert starts == [sum(sizes[:k]) for k in range(len(sizes))] and sum(sizes) == count
    assert all(1 <= size <= ROW_BLOCK for size in sizes)
    assert count <= 1 or 1 not in sizes


@pytest.mark.parametrize("signal_id", ["gauss_pair", "two_band"])
@pytest.mark.parametrize(
    "points, x",
    [
        (256, SPATIAL),
        (256, uniform_nodes(256).values),
        (512, uniform_nodes(256).values),
        *((256, SPATIAL[:n]) for n in EDGE_LENGTHS),
    ],
    ids=["2561x256", "513x256", "513x512", *(f"{n}x256" for n in EDGE_LENGTHS)],
)
def test_band_inverse_in_row_blocks_equals_whole_phase_matrix(points, x, signal_id):
    grid = frequency_grid(points)
    values = signal_spectrum(get_signal(signal_id), grid, 4).values
    assert np.array_equal(band_inverse(values, grid, x), whole_band_inverse(values, grid, x))


@pytest.fixture(scope="module")
def approximants():
    """The N = 256 sweep at its most cancelling alpha and at both ends of the
    gaussian domain (the narrowest and the widest support), the perturbed
    N = 128 reconstruction, and a poisson approximant (support everywhere)."""
    pair = get_signal("gauss_pair")
    n256 = uniform_nodes(256)
    nodes = perturbed_nodes(128, 0.2, 7)
    return {
        "uniform-N256": reconstruct(pair, GAUSSIAN, 2.5, n256, GRID, 4),
        "uniform-N256-a0.5": reconstruct(pair, GAUSSIAN, 0.5, n256, GRID, 4),
        "uniform-N256-a3": reconstruct(pair, GAUSSIAN, 3.0, n256, GRID, 4),
        "perturbed-N128": reconstruct(get_signal("two_band"), GAUSSIAN, 1.5, nodes, GRID, 4),
        "poisson-N128": reconstruct(pair, POISSON, 4.0, uniform_nodes(128), GRID, 4),
    }


@pytest.mark.parametrize(
    "case, xs",
    [
        ("uniform-N256", WINDOW),
        ("uniform-N256", SWEEP_GRID),
        ("perturbed-N128", SPATIAL),
        *(("uniform-N256", WINDOW[:n]) for n in EDGE_LENGTHS),
        ("uniform-N256-a0.5", WINDOW),
        ("uniform-N256-a0.5", SPATIAL),
        ("uniform-N256-a3", WINDOW),
        ("uniform-N256-a3", SPATIAL),
        ("poisson-N128", WINDOW),
        ("poisson-N128", SPATIAL[:1]),
    ],
    ids=[
        "928x513",
        "641x513",
        "2561x257",
        *(f"{n}x513" for n in EDGE_LENGTHS),
        "928x513-a0.5",
        "2561x513-a0.5",
        "928x513-a3",
        "2561x513-a3",
        "928x257-poisson",
        "1x257-poisson",
    ],
)
def test_evaluate_j_in_row_blocks_equals_whole_kernel(approximants, case, xs):
    approx = approximants[case]
    assert np.array_equal(evaluate_J(approx, xs), whole_evaluate_J(approx, xs))


@pytest.mark.parametrize(
    "nodes, family, alpha",
    [
        (uniform_nodes(256), GAUSSIAN, 2.5),
        (uniform_nodes(128), GAUSSIAN, 1.5),
        (perturbed_nodes(128, 0.2, 7), GAUSSIAN, 1.5),
        (uniform_nodes(256), GAUSSIAN, 0.5),
        (uniform_nodes(256), GAUSSIAN, 3.0),
        (uniform_nodes(128), POISSON, 4.0),
    ],
    ids=["n513", "n257", "perturbed-n257", "n513-a0.5", "n513-a3", "n257-poisson"],
)
def test_residuals_in_row_blocks_equal_whole_complex_matrix(nodes, family, alpha):
    values = signal_spectrum(get_signal("gauss_pair"), GRID, 4).values
    samples = sample_band_signal(values, GRID, nodes)
    approx = solve_coefficients(family, alpha, nodes, samples)
    matrix = collocation_matrix(family, alpha, nodes).astype(complex)
    whole = [np.max(np.abs(matrix @ c - b)) for c, b in zip(approx.coefficients, samples)]
    assert np.array_equal(approx.residuals, whole)


def mirrored_set(count):
    """``count`` points that are an exact mirror, ``x == -x[::-1]``, off the nodes."""
    half = 0.61 * np.arange(1, count // 2 + 1)
    return np.concatenate([-half[::-1], [0.0] * (count % 2), half])


# Mirrored sets around the shapes of the mirror blocks: three points (left
# alone, since their mirror block would be one row), 4 to 7, 65 and 66 (one
# block of each half, with and without a middle point), 129 to 131 (a second
# block of two rows, after the first borrowed one), and both signed zeros.
MIRRORED_POINTS = {f"n{n}": mirrored_set(n) for n in (3, 4, 5, 6, 7, 65, 66, 129, 130, 131)}
MIRRORED_POINTS["signed-zeros"] = np.array([-2.0, -0.0, 0.0, 2.0])
MIRRORED_NODES = {
    "uniform-N256": uniform_nodes(256),
    "symmetric-N64": perturbed_nodes(64, 0.2, 3, symmetric=True),
}
# The poisson kernel has no support radius: its mirror columns are all columns.
KERNELS = {"gaussian": (GAUSSIAN, 1.5), "poisson": (POISSON, 4.0)}


def unmirrored_kernel(monkeypatch, call):
    """`call()` with every kernel block built, none taken from its mirror."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_mirrored_rows", lambda x: 0)
        return call()


def kernel_rows(monkeypatch, call):
    """`call()`, and the rows of the kernel blocks on which `phi_spatial` runs."""
    rows = []

    def counting(family, alpha, x, out=None):
        rows.append(len(x))
        return phi_spatial(family, alpha, x, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "phi_spatial", counting)
        return call(), sum(rows)


@pytest.fixture(scope="module")
def mirrored_approximants():
    pair = get_signal("gauss_pair")
    return {
        (nodes, kernel): reconstruct(pair, *KERNELS[kernel], MIRRORED_NODES[nodes], GRID, 4)
        for nodes in MIRRORED_NODES
        for kernel in KERNELS
    }


@pytest.mark.parametrize("points", list(MIRRORED_POINTS))
@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("nodes", list(MIRRORED_NODES))
def test_evaluate_j_on_mirrored_points_keeps_every_bit(
    monkeypatch, mirrored_approximants, nodes, kernel, points
):
    # On mirrored nodes the kernel rows of the mirrored points are those of
    # their mirrors, reversed, bit for bit, signed zeros included.
    approx = mirrored_approximants[nodes, kernel]
    xs = MIRRORED_POINTS[points]
    mirrored = evaluate_J(approx, xs)
    whole = unmirrored_kernel(monkeypatch, lambda: evaluate_J(approx, xs))
    assert mirrored.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("nodes", list(MIRRORED_NODES))
def test_residuals_on_mirrored_nodes_keep_every_bit(monkeypatch, nodes, kernel):
    # The residual check evaluates the kernel on the nodes themselves.
    family, alpha = KERNELS[kernel]
    node_set = MIRRORED_NODES[nodes]
    values = signal_spectrum(get_signal("gauss_pair"), GRID, 4).values
    samples = sample_band_signal(values, GRID, node_set)
    solve = partial(solve_coefficients, family, alpha, node_set, samples)
    mirrored = solve()
    whole = unmirrored_kernel(monkeypatch, solve)
    assert mirrored.residuals.tobytes() == whole.residuals.tobytes()
    assert mirrored.coefficients.tobytes() == whole.coefficients.tobytes()


@pytest.mark.parametrize("nodes", list(MIRRORED_NODES))
def test_kernel_runs_on_half_the_rows_of_a_mirrored_set(monkeypatch, mirrored_approximants, nodes):
    # ceil(n / 2) rows of every mirrored set of at least four points, the
    # sweep's target and the nodes of the residual check among them; three
    # points keep all their rows.
    approx = mirrored_approximants[nodes, "gaussian"]
    target = measurement_target(get_signal("gauss_pair"), GRID, spatial_grid(16.0, 20), 4)
    sets = [*MIRRORED_POINTS.values(), target.points, approx.nodes.values]
    for xs in sets:
        _, rows = kernel_rows(monkeypatch, lambda: evaluate_J(approx, xs))
        assert rows == (len(xs) if len(xs) == 3 else (len(xs) + 1) // 2)
        _, whole = unmirrored_kernel(
            monkeypatch, lambda: kernel_rows(monkeypatch, lambda: evaluate_J(approx, xs))
        )
        assert whole == len(xs)
    # The residual check's rows are those of the solve beyond its matrix build.
    samples = np.ones((1, approx.nodes.count), dtype=complex)
    _, rows = kernel_rows(
        monkeypatch, lambda: solve_coefficients(GAUSSIAN, 1.5, approx.nodes, samples)
    )
    _, build = kernel_rows(monkeypatch, lambda: collocation_matrix(GAUSSIAN, 1.5, approx.nodes))
    assert rows - build == (approx.nodes.count + 1) // 2


@pytest.mark.parametrize(
    "nodes, family, alpha",
    [
        (uniform_nodes(256), GAUSSIAN, 2.5),
        (uniform_nodes(128), GAUSSIAN, 1.5),
        (perturbed_nodes(128, 0.2, 7), GAUSSIAN, 1.5),
        (uniform_nodes(128), POISSON, 4.0),
    ],
    ids=["n513", "n257", "perturbed-n257", "n257-poisson"],
)
def test_factor_in_place_equals_factor_of_a_copy(monkeypatch, nodes, family, alpha):
    factored = []

    def recording(a, **kwargs):
        factor, info = dpotrf(a, **kwargs)
        factored.append((a, factor))
        return factor, info

    monkeypatch.setattr(engine, "dpotrf", recording)
    values = signal_spectrum(get_signal("gauss_pair"), GRID, 4).values
    solve_coefficients(family, alpha, nodes, sample_band_signal(values, GRID, nodes))
    [(given, factor)] = factored
    matrix = collocation_matrix(family, alpha, nodes)
    assert np.array_equal(matrix, matrix.T)
    # Written over the matrix, not over a copy of it.
    assert np.shares_memory(factor, given) and given.flags.f_contiguous
    assert np.array_equal(factor, cho_factor(matrix)[0])


def test_inverse_ft_without_empty_bands_equals_sum_over_all_bands():
    spectrum = signal_spectrum(get_signal("two_band"), GRID, 4)
    empty = [band for band in spectrum.values if not np.any(band)]
    assert len(empty) == 7
    every = np.zeros(len(SPATIAL), dtype=complex)
    for m, g_m in enumerate(band_inverse(spectrum.values, GRID, SPATIAL), -spectrum.m_max):
        every += cis(TWO_PI * m * SPATIAL) * g_m
    assert np.array_equal(inverse_ft_at(spectrum, GRID, SPATIAL), every)


@pytest.mark.parametrize("points", [256, 512, 300])
def test_forward_transform_in_row_blocks_equals_whole_exponential_matrix(approximants, points):
    grid = frequency_grid(points)
    approx = approximants["uniform-N256"]
    target = measurement_target(get_signal("gauss_pair"), grid, spatial_grid(16.0, 20), 4)
    assert np.array_equal(np.delete(target.points, target.spatial), WINDOW)
    window_values = np.delete(target.values, target.spatial)
    residual = target.wq * (window_values - evaluate_J(approx, WINDOW))
    # The transform of `metrics.error_report`, in its mirrored blocks and whole.
    [streamed] = band_forward(residual[None], WINDOW, grid, 6)
    modulated = residual[:, None] * cis(-TWO_PI * np.outer(WINDOW, np.arange(-6, 7)))
    whole = TWO_PI**-0.5 * (cis(-np.outer(grid.nodes, WINDOW)) @ modulated)
    assert np.array_equal(streamed, whole)


@pytest.mark.parametrize("case", ["uniform-N256", "uniform-N256-a0.5", "poisson-N128"])
def test_one_evaluation_over_window_and_grid_equals_one_per_point_set(approximants, case):
    # `metrics.Target` holds the spatial grid between the window's two halves
    # as one mirrored point set, so row blocks and their mirror blocks span
    # the sets where they meet, and the band-truncated signal is inverted over
    # all of them at once.
    approx = approximants[case]
    half = len(WINDOW) // 2
    points = np.concatenate([WINDOW[:half], SWEEP_GRID, WINDOW[half:]])
    grid = slice(half, half + len(SWEEP_GRID))
    spectrum = signal_spectrum(get_signal("gauss_pair"), GRID, 4)
    for evaluate in (partial(evaluate_J, approx), partial(inverse_ft_at, spectrum, GRID)):
        joint = evaluate(points)
        assert np.array_equal(np.delete(joint, grid), evaluate(WINDOW))
        assert np.array_equal(joint[grid], evaluate(SWEEP_GRID))


def test_band_forward_on_stacked_rows_equals_one_call_per_row():
    # The weighted window residuals of the N = 256 sweep's four alphas, each
    # transformed alone and all in one call, as `metrics.sweep` does.
    signal = get_signal("gauss_pair")
    nodes = uniform_nodes(256)
    target = measurement_target(signal, GRID, spatial_grid(16.0, 20), 4)
    assert np.array_equal(np.delete(target.points, target.spatial), WINDOW)
    rows = np.array(
        [
            target.wq
            * (
                np.delete(target.values, target.spatial)
                - evaluate_J(reconstruct(signal, GAUSSIAN, a, nodes, GRID, 4), WINDOW)
            )
            for a in (0.75, 1.25, 1.75, 2.5)
        ]
    )
    stacked = band_forward(rows, WINDOW, GRID, 6)
    assert stacked.shape == (4, GRID.points_per_band, 13)
    for row, transform in zip(rows, stacked):
        assert np.array_equal(transform, band_forward(row[None], WINDOW, GRID, 6)[0])
    assert np.array_equal(band_forward(rows[:1], WINDOW, GRID, 6), stacked[:1])


def test_sweep_row_is_unchanged_by_whole_matrices(monkeypatch):
    # Every site at once, through the library: one block as large as the
    # largest operator is the whole-matrix form of each.
    signal = get_signal("gauss_pair")
    nodes = uniform_nodes(256)
    target = measurement_target(signal, GRID, spatial_grid(16.0, 20), 4)

    def row():
        approx = reconstruct(signal, GAUSSIAN, 2.5, nodes, GRID, 4)
        return approx, dataclasses.asdict(error_report(approx, target))

    streamed, streamed_report = row()
    monkeypatch.setattr(spectral, "ROW_BLOCK", 10**6)
    monkeypatch.setattr(engine, "ROW_BLOCK", 10**6)
    whole, whole_report = row()
    assert np.array_equal(streamed.coefficients, whole.coefficients)
    assert np.array_equal(streamed.residuals, whole.residuals)
    assert streamed_report == whole_report


def test_perturbed_reconstruct_is_unchanged_by_whole_matrices(monkeypatch):
    # The reconstruct-n128 benchmark row at alpha = 2.5: the blocked collocation
    # matrix, sampling, residual check and evaluation on the 2561-point grid.
    signal = get_signal("two_band")
    nodes = perturbed_nodes(128, 0.2, 41)

    def run():
        approx = reconstruct(signal, GAUSSIAN, 2.5, nodes, GRID, 4)
        return approx, evaluate_J(approx, SPATIAL)

    streamed, streamed_J = run()
    for module in (spectral, engine):
        monkeypatch.setattr(module, "ROW_BLOCK", 10**6)
    whole, whole_J = run()
    assert np.array_equal(streamed.coefficients, whole.coefficients)
    assert np.array_equal(streamed.residuals, whole.residuals)
    assert np.array_equal(streamed_J, whole_J)
