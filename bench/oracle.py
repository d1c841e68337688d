"""Reference values of ``f`` and ``J_alpha f`` for the reconstruct workload.

The reconstruct workload draws its perturbed nodes from the benchmark seed,
so its outputs cannot be stored once. This module recomputes them at the
same nodes with a path that shares no code with ``pwamalgam.engine``,
``pwamalgam.metrics`` or the sampling in ``pwamalgam.signals``: the band
samples come from one quadrature matrix product, the collocation system is
solved by LU with all bands as columns, and ``J_alpha f`` is assembled by
one product. Only the inputs (signal transform, kernel, grid, nodes) come
from the package.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def reference_values(config, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band-truncated ``f`` and ``J_alpha f`` at `xs` for a single-alpha config."""
    from pwamalgam.kernels import phi_spatial

    (alpha,) = config.alpha_values()
    family = config.make_family()
    signal = config.make_signal()
    grid = config.make_grid()
    nodes = config.make_nodes().values
    bands = np.arange(-config.m_max, config.m_max + 1)

    # Row m holds w * fhat(xi + 2 pi m) on the baseband quadrature nodes.
    spectra = grid.weights * signal.fhat(grid.nodes[None, :] + TWO_PI * bands[:, None])

    def baseband(x: np.ndarray) -> np.ndarray:
        """g_m(x) for every band m, shape (len(x), bands)."""
        return TWO_PI**-0.5 * np.exp(1j * np.outer(x, grid.nodes)) @ spectra.T

    matrix = phi_spatial(family, alpha, nodes[:, None] - nodes[None, :])
    coeffs = np.linalg.solve(matrix, baseband(nodes))
    modulation = np.exp(1j * TWO_PI * np.outer(xs, bands))
    f = np.sum(modulation * baseband(xs), axis=1)
    kernel = phi_spatial(family, alpha, xs[:, None] - nodes[None, :])
    return f, np.sum(modulation * (kernel @ coeffs), axis=1)
