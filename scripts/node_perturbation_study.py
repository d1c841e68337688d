"""Effect of node jitter on reconstruction error and conditioning.

Perturbs the uniform nodes by seeded jitter of increasing amplitude below the
1/4 separation threshold and reports the interior-window errors of the
gaussian-family approximant for a fixed signal and alpha. The point of the
study: reconstruction quality degrades gracefully all the way up to the
threshold, while the collocation conditioning drifts with the minimum gap.

The condition column is ``np.linalg.cond`` of the collocation matrix for
every amplitude. The solver's own estimate comes from the Toeplitz symbol
bound on the unperturbed nodes and from the eigenvalues on jittered ones, so
printing it would compare two estimators.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from pwamalgam import (
    collocation_matrix,
    error_report,
    frequency_grid,
    get_family,
    get_signal,
    perturbed_nodes,
    reconstruct,
    spatial_grid,
    uniform_nodes,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--signal", default="gauss_pair")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--m-max", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    signal = get_signal(args.signal)
    family = get_family("gaussian")
    grid = frequency_grid(256)
    x_grid = spatial_grid(args.n / 2.0)
    amplitudes = [0.0, 0.05, 0.1, 0.15, 0.2, 0.24]

    print(
        f"{args.signal}: alpha={args.alpha}, N={args.n}, M_max={args.m_max}, "
        f"seed={args.seed}, symmetric jitter"
    )
    print(f"{'d':>6} {'amalgam':>12} {'l2':>12} {'sup':>12} {'condition':>12}")
    for d in amplitudes:
        if d == 0.0:
            nodes = uniform_nodes(args.n)
        else:
            nodes = perturbed_nodes(args.n, d, args.seed, symmetric=True)
        approx = reconstruct(signal, family, args.alpha, nodes, grid, args.m_max)
        report = error_report(signal, approx, grid, x_grid, args.m_max + 2)
        condition = np.linalg.cond(collocation_matrix(family, args.alpha, nodes))
        print(
            f"{d:6.2f} {report.amalgam_error:12.4e} {report.l2_error:12.4e} "
            f"{report.sup_error:12.4e} {condition:12.4e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
