"""Reconstruction error sweep for the builtin signals with the gaussian family.

Runs the standard interior-window sweep per signal, prints the three error
columns with their first-to-last fold factors, and reports how tightly the
measured amalgam error tracks the analytic bound.
"""

from __future__ import annotations

import argparse
import sys

from pwamalgam import frequency_grid, get_family, get_signal, spatial_grid, sweep, uniform_nodes

DEFAULT_ALPHAS = [0.75, 1.25, 1.75, 2.5]


def run_signal(signal_id: str, alphas: list[float], n: int, m_max: int) -> None:
    signal = get_signal(signal_id)
    family = get_family("gaussian")
    reports = sweep(
        signal,
        family,
        alphas,
        uniform_nodes(n),
        frequency_grid(256),
        spatial_grid(n / 2.0),
        m_max,
        m_max + 2,
    )
    print(f"\n{signal_id}: N={n}, M_max={m_max}, interior window [-{n / 2}, {n / 2}]")
    print(f"{'alpha':>6} {'amalgam':>12} {'l2':>12} {'sup':>12} {'bound_ratio':>12}")
    for r in reports:
        print(
            f"{r.alpha:6.2f} {r.amalgam_error:12.4e} {r.l2_error:12.4e} "
            f"{r.sup_error:12.4e} {r.bound_ratio:12.4f}"
        )
    clean = [r for r in reports if not r.flags]
    if len(clean) >= 2:
        for label, column in [
            ("amalgam", [r.amalgam_error for r in clean]),
            ("l2", [r.l2_error for r in clean]),
            ("sup", [r.sup_error for r in clean]),
        ]:
            fold = column[0] / column[-1] if column[-1] else float("inf")
            print(f"fold {label}: {fold:.2f}x over alpha {clean[0].alpha} -> {clean[-1].alpha}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--signals", nargs="+", default=["gauss_pair", "two_band"])
    parser.add_argument("--n", type=int, default=32, help="node half-width")
    parser.add_argument("--m-max", type=int, default=4, help="band truncation")
    args = parser.parse_args(argv)
    for signal_id in args.signals:
        run_signal(signal_id, DEFAULT_ALPHAS, args.n, args.m_max)
    return 0


if __name__ == "__main__":
    sys.exit(main())
