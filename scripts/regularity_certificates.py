"""Print regularity certificates for both kernel families across their domains.

For each family the sweep reports the base-band infimum, the band-sum ratio,
the Toeplitz condition bound on integer nodes and the decay-weight profile,
then the sweep-level verdict and the precision boundary: the alpha where the
condition bound crosses the precision cap. Exit status is 0 only if every
family passes every check.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from pwamalgam import get_family, precision_boundary, regularity_verdict, verify_regularity
from pwamalgam.engine import PRECISION_CAP


def run_family(family_id: str, count: int) -> bool:
    family = get_family(family_id)
    lo, hi = family.alpha_domain
    sweep = [float(a) for a in np.linspace(lo, hi, count)]
    reports = verify_regularity(family, sweep)
    verdict = regularity_verdict(reports)

    print(f"\n{family_id}: alpha in [{lo}, {hi}], {count} points")
    print(
        f"{'alpha':>8} {'delta':>12} {'h2_ratio':>10} {'cond_bound':>12} "
        f"{'max_h3':>12} {'tail':>10}"
    )
    for r in reports:
        max_h3 = max(r.h3_profile.values())
        print(
            f"{r.alpha:8.3f} {r.delta_estimate:12.4e} {r.h2_ratio:10.5f} "
            f"{r.condition_bound:12.4e} {max_h3:12.4e} {r.mj_tail:10.2e}"
        )
    print("verdict:", ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in verdict.items()))
    boundary = precision_boundary(family, PRECISION_CAP)
    where = "never" if boundary is None else f"at alpha={boundary:.4f}"
    print(f"precision boundary: condition bound crosses {PRECISION_CAP:.0e} {where}")
    return all(verdict.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=6, help="alphas per family")
    args = parser.parse_args(argv)
    ok = all([run_family("gaussian", args.count), run_family("poisson", args.count)])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
