"""Finite truncations of complete interpolating sequences.

A node set holds ``x_n`` for ``n = -N..N`` with ``|x_n - n| <= d < 1/4``.
The bound ``d < 1/4`` is the Kadec quarter criterion, the concrete sufficient
condition under which the exponentials ``e^{i x_n xi}`` form a Riesz basis of
``L^2([-pi, pi])`` and interpolation at the nodes is uniquely solvable. The
bi-infinite sequence is truncated to a finite window; reconstruction errors
are therefore measured on an interior window downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class NodeSet:
    """Nodes ``x_n`` for ``n in {-N..N}`` with perturbation bound ``d``."""

    half_width: int
    values: np.ndarray = field(repr=False)
    perturbation_bound: float

    def __post_init__(self) -> None:
        n = np.arange(-self.half_width, self.half_width + 1)
        if self.values.shape != n.shape:
            raise ContractError("values must have length 2N+1")
        if not (0 <= self.perturbation_bound < 0.25):
            raise ContractError(
                "perturbation bound violates the Kadec 1/4 criterion (need d < 1/4)"
            )
        if np.max(np.abs(self.values - n)) > self.perturbation_bound + 1e-15:
            raise ContractError("node displacement exceeds declared bound")
        if not np.all(np.diff(self.values) > 0):
            raise ContractError("nodes must be strictly increasing")

    @property
    def count(self) -> int:
        return 2 * self.half_width + 1

    @property
    def is_uniform(self) -> bool:
        """True when the nodes are exactly the integers ``-N..N``.

        Exact equality, not ``perturbation_bound == 0``: the constructor
        allows 1e-15 of slack, and only exact integers make the collocation
        matrix Toeplitz.
        """
        n = np.arange(-self.half_width, self.half_width + 1)
        return bool(np.array_equal(self.values, n))


def uniform_nodes(half_width: int) -> NodeSet:
    """Integer nodes ``x_n = n`` for ``|n| <= half_width``."""
    if half_width < 0:
        raise ContractError("half_width must be nonnegative")
    values = np.arange(-half_width, half_width + 1, dtype=float)
    return NodeSet(half_width=half_width, values=values, perturbation_bound=0.0)


def perturbed_nodes(
    half_width: int, d: float, seed: int, symmetric: bool = False
) -> NodeSet:
    """Pseudorandomly perturbed nodes ``x_n = n + delta_n``, ``|delta_n| <= d``.

    Perturbations are drawn uniformly from ``[-d, d]`` with numpy's
    ``default_rng`` (the PCG64 generator), so node sets are reproducible
    across platforms for a fixed ``(half_width, d, seed)``.

    Parameters
    ----------
    symmetric : bool
        When set, ``x_{-n} = -x_n`` exactly (and ``x_0 = 0``); used by
        realness checks downstream. The default differs from the config's
        ``nodes.symmetric`` default of true, so ``perturbed_nodes(N, d, seed)``
        is not the node set that a config with the same ``N``, ``d`` and
        ``seed`` gets.
    """
    if half_width < 0:
        raise ContractError("half_width must be nonnegative")
    if not (0 <= d < 0.25):
        raise ContractError(
            "perturbation bound violates the Kadec 1/4 criterion (need d < 1/4)"
        )
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed!r}")
    rng = np.random.default_rng(seed)
    n = np.arange(-half_width, half_width + 1, dtype=float)
    if symmetric:
        delta_pos = rng.uniform(-d, d, size=half_width)
        delta = np.concatenate([-delta_pos[::-1], [0.0], delta_pos])
    else:
        delta = rng.uniform(-d, d, size=2 * half_width + 1)
    return NodeSet(half_width=half_width, values=n + delta, perturbation_bound=float(d))
