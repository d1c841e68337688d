"""Node sets: quarter-criterion validation and seeded perturbations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwamalgam import ContractError, DomainError, NodeSet, perturbed_nodes, uniform_nodes


def test_uniform_nodes_are_integers():
    nodes = uniform_nodes(4)
    assert nodes.count == 9
    assert np.array_equal(nodes.values, np.arange(-4.0, 5.0))
    assert nodes.perturbation_bound == 0.0
    with pytest.raises(ContractError):
        uniform_nodes(-1)


def test_uniform_means_exact_integers():
    # perturbation_bound 0 still admits 1e-15 of slack; only exact integers
    # count as uniform (they make the collocation matrix Toeplitz).
    assert uniform_nodes(4).is_uniform
    assert perturbed_nodes(4, 0.0, seed=1).is_uniform
    assert not perturbed_nodes(4, 0.1, seed=1).is_uniform
    slack = NodeSet(half_width=1, values=np.array([-1.0, 1e-16, 1.0]), perturbation_bound=0.0)
    assert not slack.is_uniform


def test_kadec_bound_named_in_rejection():
    with pytest.raises(DomainError, match="Kadec"):
        perturbed_nodes(8, 0.3, seed=0)
    with pytest.raises(DomainError, match="Kadec"):
        NodeSet(half_width=1, values=np.arange(-1.0, 2.0), perturbation_bound=0.25)


def test_displacement_must_match_declared_bound():
    values = np.array([-1.0, 0.2, 1.0])
    with pytest.raises(ContractError):
        NodeSet(half_width=1, values=values, perturbation_bound=0.1)
    NodeSet(half_width=1, values=values, perturbation_bound=0.2)


def test_nodes_must_increase():
    values = np.array([-0.9, -1.1, 0.0])  # swapped
    with pytest.raises(ContractError):
        NodeSet(half_width=1, values=values, perturbation_bound=0.2)


def test_seed_reproducibility():
    a = perturbed_nodes(16, 0.2, seed=7)
    b = perturbed_nodes(16, 0.2, seed=7)
    c = perturbed_nodes(16, 0.2, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@given(
    st.integers(min_value=1, max_value=24),
    st.floats(min_value=0.0, max_value=0.24),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
)
@settings(deadline=None)
def test_perturbed_nodes_properties(half_width, d, seed, symmetric):
    nodes = perturbed_nodes(half_width, d, seed, symmetric=symmetric)
    n = np.arange(-half_width, half_width + 1)
    assert nodes.count == 2 * half_width + 1
    # Rounding n + delta can move a node by up to half an ulp of n beyond
    # the draw bound, which dominates when d is below ulp scale.
    slack = np.spacing(half_width + 1.0)
    assert np.max(np.abs(nodes.values - n)) <= d + slack
    assert np.all(np.diff(nodes.values) > 0)
    if symmetric:
        assert np.array_equal(nodes.values[::-1], -nodes.values)
        assert nodes.values[half_width] == 0.0


def test_symmetric_flag_mirrors_exactly():
    nodes = perturbed_nodes(8, 0.2, seed=3, symmetric=True)
    assert np.array_equal(nodes.values[::-1], -nodes.values)
    loose = perturbed_nodes(8, 0.2, seed=3, symmetric=False)
    assert not np.array_equal(loose.values[::-1], -loose.values)
