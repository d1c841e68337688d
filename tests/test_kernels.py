"""Kernel families: closed forms, regularity certification, decay weights."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwamalgam import (
    ContractError,
    big_M,
    condition_bound,
    get_family,
    m_alpha,
    mj_tail_bound,
    phi_spatial,
    phi_spectral,
    precision_boundary,
    verify_regularity,
)
from pwamalgam import engine, kernels, metrics
from pwamalgam.kernels import PRECISION_CAP, regularity_checks
from .oracles import transform_by_quadrature

# Frozen closed-form oracle values.
M_ALPHA_GAUSS_1 = 7.314763141858037e-05  # sqrt(2) e^{-pi^2}
M_ALPHA_POISSON_1 = 0.054160614688782256  # sqrt(pi/2) e^{-pi}
M2_POISSON_1 = 1.011418462454034e-04  # sqrt(pi/2) e^{-3 pi}
H2_POISSON_1 = 2.0037418731973213  # 2 / (1 - e^{-2 pi})


def test_m_alpha_closed_forms():
    assert m_alpha(get_family("gaussian"), 1.0) == pytest.approx(
        M_ALPHA_GAUSS_1, rel=1e-12
    )
    assert m_alpha(get_family("poisson"), 1.0) == pytest.approx(
        M_ALPHA_POISSON_1, rel=1e-12
    )


def test_big_m_closed_form_and_symmetry():
    poisson = get_family("poisson")
    assert big_M(poisson, 1.0, 2) == pytest.approx(M2_POISSON_1, rel=1e-12)
    assert big_M(poisson, 1.0, -2) == big_M(poisson, 1.0, 2)
    with pytest.raises(ContractError):
        big_M(poisson, 1.0, 0)


def test_alpha_domain_enforced():
    gaussian = get_family("gaussian")
    assert gaussian.alpha_domain == (0.5, 3.0)
    assert get_family("poisson").alpha_domain == (0.5, 16.0)
    for alpha in (0.25, 5.0):
        with pytest.raises(ContractError):
            phi_spectral(gaussian, alpha, 0.0)
    assert phi_spectral(gaussian, 3.0, 0.0) == pytest.approx(np.sqrt(6.0))
    with pytest.raises(ContractError):
        get_family("lorentz")


@pytest.mark.parametrize("alpha", [0.5, 3.0])
def test_gaussian_is_exactly_zero_from_its_support_radius(alpha):
    # `engine` drops the node columns beyond this radius from every product.
    gaussian = get_family("gaussian")
    radius = kernels.support_radius(gaussian, alpha)
    beyond = radius + np.concatenate([[0.0], np.logspace(-15, 6, 4001), [np.inf]])
    assert np.all(phi_spatial(gaussian, alpha, np.concatenate([beyond, -beyond])) == 0.0)
    # The margin is one unit: the kernel is still positive half a unit inside.
    assert phi_spatial(gaussian, alpha, radius - 1.5) > 0.0


def test_poisson_support_radius_is_infinite():
    assert kernels.support_radius(get_family("poisson"), 0.5) == np.inf


@pytest.mark.parametrize("family_id", ["gaussian", "poisson"])
def test_spectral_matches_quadrature_oracle(family_id):
    family = get_family(family_id)
    lo, hi = family.alpha_domain
    for alpha in np.linspace(lo, min(hi, 8.0), 4):
        for xi in (0.0, 1.0, np.pi, 7.0):
            oracle = transform_by_quadrature(family_id, float(alpha), float(xi))
            assert phi_spectral(family, float(alpha), xi) == pytest.approx(
                oracle, abs=1e-9
            )


@given(
    st.sampled_from(["gaussian", "poisson"]),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(deadline=None)
def test_spectrum_positive_even_decreasing(family_id, alpha, xi):
    family = get_family(family_id)
    value = phi_spectral(family, alpha, xi)
    assert value > 0
    assert value == phi_spectral(family, alpha, -xi)
    # Strict decrease in |xi| away from the origin; near zero the difference
    # falls below double-precision resolution, so the check starts at 1e-6.
    if abs(xi) > 1e-6:
        closer = phi_spectral(family, alpha, xi * 0.5)
        assert closer > value


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
@settings(deadline=None)
def test_base_band_infimum_at_edge(alpha, xi):
    # m_alpha is the infimum of the transform over [-pi, pi].
    family = get_family("gaussian")
    assert xi > np.pi or phi_spectral(family, alpha, xi) >= m_alpha(family, alpha)


@pytest.mark.parametrize("family_id", ["gaussian", "poisson"])
def test_tail_bound_dominates_explicit_remainder(family_id):
    family = get_family(family_id)
    for alpha in (0.5, 1.0, 2.0):
        for j_max in (1, 5, 10):
            bound = mj_tail_bound(family, alpha, j_max)
            explicit = 2.0 * sum(
                big_M(family, alpha, j) for j in range(j_max + 1, j_max + 60)
            )
            assert bound >= explicit
            assert bound <= 10.0 * max(explicit, 1e-300)
    with pytest.raises(ContractError):
        mj_tail_bound(family, 1.0, 0)


def test_spatial_closed_forms():
    assert phi_spatial(get_family("gaussian"), 1.0, 2.0) == pytest.approx(
        np.exp(-1.0), rel=1e-14
    )
    assert phi_spatial(get_family("poisson"), 2.0, 2.0) == pytest.approx(
        0.25, rel=1e-14
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0, 8.0, 12.0, 16.0])
def test_condition_bound_poisson_closed_form(alpha):
    # sigma(0) = pi coth(alpha pi) and sigma(pi) = pi / sinh(alpha pi), so the
    # symbol ratio is cosh(alpha pi) across the whole domain.
    expected = np.cosh(alpha * np.pi)
    assert abs(condition_bound(get_family("poisson"), alpha) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.75])
def test_condition_bound_gaussian_spatial_oracle(alpha):
    # The spatial side of Poisson summation: sigma(xi) = sum_k phi(k) e^{-ik xi}.
    # The alternating sum for sigma(pi) cancels to about 1/cond of its terms,
    # so rounding limits this oracle to alpha <= 1.75 at 1e-9.
    family = get_family("gaussian")
    k = np.arange(-100, 101)
    values = phi_spatial(family, alpha, k.astype(float))
    expected = np.sum(values) / np.sum((-1.0) ** k * values)
    assert abs(condition_bound(family, alpha) - expected) <= 1e-9 * expected


def test_precision_boundary():
    cap = 1e12
    poisson = precision_boundary(get_family("poisson"), cap)
    assert abs(poisson - np.arccosh(cap) / np.pi) <= 1e-12
    assert 2.86 < precision_boundary(get_family("gaussian"), cap) < 2.88
    # A domain wholly below the crossing has none; one wholly above it
    # crosses at its bottom.
    below = dataclasses.replace(get_family("gaussian"), alpha_domain=(0.5, 2.0))
    above = dataclasses.replace(get_family("gaussian"), alpha_domain=(3.0, 3.5))
    assert precision_boundary(below, cap) is None
    assert precision_boundary(above, cap) == 3.0


def test_h2_ratio_values():
    reports = verify_regularity(get_family("gaussian"), [0.5, 1.5, 3.0])
    for report in reports:
        assert report.h2_ratio == pytest.approx(2.0, abs=1e-6)
    poisson = verify_regularity(get_family("poisson"), [1.0])
    assert poisson[0].h2_ratio == pytest.approx(H2_POISSON_1, rel=1e-10)


def test_regularity_sweep_monotone_profile():
    family = get_family("gaussian")
    reports = verify_regularity(family, [0.5, 1.0, 2.0, 3.0])
    assert all(r.pass_A2 and r.pass_A3 and r.pass_H2 and r.pass_H3 for r in reports)
    verdict = regularity_checks(family, reports)
    assert verdict == {
        "A2": True,
        "A3": True,
        "H2": True,
        "H3_monotone": True,
        "H3_final": True,
        "precision_boundary_alpha": precision_boundary(family, PRECISION_CAP),
    }
    # Profile entries shrink between consecutive alphas at every frequency.
    for prev, curr in zip(reports, reports[1:]):
        for xi, ratio in curr.h3_ratio_at.items():
            assert ratio < prev.h3_ratio_at[xi]


def test_h3_final_requires_deep_sweep():
    family = get_family("gaussian")
    shallow = verify_regularity(family, [0.5, 0.75])
    assert regularity_checks(family, shallow)["H3_final"] is False
    assert regularity_checks(family, shallow)["H3_monotone"] is True


def test_verify_regularity_rejects_empty_sweep():
    with pytest.raises(ContractError):
        verify_regularity(get_family("gaussian"), [])


def test_default_tolerances():
    assert kernels.H2_CAP == 2.5
    assert kernels.H3_FINAL == 1e-3
    assert kernels.A3_TAIL_REL == 1e-12
    assert kernels.INFIMUM_GRID_POINTS == 4096
    assert kernels.J_MAX == 10
    assert engine.SOLVER_TOL == 1e-8
    assert metrics.QUADRATURE_REFINEMENT == 2
