"""Signal catalog: closed forms, band slicing, tails, reassembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pwamalgam import (
    ContractError,
    band_l2_norm,
    band_slice,
    builtin_signals,
    frequency_grid,
    get_signal,
    reassemble_check,
    sample_band_signal,
    signal_spectrum,
    spatial_grid,
    uniform_nodes,
)
from pwamalgam.signals import _cauchy_band_norm_sq

# Frozen closed-form values.
CAUCHY_FHAT_0 = 0.7978845608028654  # sqrt(2/pi)
GAUSS_FHAT_PI = 0.007191883355826368  # e^{-pi^2/2}
GAUSS_SAMPLE_0 = 0.9983196836634732  # erf(pi/sqrt(2)), band-0 value at x=0


def test_catalog_contents():
    signals = {s.signal_id: s for s in builtin_signals()}
    assert set(signals) == {"gauss_pair", "tri_band", "cauchy_decay", "two_band", "zero"}
    assert signals["gauss_pair"].class_tags == {"schwartz"}
    assert signals["tri_band"].class_tags == {"compact_band"}
    assert signals["cauchy_decay"].class_tags == {"polynomial_decay"}
    assert signals["two_band"].class_tags == {"compact_band"}
    assert not signals["two_band"].is_real
    assert signals["two_band"].f is None
    for name in ("gauss_pair", "tri_band", "cauchy_decay", "zero"):
        assert signals[name].is_real
        assert signals[name].f is not None
    with pytest.raises(ContractError):
        get_signal("chirp")


def test_closed_form_point_values():
    assert get_signal("cauchy_decay").fhat(np.array([0.0]))[0].real == pytest.approx(
        CAUCHY_FHAT_0, rel=1e-14
    )
    assert get_signal("gauss_pair").fhat(np.array([np.pi]))[0].real == pytest.approx(
        GAUSS_FHAT_PI, rel=1e-14
    )
    tri = get_signal("tri_band")
    assert tri.fhat(np.array([np.pi]))[0] == 0.0
    assert tri.f(np.array([0.0]))[0] == pytest.approx(np.sqrt(np.pi / 2), rel=1e-14)


@given(st.floats(min_value=-20.0, max_value=20.0))
@settings(deadline=None)
def test_real_signals_have_real_even_spectra(xi):
    for name in ("gauss_pair", "tri_band", "cauchy_decay", "zero"):
        fhat = get_signal(name).fhat
        plus = fhat(np.array([xi]))[0]
        minus = fhat(np.array([-xi]))[0]
        assert plus.imag == 0.0
        assert plus == np.conj(minus)


def test_band_slice_coordinates():
    grid = frequency_grid(64)
    sig = get_signal("cauchy_decay")
    band = band_slice(sig, 3, grid)
    assert band.band_index == 3
    expected = sig.fhat(grid.nodes + 6 * np.pi)
    assert np.array_equal(band.values, expected)


def test_two_band_support():
    grid = frequency_grid(128)
    for m in (-3, -2, -1, 2, 3):
        assert not np.any(band_slice(get_signal("two_band"), m, grid).values)
    for m in (0, 1):
        assert np.any(band_slice(get_signal("two_band"), m, grid).values)


def test_two_band_tail_bound_dominates_band_one():
    grid = frequency_grid(256)
    sig = get_signal("two_band")
    norm_band1 = band_l2_norm(band_slice(sig, 1, grid), grid)
    assert sig.tail_bound(0) >= norm_band1
    assert sig.tail_bound(1) == 0.0


def test_cauchy_band_norms_match_quadrature():
    for m in (1, 10, 100):
        closed = float(_cauchy_band_norm_sq(np.array([float(m)]))[0])
        numeric, _ = quad(
            lambda xi: (2 / np.pi) / (1 + xi * xi) ** 2,
            (2 * m - 1) * np.pi,
            (2 * m + 1) * np.pi,
        )
        assert closed == pytest.approx(numeric, rel=1e-9)
    # Far bands stay finite and positive where the naive arctan difference
    # would cancel to zero or go negative.
    far = _cauchy_band_norm_sq(np.array([5e3, 9e3], dtype=float))
    assert np.all(far > 0)
    assert np.all(np.isfinite(np.sqrt(far)))


def test_cauchy_tail_bound_properties():
    sig = get_signal("cauchy_decay")
    grid = frequency_grid(256)
    # The bound dominates explicitly summed norms over the next 200 bands.
    for m_max in (0, 4, 8):
        explicit = 2.0 * sum(
            np.sqrt(float(_cauchy_band_norm_sq(np.array([float(m)]))[0]))
            for m in range(m_max + 1, m_max + 201)
        )
        assert sig.tail_bound(m_max) >= explicit
    # Amalgam membership at the default working truncation: the unseen tail
    # is below one percent of the total.
    head = sum(
        band_l2_norm(band_slice(sig, m, grid), grid) for m in range(-8, 9)
    )
    tail = sig.tail_bound(8)
    assert tail / (head + tail) < 0.01


def test_gauss_tail_bound_decays():
    sig = get_signal("gauss_pair")
    assert sig.tail_bound(1) < 1e-8
    assert sig.tail_bound(4) < 1e-80
    assert sig.tail_bound(0) > sig.tail_bound(1) > sig.tail_bound(2)
    with pytest.raises(ContractError):
        sig.tail_bound(-1)


def test_signal_spectrum_assembly():
    grid = frequency_grid(64)
    spectrum = signal_spectrum(get_signal("gauss_pair"), grid, 3)
    assert spectrum.truncation_bound == 3
    assert [b.band_index for b in spectrum.bands] == list(range(-3, 4))
    assert spectrum.tail_estimate == get_signal("gauss_pair").tail_bound(3)


def test_sample_band_signal_oracle():
    grid = frequency_grid(256)
    nodes = uniform_nodes(4)
    band = band_slice(get_signal("gauss_pair"), 0, grid)
    samples = sample_band_signal(band, grid, nodes)
    assert samples[4] == pytest.approx(GAUSS_SAMPLE_0, rel=1e-12)
    # Real even band: samples are real and even in the node index.
    assert np.max(np.abs(samples.imag)) < 1e-15
    assert np.allclose(samples, samples[::-1].conj(), atol=1e-15)


def test_stacked_sampling_matches_single_bands():
    grid = frequency_grid(128)
    nodes = uniform_nodes(8)
    bands = [band_slice(get_signal("two_band"), m, grid) for m in range(-2, 3)]
    stacked = sample_band_signal(bands, grid, nodes)
    assert stacked.shape == (5, nodes.count)
    for row, band in zip(stacked, bands):
        assert np.array_equal(row, sample_band_signal(band, grid, nodes))
    with pytest.raises(ContractError):
        sample_band_signal([], grid, nodes)


def test_sample_band_grid_mismatch():
    grid = frequency_grid(64)
    band = band_slice(get_signal("gauss_pair"), 0, frequency_grid(32))
    with pytest.raises(ContractError):
        sample_band_signal(band, grid, uniform_nodes(2))


def test_reassembly_closed_forms():
    grid = frequency_grid(256)
    x_grid = spatial_grid(4.0, 10)
    # Compactly supported and rapidly decaying spectra reassemble to the
    # closed spatial forms at quadrature accuracy.
    assert reassemble_check(get_signal("tri_band"), grid, 4, x_grid) < 1e-8
    assert reassemble_check(get_signal("gauss_pair"), grid, 4, x_grid) < 1e-6
    assert reassemble_check(get_signal("zero"), grid, 2, x_grid) == 0.0
    # Polynomial decay converges slowly; the defect shrinks with the cut.
    d4 = reassemble_check(get_signal("cauchy_decay"), grid, 4, x_grid)
    d8 = reassemble_check(get_signal("cauchy_decay"), grid, 8, x_grid)
    assert d8 < d4 < 0.05
    with pytest.raises(ContractError):
        reassemble_check(get_signal("two_band"), grid, 2, x_grid)
