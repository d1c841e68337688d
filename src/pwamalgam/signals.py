"""Test-signal catalog with closed-form spectra, band slicing, and sampling.

Band slicing restricts the spectrum to ``[2*pi*m - pi, 2*pi*m + pi]`` and
shifts it to baseband: ``g_m(xi) = fhat(xi + 2*pi*m)``. Bands are half-open
``[-pi, pi)`` in shifted coordinates as an edge convention; the Gauss-Legendre
grids never place nodes on band edges, so the convention only matters for the
definition, not the numerics.

Sampling of the baseband pieces at interpolation nodes always goes through
frequency-side quadrature (not spatial closed forms), so the same path works
for synthetic spectra that have no closed-form spatial side.

Each signal declares an analytic `tail_bound(M)` on the summed band L2 norms
beyond ``|m| = M``; band truncation is an artifact decision and its cost must
always be accounted explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError
from .nodes import NodeSet
from .spectral import TWO_PI, AmalgamSpectrum, FrequencyGrid, band_inverse


@dataclass(frozen=True)
class TestSignal:
    """A reference signal given by its closed-form spectrum.

    Attributes
    ----------
    signal_id : str
        Catalog key.
    class_tags : frozenset of str
        Subset of {"schwartz", "compact_band", "polynomial_decay"}.
    is_real : bool
        Whether the time-side signal is real-valued (Hermitian spectrum).
    """

    signal_id: str
    class_tags: frozenset[str]
    is_real: bool
    fhat: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f: Callable[[np.ndarray], np.ndarray] | None = field(repr=False, default=None)
    _tail: Callable[[int], float] = field(repr=False, default=lambda m: 0.0)

    def tail_bound(self, m_max: int) -> float:
        """Analytic bound on the summed band norms beyond ``|m| = m_max``."""
        if m_max < 0:
            raise ContractError("m_max must be nonnegative")
        return float(self._tail(m_max))


def _gauss_fhat(xi: np.ndarray) -> np.ndarray:
    return np.exp(-np.asarray(xi, dtype=float) ** 2 / 2.0) + 0j


def _gauss_f(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0)


def _gauss_tail(m_max: int) -> float:
    # Each band norm is bounded by sqrt(2*pi) times the band supremum, which
    # for the decreasing Gaussian is the value at the near edge (2m-1)pi.
    ms = np.arange(m_max + 1, m_max + 61, dtype=float)
    sups = np.exp(-(((2 * ms - 1) * np.pi) ** 2) / 2.0)
    return float(2.0 * np.sqrt(TWO_PI) * sups.sum())


def _tri_fhat(xi: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(xi, dtype=float)) / np.pi) + 0j


def _tri_f(x: np.ndarray) -> np.ndarray:
    # Inverse transform of the triangle: sqrt(pi/2) * (sin(pi x / 2)/(pi x/2))^2.
    return np.sqrt(np.pi / 2.0) * np.sinc(np.asarray(x, dtype=float) / 2.0) ** 2


def _cauchy_fhat(xi: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 / np.pi) / (1.0 + np.asarray(xi, dtype=float) ** 2) + 0j


def _cauchy_f(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.abs(np.asarray(x, dtype=float)))


def _cauchy_band_norm_sq(ms: np.ndarray) -> np.ndarray:
    # Closed form: int (2/pi)(1+xi^2)^{-2} dxi = (1/pi)[r/(1+r^2) + arctan r].
    # The difference across a band is written cancellation-free so large band
    # indices stay accurate (the naive arctan difference dies by m ~ 5e3).
    lo = (2 * ms - 1) * np.pi
    hi = (2 * ms + 1) * np.pi
    d = hi - lo
    rational = d * (1.0 - hi * lo) / ((1.0 + hi**2) * (1.0 + lo**2))
    angular = np.arctan(d / (1.0 + hi * lo))
    return (rational + angular) / np.pi


_CAUCHY_PARTIAL_TERMS = 10_000


def _cauchy_tail(m_max: int) -> float:
    # Exact band norms summed out to m = 10^4, then a sup-envelope remainder
    # sum_{m > 10^4} 2/((2m-1)^2 pi^2) * 2 < 1/(pi^2 * 10^4).
    if m_max >= _CAUCHY_PARTIAL_TERMS:
        raise ContractError("tail bound table exhausted")
    ms = np.arange(m_max + 1, _CAUCHY_PARTIAL_TERMS + 1, dtype=float)
    partial = 2.0 * np.sqrt(_cauchy_band_norm_sq(ms)).sum()
    remainder = 1.0 / (np.pi**2 * _CAUCHY_PARTIAL_TERMS)
    return float(partial + remainder)


def _bump(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _two_band_fhat(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return _bump(xi / np.pi) + 0.6 * _bump((xi - TWO_PI) / np.pi) + 0j


def _two_band_tail(m_max: int) -> float:
    if m_max >= 1:
        return 0.0
    # Only band 1 lies beyond band 0; envelope bound sqrt(2*pi) * sup.
    return float(0.6 * np.sqrt(TWO_PI) * np.exp(-1.0))


def _zero_fhat(xi: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(xi, dtype=float)) + 0j


def _zero_f(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=float))


_CATALOG = (
    TestSignal(
        signal_id="gauss_pair",
        class_tags=frozenset({"schwartz"}),
        is_real=True,
        fhat=_gauss_fhat,
        f=_gauss_f,
        _tail=_gauss_tail,
    ),
    TestSignal(
        signal_id="tri_band",
        class_tags=frozenset({"compact_band"}),
        is_real=True,
        fhat=_tri_fhat,
        f=_tri_f,
        _tail=lambda m: 0.0,
    ),
    TestSignal(
        signal_id="cauchy_decay",
        class_tags=frozenset({"polynomial_decay"}),
        is_real=True,
        fhat=_cauchy_fhat,
        f=_cauchy_f,
        _tail=_cauchy_tail,
    ),
    TestSignal(
        signal_id="two_band",
        class_tags=frozenset({"compact_band"}),
        is_real=False,
        fhat=_two_band_fhat,
        f=None,
        _tail=_two_band_tail,
    ),
    TestSignal(
        signal_id="zero",
        class_tags=frozenset(),
        is_real=True,
        fhat=_zero_fhat,
        f=_zero_f,
        _tail=lambda m: 0.0,
    ),
)


def builtin_signals() -> list[TestSignal]:
    """The signal catalog, in fixed order."""
    return list(_CATALOG)


def get_signal(signal_id: str) -> TestSignal:
    for sig in _CATALOG:
        if sig.signal_id == signal_id:
            return sig
    raise ContractError(f"unknown signal {signal_id!r}")


def signal_spectrum(
    signal: TestSignal, grid: FrequencyGrid, m_max: int
) -> AmalgamSpectrum:
    """The signal's spectrum truncated to ``|m| <= m_max`` (see `AmalgamSpectrum`)."""
    xi = grid.nodes + TWO_PI * np.arange(-m_max, m_max + 1)[:, None]
    return AmalgamSpectrum(signal.fhat(xi), signal.tail_bound(m_max))


def sample_band_signal(
    values: np.ndarray, grid: FrequencyGrid, nodes: NodeSet
) -> np.ndarray:
    """Values ``g_m(x_n)`` at the interpolation nodes by quadrature inversion.

    `values` holds one band per row, as in `AmalgamSpectrum`; the result holds
    the same rows over the nodes (see `band_inverse`), each bit-identical to
    sampling that band alone.

    No ``2*pi*m`` modulation is applied here; the modulation factor enters
    when the approximant is assembled.
    """
    return band_inverse(values, grid, nodes.values)
