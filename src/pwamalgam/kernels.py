"""Regular interpolator families with closed-form spatial and spectral sides.

Two one-parameter families are built in:

- gaussian: ``phi_a(x) = exp(-x^2 / 4a)`` with transform ``sqrt(2a) exp(-a xi^2)``,
- poisson: ``phi_a(x) = a / (x^2 + a^2)`` with transform ``sqrt(pi/2) exp(-a |xi|)``.

Both transforms follow the convention ``(2*pi)^{-1/2} int phi(x) e^{-ix xi} dx``.
Both spectra are even and strictly decreasing in ``|xi|``, so the base-band
infimum ``m_alpha`` is attained at ``xi = pi`` and the shifted-band suprema
``M_j`` at the near edge ``(2|j|-1) pi``.

`verify_regularity` certifies, per alpha, the positivity of the base-band
infimum, the summability of the band suprema (explicit head plus analytic
tail), the ratio ``sum_{j!=0} M_j / m_alpha``, and the decay of the weight
``m_alpha / phi_hat_alpha(xi)`` over a grid of interior frequencies. The
head length, the frequency grid and the pass thresholds are module constants.

On the integer nodes ``x_n = n`` the collocation matrix ``phi_alpha(j - k)``
is a finite section of a Toeplitz matrix whose symbol, by Poisson summation,
is ``sigma(xi) = sqrt(2 pi) sum_j phi_hat_alpha(xi + 2 pi j)``. For these
even, decreasing spectra the symbol is largest at ``xi = 0`` and smallest at
``xi = pi``, where ``sigma(pi) = sqrt(2 pi) 2 sum_{j>=1} M_j``. Every
eigenvalue of every finite section lies in ``[sigma(pi), sigma(0)]``
(Grenander-Szego), so `condition_bound` returns ``sigma(0) / sigma(pi)`` as
an upper bound on its 2-norm condition number.

Integrability and continuity of the kernels and their transforms are analytic
facts of the two families, documented here and not machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError

# Head length for explicit M_j sums; tails beyond are bounded analytically.
# Ten terms keep the poisson tail below 1e-12 of the head even at the domain
# bottom alpha = 0.5, where each extra term only gains e^{-pi}.
J_MAX = 10
# Interior frequencies for the decay-weight profile. The largest |xi| is
# 2*pi/3 so the weight still clears tight thresholds at the top of the
# poisson alpha domain (the weight at xi decays like exp(-alpha (pi - |xi|))).
XI_GRID = (
    0.0,
    np.pi / 4,
    -np.pi / 4,
    np.pi / 2,
    -np.pi / 2,
    2 * np.pi / 3,
    -2 * np.pi / 3,
)
# Certification thresholds, read by `verify_regularity` and `regularity_checks`.
INFIMUM_GRID_POINTS = 4096
H2_CAP = 2.5
A3_TAIL_REL = 1e-12
H3_FINAL = 1e-3
# Condition estimate beyond which solves are flagged instead of failed.
PRECISION_CAP = 1e12
# Exponents below this give the gaussian kernel exactly 0.0: it is the log of
# the smallest normal double, exp of it is normal, and exp of the next double
# down is subnormal. Zeroing the subnormals, 2.2% of the kernel entries that
# an N = 256 sweep evaluates, leaves every output as it was (the sha256 pins
# of the outputs show it), and spares each exp, matrix-vector product and
# Cholesky step that would touch one the processor's slow path.
_EXP_ZERO = float(np.log(np.finfo(float).tiny))


@dataclass(frozen=True)
class InterpolatorFamily:
    """A parametrized interpolation kernel with closed-form transform.

    Attributes
    ----------
    family_id : str
        "gaussian" or "poisson" for the built-ins.
    alpha_domain : tuple of float
        Admissible ``[lo, hi]`` range for the parameter alpha.
    """

    family_id: str
    alpha_domain: tuple[float, float]
    _spatial: Callable[..., np.ndarray] = field(repr=False)
    _spectral: Callable[[float, np.ndarray], np.ndarray] = field(repr=False)
    _mj_tail: Callable[[float, int], float] = field(repr=False)
    _support: Callable[[float], float] = field(repr=False)

    def check_alpha(self, alpha: float) -> None:
        lo, hi = self.alpha_domain
        if not (lo <= alpha <= hi):
            raise DomainError(
                f"alpha={alpha} outside {self.family_id} domain [{lo}, {hi}]"
            )


def _gaussian_spatial(
    alpha: float, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # The exponent is built in `out`, which may be `x`, or in a new array
    # (``out=`` keeps 0-d input an array), and exp runs only where its result
    # is normal; elsewhere it is 0.0. One mask serves both steps, inverted in
    # place between them.
    out = np.square(x, out=np.empty_like(x) if out is None else out)
    np.negative(out, out=out)
    out /= 4.0 * alpha
    mask = np.less(out, _EXP_ZERO, out=np.empty_like(out, dtype=bool))
    np.exp(out, out=out, where=np.logical_not(mask, out=mask))
    np.copyto(out, 0.0, where=np.logical_not(mask, out=mask))
    return out


def _gaussian_support(alpha: float) -> float:
    # |x| at which the exponent -x^2 / 4a reaches _EXP_ZERO, plus one unit so
    # that the rounding of x^2 / 4a cannot bring a point beyond it back to it.
    return float(np.sqrt(-4.0 * alpha * _EXP_ZERO)) + 1.0


def _gaussian_spectral(alpha: float, xi: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * alpha) * np.exp(-alpha * xi**2)


def _gaussian_mj_tail(alpha: float, j_max: int) -> float:
    # sum_{j > J} sqrt(2a) e^{-a((2j-1)pi)^2}, ratio of consecutive terms is
    # e^{-8 a j pi^2} <= e^{-8 a (J+1) pi^2}, so a geometric bound is rigorous.
    first = np.sqrt(2.0 * alpha) * np.exp(-alpha * ((2 * j_max + 1) * np.pi) ** 2)
    ratio = np.exp(-8.0 * alpha * (j_max + 1) * np.pi**2)
    return float(2.0 * first / (1.0 - ratio))


def _poisson_spatial(
    alpha: float, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    out = np.square(x, out=np.empty_like(x) if out is None else out)
    out += alpha**2
    return np.divide(alpha, out, out=out)


def _poisson_spectral(alpha: float, xi: np.ndarray) -> np.ndarray:
    return np.sqrt(np.pi / 2.0) * np.exp(-alpha * np.abs(xi))


def _poisson_mj_tail(alpha: float, j_max: int) -> float:
    # Exact geometric series: sum_{j > J} e^{-(2j-1) a pi}.
    first = np.sqrt(np.pi / 2.0) * np.exp(-alpha * (2 * j_max + 1) * np.pi)
    return float(2.0 * first / (1.0 - np.exp(-2.0 * alpha * np.pi)))


_FAMILIES = {
    "gaussian": InterpolatorFamily(
        family_id="gaussian",
        # Domain top motivated by conditioning: the collocation symbol ratio
        # grows like e^{alpha pi^2}; it crosses 1e12 at alpha ~ 2.870 and
        # reads 3.6e12 at alpha = 3.
        alpha_domain=(0.5, 3.0),
        _spatial=_gaussian_spatial,
        _spectral=_gaussian_spectral,
        _mj_tail=_gaussian_mj_tail,
        _support=_gaussian_support,
    ),
    "poisson": InterpolatorFamily(
        family_id="poisson",
        # The symbol ratio cosh(alpha pi) crosses 1e12 at acosh(1e12) / pi ~
        # 9.016, so rows above are precision-limited. verify-family certifies
        # the top, but from alpha ~ 13.25 (6e17) Cholesky breaks down and solves
        # can raise ConditioningError (N = 32, 128, 256; perturbed N = 128).
        alpha_domain=(0.5, 16.0),
        _spatial=_poisson_spatial,
        _spectral=_poisson_spectral,
        _mj_tail=_poisson_mj_tail,
        _support=lambda alpha: np.inf,
    ),
}


def get_family(family_id: str) -> InterpolatorFamily:
    """Look up a built-in family."""
    if family_id not in _FAMILIES:
        raise ContractError(f"unknown family {family_id!r}")
    return _FAMILIES[family_id]


def phi_spatial(
    family: InterpolatorFamily,
    alpha: float,
    x: float | np.ndarray,
    out: np.ndarray | None = None,
) -> float | np.ndarray:
    """Evaluate the kernel ``phi_alpha`` at point(s) ``x``.

    With `out`, a float array of the shape of `x` that may be `x` itself, the
    values are written there and `out` is returned; the kernel allocates
    nothing beside it but the gaussian's one boolean mask. The values are the
    same bits either way: each entry goes through the same operations in the
    same order.
    """
    family.check_alpha(alpha)
    values = family._spatial(alpha, np.asarray(x, dtype=float), out)
    return float(values) if out is None and values.ndim == 0 else values


def phi_spectral(
    family: InterpolatorFamily, alpha: float, xi: float | np.ndarray
) -> float | np.ndarray:
    """Evaluate the closed-form transform ``phi_hat_alpha`` at ``xi``."""
    family.check_alpha(alpha)
    out = family._spectral(alpha, np.asarray(xi, dtype=float))
    return float(out) if np.isscalar(xi) or np.asarray(xi).ndim == 0 else out


def support_radius(family: InterpolatorFamily, alpha: float) -> float:
    """Distance beyond which `phi_spatial` is exactly 0.0; inf if it never is.

    For the gaussian this is ``sqrt(-4 alpha _EXP_ZERO) + 1``, that is
    ``sqrt(2833.6 alpha) + 1`` (38.6 to 93.2 over its domain), within which it
    is 0.0 too wherever its value would be subnormal; the poisson kernel is
    positive everywhere.
    """
    family.check_alpha(alpha)
    return family._support(alpha)


def m_alpha(family: InterpolatorFamily, alpha: float) -> float:
    """Base-band infimum of the transform, attained at the band edge pi."""
    return float(phi_spectral(family, alpha, np.pi))


def big_M(family: InterpolatorFamily, alpha: float, j: int) -> float:
    """Supremum of the transform over shifted band ``j``, ``j != 0``.

    For the built-in monotone spectra this is the value at the near band
    edge ``(2|j| - 1) pi``; even symmetry gives ``M_j = M_{-j}``.
    """
    if j == 0:
        raise ContractError("big_M requires a nonzero band index")
    return float(phi_spectral(family, alpha, (2 * abs(j) - 1) * np.pi))


def mj_tail_bound(family: InterpolatorFamily, alpha: float, j_max: int) -> float:
    """Analytic upper bound on ``sum_{|j| > j_max} M_j``."""
    family.check_alpha(alpha)
    if j_max < 1:
        raise ContractError("tail bound needs j_max >= 1")
    return family._mj_tail(alpha, j_max)


def condition_bound(family: InterpolatorFamily, alpha: float) -> float:
    """Upper bound ``sigma(0) / sigma(pi)`` on the condition number on integer nodes.

    Holds for the collocation matrix ``phi_alpha(j - k)`` of any size; the
    common factor ``sqrt(2 pi)`` cancels. Both symbol values sum the explicit
    head ``|j| <= J_MAX``, and the analytic tail bound is added to
    ``sigma(0)`` only (``phi_hat(2 pi j) <= M_j``), so the ratio stays an upper
    bound. A ``sigma(pi)`` that underflows gives inf, silently.

    The bound does not depend on the matrix size, while the condition number
    of a finite section grows towards it with ``N``, so the overshoot grows
    without limit as ``N`` falls: for gaussian ``alpha = 3`` it is 1.01x at
    ``N = 256``, 2x at ``N = 32``, 17x at ``N = 16``, 2e3 at ``N = 8`` and
    1e10 at ``N = 1`` (the ``1 x 1`` section, ``N = 0``, has condition 1).
    """
    shifts = 2.0 * np.pi * np.arange(1, J_MAX + 1)
    top = phi_spectral(family, alpha, 0.0) + 2.0 * float(
        np.sum(phi_spectral(family, alpha, shifts))
    )
    top += mj_tail_bound(family, alpha, J_MAX)
    bottom = 2.0 * sum(big_M(family, alpha, j) for j in range(1, J_MAX + 1))
    with np.errstate(divide="ignore"):
        return float(np.float64(top) / bottom)


def precision_boundary(family: InterpolatorFamily, cap: float) -> float | None:
    """The ``alpha`` in the family's domain where `condition_bound` crosses `cap`.

    The bound increases with ``alpha``, so bisection brackets the crossing to
    rounding. Returns the domain bottom when the bound already exceeds `cap`
    there, and None when it stays at or below `cap` over the whole domain.
    """
    lo, hi = family.alpha_domain
    if condition_bound(family, hi) <= cap:
        return None
    if condition_bound(family, lo) > cap:
        return float(lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if condition_bound(family, mid) > cap:
            hi = mid
        else:
            lo = mid
    return float(hi)


@dataclass(frozen=True)
class RegularityReport:
    """Numeric certificate for one alpha.

    The fields, in order, are the columns of ``regularity.csv``;
    `h3_ratio_at` gives one column per frequency.
    `condition_bound` bounds the condition number of the collocation matrix
    on integer nodes (see `condition_bound`).
    `h3_ratio_at` maps each grid frequency to ``m_alpha / phi_hat_alpha(xi)``;
    `pass_H3` means every profile entry strictly decreased from the previous
    alpha in the sweep (vacuously true for the first report). The final-value
    threshold is a sweep-level check, decided by `regularity_checks`.
    """

    alpha: float
    delta_estimate: float
    m_alpha: float
    h2_ratio: float
    condition_bound: float
    mj_tail: float
    h3_ratio_at: dict[float, float]
    pass_A2: bool
    pass_A3: bool
    pass_H2: bool
    pass_H3: bool


def verify_regularity(
    family: InterpolatorFamily, alpha_sweep: list[float]
) -> list[RegularityReport]:
    """Certify the family's interpolator axioms numerically over a sweep.

    Per alpha: the base-band infimum is estimated on a uniform grid and
    cross-checked against the analytic edge value (agreement to 1e-12
    relative is enforced), the band suprema are summed explicitly up to
    `J_MAX` with the analytic tail bound, the Toeplitz condition bound of
    `condition_bound` is recorded, and the decay weight is profiled over
    `XI_GRID`.

    Returns
    -------
    list of RegularityReport
        Ordered as the sweep, which must be strictly ascending: the decay
        check compares each profile with the previous alpha's.
    """
    if not alpha_sweep:
        raise ContractError("alpha_sweep must be nonempty")
    if any(b <= a for a, b in zip(alpha_sweep, alpha_sweep[1:])):
        raise ContractError("alpha_sweep must be strictly ascending")
    reports: list[RegularityReport] = []
    prev_profile: dict[float, float] | None = None
    grid = np.linspace(-np.pi, np.pi, INFIMUM_GRID_POINTS + 1)
    for alpha in alpha_sweep:
        family.check_alpha(alpha)
        delta_estimate = float(np.min(phi_spectral(family, alpha, grid)))
        m_a = m_alpha(family, alpha)
        if not np.isclose(delta_estimate, m_a, rtol=1e-12, atol=0.0):
            raise ContractError(
                f"grid infimum {delta_estimate} disagrees with edge value {m_a}"
            )
        tail = mj_tail_bound(family, alpha, J_MAX)
        head = 2.0 * sum(big_M(family, alpha, j) for j in range(1, J_MAX + 1))
        h2_ratio = (head + tail) / m_a
        profile = {
            float(xi): m_a / float(phi_spectral(family, alpha, xi)) for xi in XI_GRID
        }
        pass_h3 = prev_profile is None or all(
            profile[xi] < prev_profile[xi] for xi in profile
        )
        reports.append(
            RegularityReport(
                alpha=float(alpha),
                delta_estimate=delta_estimate,
                m_alpha=m_a,
                h2_ratio=float(h2_ratio),
                condition_bound=condition_bound(family, alpha),
                mj_tail=tail,
                h3_ratio_at=profile,
                pass_A2=delta_estimate > 0.0,
                pass_A3=tail < A3_TAIL_REL * head,
                pass_H2=h2_ratio <= H2_CAP,
                pass_H3=pass_h3,
            )
        )
        prev_profile = profile
    return reports


def regularity_checks(family: InterpolatorFamily, reports: list[RegularityReport]) -> dict:
    """The checks of a regularity sweep: the per-report flags by conjunction,
    ``H3_final`` (the final report's profile below `H3_FINAL` at every grid
    frequency) and the `precision_boundary` at `PRECISION_CAP`."""
    return {
        "A2": all(r.pass_A2 for r in reports),
        "A3": all(r.pass_A3 for r in reports),
        "H2": all(r.pass_H2 for r in reports),
        "H3_monotone": all(r.pass_H3 for r in reports),
        "H3_final": all(v < H3_FINAL for v in reports[-1].h3_ratio_at.values()),
        "precision_boundary_alpha": precision_boundary(family, PRECISION_CAP),
    }
