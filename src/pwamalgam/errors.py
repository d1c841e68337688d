"""Exception hierarchy for the pwamalgam library.

Two families of failure are distinguished deliberately: requests outside the
documented contract (`ContractError`, whose subclass `ConfigError` covers
configurations, CLI options and output paths) and numeric failures of an
in-contract computation (`ConditioningError`, `AccuracyError`). The CLI maps
the first family to exit code 2 and the second to exit code 1.
"""

from __future__ import annotations


class PwAmalgamError(Exception):
    """Base class for all library errors."""


class ContractError(PwAmalgamError):
    """An operation was called with arguments violating its contract."""


class ConfigError(ContractError):
    """An experiment configuration, CLI option or output path was rejected."""


class ConditioningError(PwAmalgamError):
    """The collocation matrix lost numerical positive definiteness.

    Attributes
    ----------
    condition_estimate : float
        The matrix has no factor to estimate from. On the integer nodes this
        is `kernels.condition_bound`, the Toeplitz symbol bound; off them no
        condition bound holds and it is ``inf``.
    """

    def __init__(self, message: str, condition_estimate: float) -> None:
        super().__init__(message)
        self.condition_estimate = float(condition_estimate)


class AccuracyError(PwAmalgamError):
    """A solve finished but its interpolation residual exceeds tolerance.

    Attributes
    ----------
    residual : float
        Max-norm interpolation residual of the rejected solution.
    condition_estimate : float
        1-norm condition estimate of the solved matrix, from its factor.
    """

    def __init__(self, message: str, residual: float, condition_estimate: float) -> None:
        super().__init__(message)
        self.residual = float(residual)
        self.condition_estimate = float(condition_estimate)
