"""Numerical laboratory for band-decomposition signal recovery.

Signals whose spectra split into unit-width bands with summable band norms
are reconstructed by interpolating each band slice with a regular kernel
family (gaussian or poisson), modulating the per-band interpolants back to
their band centers, and summing. The package certifies the kernel regularity
conditions, measures reconstruction error in amalgam, L2, and sup norms on an
interior window, and compares against the analytic error bound.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, parse_config
from .engine import (
    Approximant,
    collocation_matrix,
    evaluate_J,
    J_spectrum_band,
    reconstruct,
    solve_coefficients,
)
from .errors import (
    AccuracyError,
    ConditioningError,
    ConfigError,
    ContractError,
    DomainError,
    PwAmalgamError,
)
from .kernels import (
    InterpolatorFamily,
    RegularityReport,
    RegularityTolerances,
    big_M,
    condition_bound,
    get_family,
    m_alpha,
    mj_tail_bound,
    phi_spatial,
    phi_spectral,
    precision_boundary,
    regularity_verdict,
    verify_regularity,
)
from .metrics import ErrorReport, error_report, sweep, truncated_signal_values
from .nodes import NodeSet, perturbed_nodes, uniform_nodes
from .signals import (
    TestSignal,
    builtin_signals,
    get_signal,
    sample_band_signal,
    signal_spectrum,
)
from .spectral import (
    AmalgamSpectrum,
    FrequencyGrid,
    SpatialGrid,
    amalgam_norm,
    band_norms,
    frequency_grid,
    inverse_ft_at,
    l2_norm_parseval,
    spatial_grid,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "AmalgamSpectrum",
    "Approximant",
    "ConditioningError",
    "ConfigError",
    "ContractError",
    "DomainError",
    "ErrorReport",
    "ExperimentConfig",
    "FrequencyGrid",
    "InterpolatorFamily",
    "J_spectrum_band",
    "NodeSet",
    "PwAmalgamError",
    "RegularityReport",
    "RegularityTolerances",
    "SpatialGrid",
    "TestSignal",
    "amalgam_norm",
    "band_norms",
    "big_M",
    "builtin_signals",
    "collocation_matrix",
    "condition_bound",
    "error_report",
    "evaluate_J",
    "frequency_grid",
    "get_family",
    "get_signal",
    "inverse_ft_at",
    "l2_norm_parseval",
    "load_config",
    "m_alpha",
    "mj_tail_bound",
    "parse_config",
    "perturbed_nodes",
    "phi_spatial",
    "phi_spectral",
    "precision_boundary",
    "reconstruct",
    "regularity_verdict",
    "sample_band_signal",
    "signal_spectrum",
    "solve_coefficients",
    "spatial_grid",
    "sweep",
    "truncated_signal_values",
    "uniform_nodes",
    "verify_regularity",
]
