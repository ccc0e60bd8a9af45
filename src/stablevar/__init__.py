"""VAR(p) time series with symmetric alpha-stable noise.

Simulation, coefficient estimation through fractional lower-order
covariance (with least-squares and Yule-Walker baselines), Monte Carlo
benchmarking, and residual diagnostics for heavy-tailed data.
"""

from .diagnostics import (
    AutoFlocSeries,
    KsTestResult,
    QqData,
    auto_floc,
    auto_floc_null_band,
    ks_test_stable,
    qq_data,
)
from .errors import NumericalError, StableVarError, ValidationError
from .estimators import (
    EstimationReport,
    estimate_floc,
    estimate_ls,
    estimate_yw,
    residuals,
)
from .experiments import (
    ExperimentConfig,
    MonteCarloReport,
    PipelineReport,
    load_experiment_config,
    load_model_config,
    run_monte_carlo,
    run_pipeline,
)
from .floc import cross_floc, lag_matrix_set, signed_power
from .series import SeriesMatrix
from .stable_dist import stable_cdf, stable_quantile
from .stable_noise import (
    StableParams,
    SymmetricStableNoiseSpec,
    fit_stable_params,
    sample_noise_matrix,
    sample_stable,
)
from .var_core import (
    CausalityResult,
    VarModel,
    is_causal,
    mean_correct,
    psi_matrices,
    psi_count_for_tolerance,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "StableVarError",
    "ValidationError",
    "NumericalError",
    "StableParams",
    "SymmetricStableNoiseSpec",
    "sample_stable",
    "sample_noise_matrix",
    "fit_stable_params",
    "SeriesMatrix",
    "VarModel",
    "CausalityResult",
    "is_causal",
    "psi_matrices",
    "psi_count_for_tolerance",
    "simulate",
    "mean_correct",
    "signed_power",
    "cross_floc",
    "lag_matrix_set",
    "EstimationReport",
    "estimate_floc",
    "estimate_ls",
    "estimate_yw",
    "residuals",
    "stable_cdf",
    "stable_quantile",
    "AutoFlocSeries",
    "KsTestResult",
    "QqData",
    "auto_floc",
    "auto_floc_null_band",
    "ks_test_stable",
    "qq_data",
    "ExperimentConfig",
    "MonteCarloReport",
    "PipelineReport",
    "run_monte_carlo",
    "run_pipeline",
    "load_experiment_config",
    "load_model_config",
]
