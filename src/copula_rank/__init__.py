"""Semiparametric efficiency bounds and rank-based estimation for
structured Gaussian copula models.

The package computes Fisher and efficient information matrices for
correlation models with structured parametrizations, runs algebraic
regularity/efficiency/adaptivity diagnostics, and fits models to data by
pseudo-likelihood or by an efficient rank-based one-step update.  A
seeded Monte Carlo harness checks estimators against the variance
bounds.
"""

from .exceptions import (ConfigError, ConvergenceError, DegenerateMarginError,
                         DomainError, McExperimentError, ShapeError,
                         SingularityError)
from .numcore import gram, norm_cdf, norm_quantile, theta_inner
from .models import (Assumption1Report, CorrelationModel, Geometry,
                     adaptivity_demo, build_model, circular, custom_affine,
                     eval_geometry, exchangeable, factor, load_model,
                     lower_triangle_pairs, toeplitz, unrestricted,
                     validate_assumption1)
from .geometry import (DiagnosticReport, EfficiencyBundle, adaptivity_check,
                       d_operator, efficiency_bundle, efficiency_criterion,
                       efficient_info, efficient_score_matrices,
                       generator_function, parametric_score, ple_influence,
                       project_tangent, quad_influence_value, regularity_check,
                       score_generators)
from .sampler import apply_margins, copula_stream, sample_copula
from .estimators import (EstimateResult, RankedSample, one_step, pilot_moment,
                         ple_estimate, rank_transform, sigma_n_sq)
from .mc import (McConfig, McReport, run_experiment, run_grid, summarize,
                 write_errors_csv, write_report_json, write_summary_csv)
from .validation import load_schema, validate_output

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ConfigError", "ConvergenceError", "DegenerateMarginError", "DomainError",
    "McExperimentError", "ShapeError", "SingularityError",
    # numerics
    "gram", "norm_cdf", "norm_quantile", "theta_inner",
    # models
    "Assumption1Report", "CorrelationModel", "Geometry", "adaptivity_demo",
    "build_model", "circular", "custom_affine", "eval_geometry",
    "exchangeable", "factor", "load_model", "lower_triangle_pairs",
    "toeplitz", "unrestricted", "validate_assumption1",
    # geometry
    "DiagnosticReport", "EfficiencyBundle", "adaptivity_check", "d_operator",
    "efficiency_bundle", "efficiency_criterion", "efficient_info",
    "efficient_score_matrices", "generator_function",
    "parametric_score", "ple_influence", "project_tangent",
    "quad_influence_value", "regularity_check", "score_generators",
    # sampling
    "apply_margins", "copula_stream", "sample_copula",
    # estimators
    "EstimateResult", "RankedSample", "one_step", "pilot_moment", "ple_estimate",
    "rank_transform", "sigma_n_sq",
    # monte carlo
    "McConfig", "McReport", "run_experiment", "run_grid", "summarize",
    "write_errors_csv", "write_report_json", "write_summary_csv",
    # schemas
    "load_schema", "validate_output",
]
