"""Resized parametric bootstrap inference for high-dimensional GLMs.

The MLE of a GLM with many parameters per observation is biased away from
zero and more variable than classical theory predicts, and both the pairs
and the plain parametric bootstrap inherit (and amplify) those distortions.
This package implements the fix: estimate the signal strength from the one
observed dataset, shrink the MLE until its linear predictor matches it,
resample from the shrunk model, and build bias-corrected intervals from the
resampled fits.
"""

from .bootstrap import (
    BootstrapSummary,
    ResizedCoefficients,
    resize,
    run_bootstrap,
    summarize_bootstrap,
    weighted_origin_slope,
)
from .coverage import (
    CoverageReport,
    Inference,
    baseline_bootstraps,
    infer,
    run_bias_sd_study,
    run_coverage,
)
from .designs import (
    DESIGN_NAMES,
    DesignSpec,
    FixedMagnitudeCoefficients,
    GaussianCovariates,
    MixtureCoefficients,
    ModifiedArchCovariates,
    MvtCovariates,
    ParetoCovariates,
    circulant_covariance,
    gen_coefficients,
    gen_covariates,
    gen_response,
    generate_dataset,
    named_design,
    scaled_to_gamma,
)
from .exceptions import (
    CsvParseError,
    CurveNotBracketingError,
    DatasetError,
    FitFailedError,
    InsufficientBootstrapError,
    LeverageDegenerateError,
    ResizedBootError,
    ResponseOverflowError,
    TooManyFailuresError,
    ZeroMleError,
)
from .families import FAMILY_NAMES, Family, Logistic, PoissonLog, Probit, get_family
from .fitting import (
    Dataset,
    FitResult,
    FitStatus,
    fit_mle,
    newton_fit,
    refit_many,
)
from .intervals import (
    IntervalSet,
    boot_g_ci,
    boot_t_ci,
    classical_se,
    classical_wald_ci,
    empirical_quantile,
)
from .signal_strength import (
    GammaCurve,
    estimate_gamma,
    invert_monotone_curve,
    isotonic_non_decreasing,
    loess_smooth,
    sd_linear_predictor,
)
from .sloe import SloeEstimate, sloe_estimate

__version__ = "0.1.0"
