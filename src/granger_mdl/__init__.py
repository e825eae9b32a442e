"""Time-series Granger causality with a unified code-length criterion.

The package fits restricted/unrestricted autoregressions, scores them
under AIC, BIC, or a two-part description length, and infers directed
causal networks in the time domain and the frequency domain, alongside
a seeded Monte Carlo benchmark harness for synthetic networks.
"""

from .bench import (
    BenchReport,
    MethodConfig,
    NetworkSpec,
    builtin_3node,
    builtin_5node,
    run_bench_multi,
    simulate,
    true_edge_matrix,
)
from .errors import (
    DegenerateFitError,
    DivergenceError,
    GrangerMdlError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .regression import (
    LagSpec,
    OlsFit,
    ResidualCovariance,
    build_design,
    ols_fit,
    residual_covariance,
    stability_check,
)
from .selection import (
    CodeLength,
    CriterionScore,
    MarkovMdlResult,
    aic,
    bernoulli_code_length,
    bic,
    gaussian_loglik,
    markov_mdl,
    select_order,
)
from .spectral import (
    BivariateVar,
    SpectralCausality,
    default_frequency_grid,
    fit_bivariate_var,
    geweke_spectrum,
    select_var_order,
)
from .timedomain import (
    CausalGraph,
    FTestResult,
    MdlCausality,
    conditional_f_test_gc,
    conditional_mdl_gc,
    f_cdf,
    f_test_gc,
    infer_network,
    joint_mdl_gc,
    mdl_gc,
    similarity,
)
from .timeseries import TimeSeriesMatrix, demean, load_csv, save_csv

__all__ = [
    "BenchReport",
    "MethodConfig",
    "NetworkSpec",
    "builtin_3node",
    "builtin_5node",
    "run_bench_multi",
    "simulate",
    "true_edge_matrix",
    "DegenerateFitError",
    "DivergenceError",
    "GrangerMdlError",
    "NumericalError",
    "RankDeficiencyError",
    "ValidationError",
    "LagSpec",
    "OlsFit",
    "ResidualCovariance",
    "build_design",
    "ols_fit",
    "residual_covariance",
    "stability_check",
    "CodeLength",
    "CriterionScore",
    "MarkovMdlResult",
    "aic",
    "bernoulli_code_length",
    "bic",
    "gaussian_loglik",
    "markov_mdl",
    "select_order",
    "BivariateVar",
    "SpectralCausality",
    "default_frequency_grid",
    "fit_bivariate_var",
    "geweke_spectrum",
    "select_var_order",
    "CausalGraph",
    "FTestResult",
    "MdlCausality",
    "conditional_f_test_gc",
    "conditional_mdl_gc",
    "f_cdf",
    "f_test_gc",
    "infer_network",
    "joint_mdl_gc",
    "mdl_gc",
    "similarity",
    "TimeSeriesMatrix",
    "demean",
    "load_csv",
    "save_csv",
]

__version__ = "0.1.0"
