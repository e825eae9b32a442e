import importlib
import re
from pathlib import Path

import pytest

import granger_mdl

PUBLIC = [
    "BenchReport", "MethodConfig", "NetworkSpec", "builtin_3node", "builtin_5node",
    "run_bench_multi", "simulate", "true_edge_matrix",
    "DegenerateFitError", "DivergenceError", "GrangerMdlError", "NumericalError",
    "RankDeficiencyError", "ValidationError",
    "LagSpec", "OlsFit", "ResidualCovariance", "build_design", "ols_fit",
    "residual_covariance", "stability_check",
    "CodeLength", "CriterionScore", "MarkovMdlResult", "aic", "bernoulli_code_length",
    "bic", "gaussian_loglik", "markov_mdl", "select_order",
    "BivariateVar", "SpectralCausality", "default_frequency_grid", "fit_bivariate_var",
    "geweke_spectrum", "select_var_order",
    "CausalGraph", "FTestResult", "MdlCausality", "conditional_f_test_gc",
    "conditional_mdl_gc", "f_cdf", "f_test_gc", "infer_network", "joint_mdl_gc",
    "mdl_gc", "similarity",
    "TimeSeriesMatrix", "demean", "load_csv", "save_csv",
]


def test_package_surface_is_pinned():
    assert granger_mdl.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(granger_mdl, name), name


@pytest.mark.parametrize(
    "module", ["bench", "regression", "selection", "spectral", "timedomain", "timeseries"]
)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"granger_mdl.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def test_module_only_names_stay_listed():
    from granger_mdl import regression

    assert "residual_covariance" in regression.__all__


def test_readme_library_sketch_runs(capsys):
    """The README's python block runs as printed, and its first line prints the sketch's graph."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(sketch, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[(0, 1), (0, 2)]"
