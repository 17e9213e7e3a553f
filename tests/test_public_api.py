"""The public surface: exported names and the README's library example."""

import os
import re

import numpy as np

import copulacast
import copulacast.forecasters
from copulacast.cli import resolve_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

# Pinned so that adding or removing an export shows up as a diff here.
PACKAGE_EXPORTS = [
    "ConfigError", "ConvergenceTrace", "CopulaModel", "CopulacastError",
    "DataError", "EvaluationError", "EvaluationReport", "FORECASTERS",
    "FitError", "ForecastTask", "MarginalSpec", "MarginalTransform",
    "MaskRecord", "ObservationMatrix", "RowConstraint", "Schema",
    "TrainedForecaster", "WilcoxonResult", "ablation", "aggregate",
    "apply_mask", "build_report", "compute_lambda", "dilated_causal_conv",
    "e_step", "em_fit", "fit_gbt", "fit_marginals", "fit_ridge_ar", "fit_tcn",
    "fit_trmf", "fit_trmf_forecaster", "forecast_trmf", "friedman_rank",
    "gen_copula_sample", "gen_seasonal_load", "impute", "load_csv", "mape",
    "mean_std_mape", "naive_seasonal", "project_correlation", "pseudo_loglik",
    "row_constraints", "run_ensemble", "save_csv", "truncated_normal_moments",
    "update_weights", "wilcoxon_signed_rank", "win_loss",
]
FORECASTER_EXPORTS = [
    "FORECASTERS", "ForecastTask", "GBTModel", "TRMFModel",
    "TrainedForecaster", "dilated_causal_conv", "extrapolate_factors",
    "fit_gbt", "fit_gbt_arrays", "fit_ridge_ar", "fit_tcn", "fit_trmf",
    "fit_trmf_forecaster", "forecast_trmf", "naive_seasonal",
    "receptive_field",
]


def test_package_exports_are_pinned():
    assert sorted(copulacast.__all__) == PACKAGE_EXPORTS
    assert sorted(copulacast.forecasters.__all__) == FORECASTER_EXPORTS
    for module in (copulacast, copulacast.forecasters):
        for name in module.__all__:
            assert hasattr(module, name), name


def test_readme_library_example_runs():
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, README, "exec"), scope)
    assert scope["forecast"].shape == (12,)
    assert np.array_equal(scope["weights"], scope["trace"].weights[-1])
    assert np.all(np.isfinite(scope["forecast"]))
    assert set(scope["report"].mean_mape) == {"naive_seasonal", "ridge_ar",
                                              "trmf", "gbt", "tcn", "ensemble"}


def test_readme_config_examples_resolve(tmp_path):
    with open(README) as fh:
        text = fh.read()
    start = text.index("## Command-line use")
    section = text[start:text.index("\n## ", start + 1)]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"example{i}.json"
        path.write_text(block)
        resolve_config(str(path))
