"""copulacast: forecasting sparse multivariate time series.

Pipeline: Gaussian-copula EM completion of the missing cells, a bank of
five heterogeneous forecasters, and adaptive exponential ensembling driven
by cumulative validation error, with a full accuracy-statistics report.
"""

from .copula import (CopulaModel, MarginalTransform, RowConstraint, e_step,
                     em_fit, fit_marginals, impute, project_correlation,
                     pseudo_loglik, row_constraints,
                     truncated_normal_moments)
from .dataset import (MarginalSpec, MaskRecord, ObservationMatrix, Schema,
                      apply_mask, gen_copula_sample, gen_seasonal_load,
                      load_csv, save_csv)
from .ensemble import (ConvergenceTrace, ablation, aggregate, compute_lambda,
                       run_ensemble, update_weights)
from .errors import (ConfigError, CopulacastError, DataError,
                     EvaluationError, FitError)
from .evaluation import (EvaluationReport, WilcoxonResult, build_report,
                         friedman_rank, mape, mean_std_mape, win_loss,
                         wilcoxon_signed_rank)
from .forecasters import (FORECASTERS, ForecastTask, TrainedForecaster,
                          dilated_causal_conv, fit_gbt, fit_ridge_ar,
                          fit_tcn, fit_trmf, fit_trmf_forecaster,
                          forecast_trmf, naive_seasonal)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceTrace", "CopulaModel", "CopulacastError",
    "DataError", "EvaluationError", "EvaluationReport",
    "FORECASTERS", "FitError", "ForecastTask", "MarginalSpec",
    "MarginalTransform", "MaskRecord", "ObservationMatrix", "RowConstraint",
    "Schema", "TrainedForecaster", "WilcoxonResult", "ablation",
    "aggregate", "apply_mask", "build_report", "compute_lambda",
    "dilated_causal_conv", "e_step", "em_fit",
    "fit_gbt", "fit_marginals", "fit_ridge_ar", "fit_tcn", "fit_trmf",
    "fit_trmf_forecaster", "forecast_trmf", "friedman_rank",
    "gen_copula_sample", "gen_seasonal_load", "impute", "load_csv", "mape",
    "mean_std_mape", "naive_seasonal", "project_correlation",
    "pseudo_loglik", "row_constraints", "run_ensemble", "save_csv",
    "truncated_normal_moments", "update_weights", "win_loss",
    "wilcoxon_signed_rank",
]
