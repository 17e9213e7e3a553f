"""Closed-form forecasters: seasonal carry-forward and ridge autoregression.

Both fit in a single pass; their round_errors repeat the one validation MAPE
twice so they plug into the round-indexed ensemble weighting.
"""

import numpy as np

from ..errors import FitError
from .base import (TrainedForecaster, lag_design, pad_rounds, recursive_path,
                   validation_mape)


def _single_pass(name, task, y, step, hyper, params):
    """Forecast both spans with a fitted one-step rule; one validation MAPE."""
    val = recursive_path(y, task.train_stop, task.n_validation, step)
    hold = recursive_path(y, task.validation_stop, task.horizon, step)
    v_actual = y[task.validation_range[0]:task.validation_stop]
    err = validation_mape(v_actual, val)
    return TrainedForecaster(
        name=name, round_errors=pad_rounds([err]),
        validation_forecast=val, holdout_forecast=hold,
        validation_start=task.validation_range[0],
        holdout_start=task.validation_stop, hyper=hyper, params=params)


def naive_seasonal(task, matrix, period=12):
    """Carry forward the value observed one season earlier.

    The forecast for period t is the series value at t - period, taken from
    actual history before the forecast origin and from earlier forecasts
    beyond it.

    Args:
        task: ForecastTask.
        matrix: completed panel.
        period: season length, >= 1.

    Returns:
        TrainedForecaster named "naive_seasonal".
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    task.check_matrix(matrix)
    if task.train_stop - task.train_range[0] < period:
        raise FitError(f"training span must cover at least one full period "
                       f"({period} rows)")
    y = matrix.values[:, task.target_column]

    def step(t, ext):
        return ext[t - period]

    return _single_pass("naive_seasonal", task, y, step,
                        hyper={"period": int(period)}, params={})


def fit_ridge_ar(task, matrix, lags=(1, 2, 3, 12), ridge=1e-4,
                 use_features=True):
    """Fit an L2-regularized linear autoregression with optional covariates.

    The design holds the target at each lag plus, when enabled, the task's
    feature columns at lag zero.  Data are centered, so the intercept is
    recovered exactly and the penalty never shrinks it.

    Args:
        task: ForecastTask.
        matrix: completed panel.
        lags: target lags, each >= 1.
        ridge: L2 penalty, >= 0.  With ridge=0 an exactly collinear design
            raises FitError suggesting a positive penalty.
        use_features: include the task's feature columns at lag zero.

    Returns:
        TrainedForecaster named "ridge_ar".
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    lags, design_row, x, target = lag_design(task, matrix, lags, use_features,
                                             min_rows=len(lags) + 1)
    y = matrix.values[:, task.target_column]
    x_mean = x.mean(axis=0)
    y_mean = target.mean()
    xc = x - x_mean
    yc = target - y_mean
    gram = xc.T @ xc + ridge * np.eye(x.shape[1])
    try:
        coef = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError:
        raise FitError("singular normal equations; set ridge > 0") from None
    intercept = y_mean - float(x_mean @ coef)

    def step(t, ext):
        return float(np.asarray(design_row(t, ext)) @ coef) + intercept

    return _single_pass(
        "ridge_ar", task, y, step,
        hyper={"lags": list(lags), "ridge": float(ridge),
               "use_features": bool(use_features)},
        params={"coef": [float(c) for c in coef], "intercept": float(intercept)})
