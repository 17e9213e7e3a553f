"""Shared forecaster contract: the task, the trained model, the recursion.

Every forecaster in the bank trains on the completed panel restricted to the
task's training span, tracks a validation error per training round, and
produces two forecast paths: the validation span forecast recursively from
the end of training (final round), and the holdout span forecast recursively
from the end of validation.  `recursive_path` is the one loop that feeds a
model's forecasts back in place of unseen actuals; `lag_design` builds and
checks the lagged-target design that ridge AR and GBT regress on.  Covariate
columns enter at lag zero and are read from the completed panel (they are
realized by forecast time in the retrospective protocol).
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from ..evaluation import mape


@dataclass(frozen=True)
class ForecastTask:
    """Forecast specification over a completed panel.

    Ranges are half-open [start, stop) row spans; validation follows
    training and the holdout covers the `horizon` rows after validation.

    Attributes:
        target_column: index of the series to forecast.
        horizon: number of holdout periods, >= 1.
        train_range: training span.
        validation_range: validation span, starting at train_range[1].
        feature_columns: covariate column indices; never includes the target.
    """

    target_column: int
    horizon: int
    train_range: tuple
    validation_range: tuple
    feature_columns: tuple = ()

    def __post_init__(self):
        t0, t1 = self.train_range
        v0, v1 = self.validation_range
        if not (0 <= t0 < t1):
            raise ValueError("train_range must be non-empty with start >= 0")
        if v0 != t1 or v1 <= v0:
            raise ValueError("validation_range must be non-empty and start "
                             "where train_range stops")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.target_column in self.feature_columns:
            raise ValueError("target column cannot appear among the features")

    @property
    def train_stop(self):
        return self.train_range[1]

    @property
    def validation_stop(self):
        return self.validation_range[1]

    @property
    def n_validation(self):
        return self.validation_range[1] - self.validation_range[0]

    @property
    def holdout_indices(self):
        return tuple(range(self.validation_stop, self.validation_stop + self.horizon))

    def check_matrix(self, matrix):
        """Validate a completed panel against this task."""
        if not matrix.mask.all():
            raise FitError("forecasters require a completed (fully observed) panel")
        if matrix.n_rows < self.validation_stop:
            raise FitError(f"panel has {matrix.n_rows} rows but the task needs "
                           f"{self.validation_stop}")
        cols = (self.target_column,) + tuple(self.feature_columns)
        if max(cols) >= matrix.n_cols or min(cols) < 0:
            raise FitError("task references columns outside the panel")


@dataclass
class TrainedForecaster:
    """A fitted model with its round-wise validation errors and forecasts.

    Attributes:
        name: roster name of the model.
        round_errors: validation MAPE after each training round, length >= 2.
        validation_forecast: final-round forecast over the validation span.
        holdout_forecast: forecast over the holdout span.
        validation_start: first row index of the validation span.
        holdout_start: first row index of the holdout span.
        hyper: hyperparameters the model was trained with.
        params: fitted parameters, JSON-serializable.
    """

    name: str
    round_errors: np.ndarray
    validation_forecast: np.ndarray
    holdout_forecast: np.ndarray
    validation_start: int
    holdout_start: int
    hyper: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.round_errors = np.asarray(self.round_errors, dtype=float)
        self.validation_forecast = np.asarray(self.validation_forecast, dtype=float)
        self.holdout_forecast = np.asarray(self.holdout_forecast, dtype=float)
        if self.round_errors.size < 2:
            raise ValueError("round_errors must cover at least two rounds")
        if np.any(~np.isfinite(self.round_errors)) or np.any(self.round_errors < 0):
            raise ValueError("round_errors must be finite and non-negative")

    @property
    def n_rounds(self):
        return int(self.round_errors.size)

    def to_json(self):
        return {"name": self.name,
                "round_errors": [float(v) for v in self.round_errors],
                "validation_forecast": [float(v) for v in self.validation_forecast],
                "holdout_forecast": [float(v) for v in self.holdout_forecast],
                "validation_start": int(self.validation_start),
                "holdout_start": int(self.holdout_start),
                "hyper": self.hyper, "params": self.params}


def pad_rounds(errors):
    """Repeat the last error so every model reports at least two rounds."""
    errors = list(errors)
    while len(errors) < 2:
        errors.append(errors[-1])
    return np.asarray(errors, dtype=float)


def score_round_paths(name, task, y, val_paths, holdout, hyper, params):
    """Score each round's validation path and package the fitted model.

    val_paths is steps x rounds: column r forecasts the validation span
    after round r + 1, and the last column is the validation forecast.
    Each column's error is evaluation.mape against y over the validation
    span; one mape call scores every round.  A single round is repeated so
    the ensemble sees two.
    """
    v_actual = y[task.validation_range[0]:task.validation_stop]
    errors = mape(v_actual, val_paths.T)
    return TrainedForecaster(
        name=name, round_errors=pad_rounds(errors),
        validation_forecast=val_paths[:, -1], holdout_forecast=holdout,
        validation_start=task.validation_range[0],
        holdout_start=task.validation_stop, hyper=hyper, params=params)


def recursive_path(history, start, steps, step_fn):
    """Roll a one-step forecaster forward, feeding forecasts back as history.

    step_fn(t, ext) forecasts row t from ext, which lists history[:start]
    followed by the forecasts for rows start .. t-1.  Returns the `steps`
    forecasts as a float array.
    """
    ext = list(history[:start])
    out = []
    for t in range(start, start + steps):
        value = step_fn(t, ext)
        out.append(value)
        ext.append(value)
    return np.asarray(out, dtype=float)


def lag_design(task, matrix, lags, use_features, min_rows):
    """Check a lagged-target design and build its training rows.

    Row t holds the target at t - l for each lag l, then, with use_features,
    the task's feature columns at t.  Raises ValueError for an empty lag set
    or a lag < 1, and FitError when the panel does not fit the task, cannot
    supply lag-zero features over the holdout span, or leaves fewer than
    min_rows training rows after the longest lag.  Returns (lags, design_row,
    x, target): the lags as ints, design_row(t, ext) reading the lags from
    ext, the training design and its targets.
    """
    lags = tuple(int(l) for l in lags)
    if not lags or min(lags) < 1:
        raise ValueError("lags must be a non-empty tuple of positive ints")
    task.check_matrix(matrix)
    feats = tuple(task.feature_columns) if use_features else ()
    if feats and matrix.n_rows < task.validation_stop + task.horizon:
        raise FitError("panel must cover the holdout span to supply lag-zero "
                       "feature columns")
    t0, t1 = task.train_range
    first = max(t0, max(lags))
    if t1 - first < min_rows:
        raise FitError("training span too short for the requested lags")

    def design_row(t, ext):
        row = [ext[t - l] for l in lags]
        row.extend(matrix.values[t, j] for j in feats)
        return row

    y = matrix.values[:, task.target_column]
    rows = np.arange(first, t1)
    x = np.array([design_row(t, y) for t in rows])
    return lags, design_row, x, y[rows]
