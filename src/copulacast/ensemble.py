"""Adaptive exponential weighting of the forecaster bank.

Each model t carries a validation error stream err^t(1..R_t).  The ensemble
forms cumulative errors CE^t(r), a per-model equilibrium factor
lambda_t = sqrt(1 / ln R_t), and softmin weights

    w^t(r) = exp(-lambda_t CE^t(r)) / sum_n exp(-lambda_n CE^n(r)),

then combines the models' holdout forecasts with the final-round weights.
Models with fewer rounds than the longest stream hold their CE fixed at
CE^t(R_t) for the remaining rounds.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataset import write_float_csv


def compute_lambda(n_rounds):
    """Equilibrium factor sqrt(1 / ln R) for a model with R training rounds.

    Args:
        n_rounds: R >= 2 (ln R must be positive).
    """
    if n_rounds <= 1:
        raise ValueError("n_rounds must be >= 2: ln R is not positive below that")
    return math.sqrt(1.0 / math.log(n_rounds))


def update_weights(ce, lambdas):
    """Softmin weights from cumulative errors and per-model factors.

    Computed in log space with max subtraction so large lambda * CE products
    never underflow the whole vector.

    Args:
        ce: length-N cumulative errors, finite and >= 0.
        lambdas: length-N equilibrium factors.

    Returns:
        Length-N weight vector on the simplex.
    """
    ce = np.asarray(ce, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if ce.ndim != 1 or ce.size == 0:
        raise ValueError("ce must be a non-empty 1-d sequence")
    if ce.shape != lambdas.shape:
        raise ValueError("ce and lambdas must have the same length")
    if np.any(~np.isfinite(ce)) or np.any(ce < 0):
        raise ValueError("ce must be finite and non-negative")
    scores = -lambdas * ce
    scores -= scores.max()
    expd = np.exp(scores)
    return expd / expd.sum()


def aggregate(preds, weights):
    """Weighted sum of the models' forecasts for one period."""
    preds = np.asarray(preds, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if preds.shape != weights.shape or preds.ndim != 1:
        raise ValueError("preds and weights must be 1-d of equal length")
    if np.any(~np.isfinite(preds)):
        raise ValueError("preds must be finite")
    return float(preds @ weights)


@dataclass
class ConvergenceTrace:
    """The weighting history of one ensemble run, aligned across models.

    Row r - 1 holds round r: each model's error and cumulative error, frozen
    at its last round once r passes R_t, and the weights computed from that
    cumulative-error row.  weights[-1] combines the holdout forecasts.
    """

    model_names: tuple
    rounds: np.ndarray
    err: np.ndarray
    ce: np.ndarray
    weights: np.ndarray

    def to_csv(self, path):
        """Write plot-ready columns: round, then err/ce/w per model."""
        names = self.model_names
        header = (["round"]
                  + [f"err_{n}" for n in names]
                  + [f"ce_{n}" for n in names]
                  + [f"w_{n}" for n in names])
        write_float_csv(path, header, [int(r) for r in self.rounds],
                        np.hstack([self.err, self.ce, self.weights]))


def run_ensemble(models, task):
    """Weight the bank round by round and combine its holdout forecasts.

    Args:
        models: non-empty list of TrainedForecaster, each with >= 2 rounds.
        task: ForecastTask the models were fitted on.

    Returns:
        (forecasts, final_weights, ConvergenceTrace) where final_weights is
        the trace's last weight row and forecasts is the length-horizon
        combination of the models' holdout forecasts with those weights.
    """
    if not models:
        raise ValueError("model list must be non-empty")
    errs = [np.asarray(m.round_errors, dtype=float) for m in models]
    lambdas = np.array([compute_lambda(e.size) for e in errs])
    rounds = np.arange(1, max(e.size for e in errs) + 1)
    # Model t's own round index at each aligned round, frozen at R_t.
    own = [np.minimum(rounds, e.size) - 1 for e in errs]
    err_rows = np.column_stack([e[i] for e, i in zip(errs, own)])
    ce_rows = np.column_stack([np.cumsum(e)[i] for e, i in zip(errs, own)])
    weight_rows = np.array([update_weights(ce, lambdas) for ce in ce_rows])

    final_weights = weight_rows[-1]
    horizon = task.horizon
    if any(m.holdout_forecast.size != horizon for m in models):
        raise ValueError("a model's holdout forecast does not cover the task horizon")
    forecasts = np.array([
        aggregate(np.array([m.holdout_forecast[i] for m in models]), final_weights)
        for i in range(horizon)])
    trace = ConvergenceTrace(model_names=tuple(m.name for m in models),
                             rounds=rounds, err=err_rows, ce=ce_rows,
                             weights=weight_rows)
    return forecasts, final_weights, trace


def ablation_order(models, task):
    """Merit order for the ablation path.

    Ascending final validation MAPE; ties broken by larger final adaptive
    weight in the full ensemble, then by name.
    """
    _, weights, _ = run_ensemble(models, task)
    keyed = []
    for t, m in enumerate(models):
        keyed.append((float(m.round_errors[-1]), -float(weights[t]),
                      m.name, t))
    return [k[-1] for k in sorted(keyed)]


def ablation(models, task, actuals):
    """Grow the ensemble one model at a time and score each prefix.

    Args:
        models: list of TrainedForecaster (>= 1).
        task: ForecastTask.
        actuals: true target values over the holdout span, no zeros.

    Returns:
        List of (prefix_size, model_names, mape) triples, one per prefix in
        merit order.
    """
    from .evaluation import mape

    if not models:
        raise ValueError("model list must be non-empty")
    actuals = np.asarray(actuals, dtype=float)
    order = ablation_order(models, task)
    path = []
    for size in range(1, len(order) + 1):
        prefix = [models[i] for i in order[:size]]
        forecasts, _, _ = run_ensemble(prefix, task)
        path.append((size, tuple(m.name for m in prefix),
                     mape(actuals, forecasts)))
    return path


def ablation_to_csv(path_rows, path):
    """Write ablation rows as CSV (prefix_size, models, mape)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prefix_size", "models", "mape"])
        for size, names, value in path_rows:
            writer.writerow([int(size), "+".join(names), repr(float(value))])
