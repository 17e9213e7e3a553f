"""Tests for cumulative-error exponential weighting and the ablation path."""

import math
import os
import re

import numpy as np
import pytest

from copulacast.ensemble import (
    ablation,
    ablation_order,
    ablation_to_csv,
    aggregate,
    compute_lambda,
    run_ensemble,
    update_weights,
)
from copulacast.errors import EvaluationError
from copulacast.forecasters.base import ForecastTask, TrainedForecaster
from copulacast.rng import rng_for

LAMBDA_2 = 1.2011224087864498  # sqrt(1 / ln 2)
LAMBDA_10 = 0.6590102289822608  # sqrt(1 / ln 10)
LAMBDA_100 = 0.46599060178465607  # sqrt(1 / ln 100)
SOFTMIN_W = (0.7310585786300049, 0.2689414213699951)  # lambda=1, CE=(1, 2)


def toy_task():
    return ForecastTask(target_column=0, horizon=3, train_range=(0, 8),
                        validation_range=(8, 10))


def toy_model(name, errors, level):
    errors = np.asarray(errors, dtype=float)
    return TrainedForecaster(name=name, round_errors=errors,
                             validation_forecast=np.full(2, level),
                             holdout_forecast=np.full(3, level),
                             validation_start=8, holdout_start=10)


# ------------------------------------------------------------- scalar math

def test_cumulative_error_prefix_sums_and_freeze():
    models = [toy_model("three", [3.0, 4.0, 5.0], 1.0),
              toy_model("five", [1.0] * 5, 1.0)]
    _, _, trace = run_ensemble(models, toy_task())
    assert trace.ce[:, 0].tolist() == [3.0, 7.0, 12.0, 12.0, 12.0]
    assert trace.err[:, 0].tolist() == [3.0, 4.0, 5.0, 5.0, 5.0]
    assert trace.ce[:, 1].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_compute_lambda_oracles():
    assert abs(compute_lambda(2) - LAMBDA_2) < 1e-12
    assert abs(compute_lambda(10) - LAMBDA_10) < 1e-12
    assert abs(compute_lambda(100) - LAMBDA_100) < 1e-12


def test_compute_lambda_rejects_degenerate_round_counts():
    with pytest.raises(ValueError):
        compute_lambda(1)
    with pytest.raises(ValueError):
        compute_lambda(0)


def test_update_weights_uniform_under_equal_ce():
    w = update_weights(np.array([4.0, 4.0, 4.0]), np.array([1.3, 1.3, 1.3]))
    assert np.allclose(w, 1.0 / 3.0, atol=1e-15)


def test_update_weights_softmin_oracle():
    w = update_weights(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert abs(w[0] - SOFTMIN_W[0]) < 1e-12
    assert abs(w[1] - SOFTMIN_W[1]) < 1e-12


def test_update_weights_simplex_and_argmax_randomized():
    rng = rng_for(14, "weights-rand")
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ce = rng.uniform(0.0, 50.0, size=n)
        lam = np.full(n, float(rng.uniform(0.2, 2.0)))
        w = update_weights(ce, lam)
        assert np.all(w >= 0.0)
        assert abs(float(w.sum()) - 1.0) < 1e-12
        assert int(np.argmax(w)) == int(np.argmin(ce))


def test_update_weights_survives_extreme_spread():
    w = update_weights(np.array([0.0, 1e8]), np.array([1.0, 1.0]))
    assert np.all(np.isfinite(w))
    assert abs(w[0] - 1.0) < 1e-12
    assert w[1] == 0.0


def test_aggregate_oracle():
    value = aggregate(np.array([10.0, 20.0]), np.array(SOFTMIN_W))
    assert abs(value - 12.689414213699951) < 1e-12


def test_aggregate_validates_shapes():
    with pytest.raises(ValueError):
        aggregate(np.array([1.0, 2.0]), np.array([1.0]))


# ------------------------------------------------------------ run_ensemble

def test_run_ensemble_concentrates_on_the_accurate_model():
    models = [toy_model("good", [1.0, 1.0], 1.0),
              toy_model("bad", [10.0, 10.0], 3.0)]
    forecasts, w, trace = run_ensemble(models, toy_task())
    assert trace.model_names == ("good", "bad")
    assert np.array_equal(w, trace.weights[-1])
    assert w[0] > 0.95
    assert abs(float(w.sum()) - 1.0) < 1e-12
    expected = w[0] * 1.0 + w[1] * 3.0
    assert np.allclose(forecasts, expected)
    assert forecasts.shape == (3,)
    assert trace.weights.shape == (2, 2)


def test_run_ensemble_weights_track_round_by_round():
    models = [toy_model("a", [1.0, 9.0], 1.0),
              toy_model("b", [5.0, 1.0], 2.0)]
    _, final_weights, trace = run_ensemble(models, toy_task())
    lam = compute_lambda(2)
    w1 = update_weights(np.array([1.0, 5.0]), np.array([lam, lam]))
    w2 = update_weights(np.array([10.0, 6.0]), np.array([lam, lam]))
    assert np.allclose(trace.weights[0], w1, atol=1e-15)
    assert np.allclose(trace.weights[1], w2, atol=1e-15)
    assert np.allclose(final_weights, w2, atol=1e-15)


def test_run_ensemble_pads_shorter_error_streams():
    models = [toy_model("two", [1.0, 1.0], 1.0),
              toy_model("four", [2.0, 2.0, 2.0, 2.0], 2.0)]
    _, _, trace = run_ensemble(models, toy_task())
    assert trace.rounds.tolist() == [1, 2, 3, 4]
    # The short model's CE freezes at its final round while the long one grows.
    assert trace.ce[3, 0] == 2.0
    assert trace.ce[3, 1] == 8.0
    # Per-model lambda uses each model's own round count.
    lambdas = [compute_lambda(2), compute_lambda(4)]
    assert np.array_equal(trace.weights[-1],
                          update_weights(trace.ce[-1], lambdas))


def test_run_ensemble_rejects_horizon_mismatch():
    short = TrainedForecaster(name="short", round_errors=np.array([1.0, 1.0]),
                              validation_forecast=np.full(2, 1.0),
                              holdout_forecast=np.full(2, 1.0),
                              validation_start=8, holdout_start=10)
    with pytest.raises(ValueError):
        run_ensemble([short], toy_task())


@pytest.mark.parametrize("call, message", [
    (lambda: update_weights([], []), "ce must be a non-empty 1-d sequence"),
    (lambda: update_weights([1.0, 2.0], [1.0]),
     "ce and lambdas must have the same length"),
    (lambda: update_weights([1.0, -1.0], [1.0, 1.0]),
     "ce must be finite and non-negative"),
    (lambda: update_weights([1.0, math.nan], [1.0, 1.0]),
     "ce must be finite and non-negative"),
    (lambda: aggregate([1.0, math.inf], [0.5, 0.5]), "preds must be finite"),
    (lambda: run_ensemble([], toy_task()), "model list must be non-empty"),
    (lambda: ablation([], toy_task(), [1.0, 2.0, 3.0]),
     "model list must be non-empty"),
], ids=["weights_empty", "weights_lengths", "weights_negative", "weights_nan",
        "aggregate_infinite", "run_ensemble_empty", "ablation_empty"])
def test_ensemble_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_convergence_trace_csv_round_trip(tmp_path):
    models = [toy_model("good", [1.0, 1.0], 1.0),
              toy_model("bad", [10.0, 10.0], 3.0)]
    _, _, trace = run_ensemble(models, toy_task())
    path = os.path.join(tmp_path, "trace.csv")
    trace.to_csv(path)
    lines = open(path).read().splitlines()
    assert lines[0] == "round,err_good,err_bad,ce_good,ce_bad,w_good,w_bad"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    assert float(first[5]) == trace.weights[0, 0]


# ---------------------------------------------------------------- ablation

def test_ablation_order_sorts_by_final_validation_error():
    models = [toy_model("mid", [5.0, 5.0], 2.0),
              toy_model("best", [1.0, 1.0], 1.0),
              toy_model("worst", [10.0, 10.0], 3.0)]
    order = ablation_order(models, toy_task())
    assert [models[i].name for i in order] == ["best", "mid", "worst"]


def test_ablation_order_breaks_full_ties_by_name():
    models = [toy_model("zeta", [2.0, 2.0], 1.0),
              toy_model("alpha", [2.0, 2.0], 1.0)]
    order = ablation_order(models, toy_task())
    assert [models[i].name for i in order] == ["alpha", "zeta"]


def test_ablation_path_values_match_manual_prefix_ensembles():
    models = [toy_model("best", [1.0, 1.0], 1.0),
              toy_model("mid", [5.0, 5.0], 2.0),
              toy_model("worst", [10.0, 10.0], 3.0)]
    actuals = np.array([1.0, 1.0, 1.0])
    rows = ablation(models, toy_task(), actuals)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[0][1] == ("best",)
    assert rows[1][1] == ("best", "mid")
    assert rows[2][1] == ("best", "mid", "worst")
    # Size-1 prefix is the best model alone, which is exact here.
    assert rows[0][2] == 0.0
    # Size-2 prefix must equal the two-model ensemble computed directly.
    lam = compute_lambda(2)
    w = update_weights(np.array([2.0, 10.0]), np.array([lam, lam]))
    pred = w[0] * 1.0 + w[1] * 2.0
    expected = 100.0 * abs(pred - 1.0)
    assert abs(rows[1][2] - expected) < 1e-12


def test_ablation_requires_positive_actuals():
    models = [toy_model("best", [1.0, 1.0], 1.0)]
    with pytest.raises(EvaluationError):
        ablation(models, toy_task(), np.array([1.0, 0.0, 1.0]))


def test_ablation_to_csv_format(tmp_path):
    rows = [(1, ("a",), 0.5), (2, ("a", "b"), 0.25)]
    path = os.path.join(tmp_path, "ablation.csv")
    ablation_to_csv(rows, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "prefix_size,models,mape"
    assert lines[1] == "1,a,0.5"
    assert lines[2] == "2,a+b,0.25"
