"""Tests for the five-forecaster bank and its shared task plumbing."""

import json
import math
import os
import re
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from copulacast.dataset import gen_seasonal_load, write_json
from copulacast.errors import EvaluationError, FitError
from copulacast.evaluation import mape
from copulacast.forecasters.base import (
    ForecastTask,
    TrainedForecaster,
    lag_design,
    pad_rounds,
    recursive_path,
    score_round_paths,
)
from copulacast.forecasters.baselines import fit_ridge_ar, naive_seasonal
from copulacast.forecasters.gbt import (
    _best_split,
    _leaf_weight,
    _score,
    fit_gbt,
    fit_gbt_arrays,
)
from copulacast.forecasters.tcn import (
    _anticausal_index,
    _causal_conv,
    _forward,
    _init_params,
    _loss_and_flat_grad,
    _unflatten,
    dilated_causal_conv,
    fit_tcn,
    receptive_field,
)
from copulacast.forecasters.trmf import (
    TRMFModel,
    extrapolate_factors,
    fit_trmf,
    fit_trmf_forecaster,
    forecast_trmf,
    track_factors,
)
from copulacast.rng import rng_for


def benchmark_task(n_features=12):
    return ForecastTask(target_column=0, horizon=12, train_range=(0, 84),
                        validation_range=(84, 96),
                        feature_columns=tuple(range(1, n_features + 1)))


def benchmark_panel():
    return gen_seasonal_load(n_periods=108, n_features=12, seed=11)


# ------------------------------------------------------------------- task

def test_forecast_task_validation_rules():
    with pytest.raises(ValueError):
        ForecastTask(target_column=0, horizon=12, train_range=(0, 84),
                     validation_range=(85, 96))
    with pytest.raises(ValueError):
        ForecastTask(target_column=0, horizon=0, train_range=(0, 84),
                     validation_range=(84, 96))
    with pytest.raises(ValueError):
        ForecastTask(target_column=1, horizon=12, train_range=(0, 84),
                     validation_range=(84, 96), feature_columns=(1, 2))


def test_check_matrix_rejects_incomplete_panel():
    panel = benchmark_panel()
    masked = panel.copy()
    masked.mask[3, 0] = False
    masked.values[3, 0] = np.nan
    with pytest.raises(FitError):
        benchmark_task().check_matrix(masked)


def toy_forecaster(round_errors):
    return TrainedForecaster(name="toy", round_errors=round_errors,
                             validation_forecast=[1.0, 2.0],
                             holdout_forecast=[3.0], validation_start=10,
                             holdout_start=12)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ForecastTask(target_column=0, horizon=1, train_range=(3, 3),
                          validation_range=(3, 5)),
     ValueError, "train_range must be non-empty with start >= 0"),
    (lambda: benchmark_task().check_matrix(gen_seasonal_load(n_periods=90)),
     FitError, "panel has 90 rows but the task needs 96"),
    (lambda: benchmark_task(n_features=13).check_matrix(benchmark_panel()),
     FitError, "task references columns outside the panel"),
    (lambda: toy_forecaster([1.0]),
     ValueError, "round_errors must cover at least two rounds"),
    (lambda: toy_forecaster([1.0, math.inf]),
     ValueError, "round_errors must be finite and non-negative"),
    (lambda: lag_design(benchmark_task(), benchmark_panel(), (0, 1), False, 1),
     ValueError, "lags must be a non-empty tuple of positive ints"),
    (lambda: lag_design(benchmark_task(), benchmark_panel(), (12,), False, 73),
     FitError, "training span too short for the requested lags"),
], ids=["task_train_range", "panel_rows", "panel_columns", "one_round",
        "infinite_round_error", "lag_zero", "span_after_lags"])
def test_forecast_base_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_trained_forecaster_json_round_trip(tmp_path):
    tf = TrainedForecaster(name="toy",
                           round_errors=np.array([3.0, 2.0]),
                           validation_forecast=np.array([1.0, 2.0]),
                           holdout_forecast=np.array([5.0, 6.0, 7.0]),
                           validation_start=10, holdout_start=12,
                           hyper={"lags": [1, 12]}, params={"w": [0.5, -0.25]})
    path = os.path.join(tmp_path, "model.json")
    write_json(tf.to_json(), path)
    with open(path) as fh:
        assert json.load(fh) == tf.to_json()


def test_validation_mape_oracle_and_pad_rounds():
    assert mape(np.array([100.0, 200.0]),
                           np.array([110.0, 180.0])) == 10.0
    padded = pad_rounds(np.array([5.0]))
    assert padded.tolist() == [5.0, 5.0]
    assert pad_rounds(np.array([4.0, 3.0])).tolist() == [4.0, 3.0]


@settings(max_examples=200, deadline=None)
@given(steps=st.integers(1, 40), rounds=st.integers(1, 200),
       seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from("CF"),
       scale=st.sampled_from([1e-3, 1.0, 1e5, 1e150]))
def test_score_round_paths_keeps_each_rounds_mape_bits(steps, rounds, seed,
                                                       order, scale):
    # All rounds are scored in one mape call; each error must keep the bits
    # of its own 1-d call, whether val_paths is C- or F-ordered.
    rng = np.random.default_rng(seed)
    task = ForecastTask(target_column=0, horizon=1, train_range=(0, 3),
                        validation_range=(3, 3 + steps))
    y = scale * rng.normal(50.0, 50.0, size=4 + steps)
    val_paths = np.asarray(scale * rng.normal(50.0, 60.0, size=(steps, rounds)),
                           order=order)
    tf = score_round_paths("toy", task, y, val_paths, np.zeros(1), {}, {})
    expected = pad_rounds([mape(y[3:3 + steps], path) for path in val_paths.T])
    assert np.array_equal(tf.round_errors.view(np.uint64),
                          expected.view(np.uint64))
    assert np.array_equal(tf.validation_forecast, val_paths[:, -1])


def _one_origin_path(history, start, steps, step_fn):
    # The one-origin loop that recursive_path stacks: step_fn(t, ext)
    # forecasts period t from ext, history[:start] followed by the
    # forecasts for periods start .. t-1.
    ext = list(history[:start])
    out = []
    for t in range(start, start + steps):
        value = step_fn(t, ext)
        out.append(value)
        ext.append(value)
    return np.asarray(out, dtype=float)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 8),
       steps=st.integers(0, 30),
       lags=st.lists(st.integers(1, 13), min_size=1, max_size=5))
def test_stacked_recursive_path_equals_one_origin_loops(seed, n_rows, steps,
                                                        lags):
    # Rows with their own origins roll together; each row must keep the bits
    # of its own one-origin loop, lag-zero covariate included.
    rng = np.random.default_rng(seed)
    width = max(lags)
    weights = rng.normal(0.0, 1.0, size=len(lags))
    weights /= 1.0 + np.abs(weights).sum()
    series = rng.normal(size=(n_rows, width + 20))
    origins = rng.integers(width, width + 21, size=n_rows)
    covariate = rng.normal(size=width + 60)

    def stacked(t, window):
        acc = 0.0
        for lag, w in zip(lags, weights):
            acc = acc + w * window[:, -lag]
        return acc + covariate[t]

    def single(t, ext):
        acc = 0.0
        for lag, w in zip(lags, weights):
            acc = acc + w * ext[t - lag]
        return acc + covariate[t]

    rows = np.arange(n_rows)[:, None]
    recent = series[rows, origins[:, None] + np.arange(-width, 0)]
    paths = recursive_path(recent, origins, steps, stacked)
    assert paths.shape == (n_rows, steps)
    for p in range(n_rows):
        expected = _one_origin_path(series[p], origins[p], steps, single)
        assert np.array_equal(paths[p].view(np.uint64),
                              expected.view(np.uint64))


def test_zero_validation_actual_is_an_evaluation_error():
    panel = benchmark_panel()
    panel.values[90, 0] = 0.0
    with pytest.raises(EvaluationError, match="index 6 is zero"):
        naive_seasonal(benchmark_task(), panel)


# --------------------------------------------------------------- baselines

def test_naive_seasonal_is_exact_on_periodic_series():
    panel = gen_seasonal_load(n_periods=108, noise_sd=0.0, trend=0.0, seed=0)
    task = benchmark_task()
    tf = naive_seasonal(task, panel)
    actual_val = panel.values[84:96, 0]
    actual_hold = panel.values[96:108, 0]
    assert np.allclose(tf.validation_forecast, actual_val, atol=1e-9)
    assert np.allclose(tf.holdout_forecast, actual_hold, atol=1e-9)
    assert tf.round_errors.size >= 2
    assert float(tf.round_errors[-1]) < 1e-9


def test_naive_seasonal_requires_enough_history():
    panel = gen_seasonal_load(n_periods=30, seed=0)
    task = ForecastTask(target_column=0, horizon=2, train_range=(0, 10),
                        validation_range=(10, 12))
    with pytest.raises(FitError):
        naive_seasonal(task, panel, period=12)


def test_ridge_ar_learns_noiseless_ar_process():
    # y_t = 10 + 0.7 y_{t-1}; from y_0 = 50 the series stays well away from 0.
    n = 108
    y = np.empty(n)
    y[0] = 50.0
    for t in range(1, n):
        y[t] = 10.0 + 0.7 * y[t - 1]
    values = y[:, None]
    panel = gen_seasonal_load(n_periods=n, n_features=1, seed=0).copy()
    panel.values[:, 0] = values[:, 0]
    panel.values[:, 1] = 1.0 + np.arange(n)  # benign covariate
    task = ForecastTask(target_column=0, horizon=12, train_range=(0, 84),
                        validation_range=(84, 96))
    tf = fit_ridge_ar(task, panel, lags=(1, 2), ridge=1e-8, use_features=False)
    actual = panel.values[84:96, 0]
    assert mape(actual, tf.validation_forecast) < 0.1


def test_ridge_ar_singular_design_raises_fit_error():
    n = 60
    panel = gen_seasonal_load(n_periods=n, n_features=1, seed=0).copy()
    panel.values[:, 0] = 4.0
    panel.values[:, 1] = 1.0 + np.arange(n)
    task = ForecastTask(target_column=0, horizon=4, train_range=(0, 48),
                        validation_range=(48, 52))
    # A constant target centers every lag column to exactly zero, so the
    # unridged normal equations are exactly singular.
    with pytest.raises(FitError, match="ridge"):
        fit_ridge_ar(task, panel, lags=(1, 2), ridge=0.0, use_features=False)


def test_ridge_ar_feature_mode_needs_holdout_coverage():
    panel = gen_seasonal_load(n_periods=100, n_features=2, seed=1)
    task = ForecastTask(target_column=0, horizon=12, train_range=(0, 84),
                        validation_range=(84, 96), feature_columns=(1, 2))
    with pytest.raises(FitError):
        fit_ridge_ar(task, panel, use_features=True)


def test_ridge_ar_beats_naive_on_benchmark():
    panel = benchmark_panel()
    task = benchmark_task()
    ar = fit_ridge_ar(task, panel)
    nv = naive_seasonal(task, panel)
    actual = panel.values[84:96, 0]
    assert mape(actual, ar.validation_forecast) < \
        mape(actual, nv.validation_forecast)


# --------------------------------------------------------------------- tcn

def test_receptive_field_formula():
    assert receptive_field(((3, 1),)) == 3
    assert receptive_field(((3, 1), (3, 2))) == 7
    assert receptive_field(((3, 1), (3, 2), (3, 4))) == 15
    assert receptive_field(((2, 1), (2, 2), (2, 4), (2, 8))) == 16


def test_dilated_conv_matches_direct_sum():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    k = np.array([0.5, -1.0, 2.0])
    y = dilated_causal_conv(x, k, dilation=2)
    # y[s] = 0.5 x[s] - 1.0 x[s-2] + 2.0 x[s-4], zeros before the start.
    expected = np.array([
        0.5 * 1.0,
        0.5 * 2.0,
        0.5 * 3.0 - 1.0 * 1.0,
        0.5 * 4.0 - 1.0 * 2.0,
        0.5 * 5.0 - 1.0 * 3.0 + 2.0 * 1.0,
    ])
    assert np.allclose(y, expected)


@pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 4), (4, 3),
                                         (2, 30)])
def test_causal_conv_adds_taps_in_order_for_a_stack_or_a_series(k, dilation):
    # Each output is 0 + f[0] x[s] + f[1] x[s-d] + ..., added in tap order;
    # a stack of E series and E kernels gives each row's 1-d result.
    rng = rng_for(15, "tcn-conv")
    x = rng.normal(size=(6, 20))
    f = rng.normal(size=(6, k))
    stacked = _causal_conv(x, f, dilation)
    for e in range(6):
        direct = np.zeros(20)
        for s in range(20):
            for i in range(k):
                if s - dilation * i >= 0:
                    direct[s] += f[e, i] * x[e, s - dilation * i]
        assert np.array_equal(dilated_causal_conv(x[e], f[e], dilation),
                              direct)
        assert np.array_equal(stacked[e], direct)


def test_causal_conv_forms_only_the_taps_that_reach_the_series():
    # 5000 taps at dilation 100 over 1000 points: only the first 10 reach
    # the series, so the products take 10 x 1000 floats (80 kB), not the
    # 5000 x 1000 (40 MB) of every tap, and a non-finite tap past the start
    # never enters the sum.
    rng = rng_for(17, "tcn-conv-reach")
    x = rng.normal(size=1000)
    f = rng.normal(size=5000)
    f[10:] = np.inf
    tracemalloc.start()
    try:
        y = dilated_causal_conv(x, f, dilation=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.array_equal(y, dilated_causal_conv(x, f[:10], dilation=100))


@pytest.mark.parametrize("layer_shapes", [
    ((2, 1),),
    ((3, 1), (3, 2)),
    ((3, 1), (3, 2), (3, 4)),
    ((2, 1), (2, 2), (2, 4)),
])
def test_dilated_conv_stack_is_causal(layer_shapes):
    rng = rng_for(5, "tcn-causal")
    n = 40
    x = rng.normal(size=n)
    kernels = [rng.normal(size=k) for k, _ in layer_shapes]

    def stack(series):
        h = series
        for kernel, (_, dil) in zip(kernels, layer_shapes):
            h = np.tanh(dilated_causal_conv(h, kernel, dil))
        return h

    base = stack(x)
    for pos in (0, 7, 23, n - 1):
        bumped = x.copy()
        bumped[pos] += 1.0
        out = stack(bumped)
        assert np.array_equal(out[:pos], base[:pos])
        assert out[pos] != base[pos] or kernels[0][0] == 0.0


def _loss_and_grads(params, x, dilations):
    # fit_tcn's flat gradient for a parameter dict: the loss and a dict of
    # gradients (kernel arrays, float biases and head).
    x = np.asarray(x, dtype=float)
    shapes = [(np.size(k), d) for k, d in zip(params["kernels"], dilations)]
    loss, grad = _loss_and_flat_grad(params, x, dilations,
                                     _anticausal_index(x.size, shapes))
    grads = _unflatten(grad, shapes)
    return loss, {"kernels": grads["kernels"],
                  "biases": [float(b[0]) for b in grads["biases"]],
                  "head_w": float(grads["head_w"][0]),
                  "head_b": float(grads["head_b"][0])}


def test_tcn_gradients_match_finite_differences():
    rng = rng_for(6, "tcn-fd")
    layer_shapes = ((3, 1), (3, 2))
    dilations = [d for _, d in layer_shapes]
    params = _init_params(layer_shapes, seed=3)
    x = rng.normal(size=30)
    _, grads = _loss_and_grads(params, x, dilations)
    eps = 1e-6

    def loss_of(p):
        return _loss_and_grads(p, x, dilations)[0]

    for li, kernel in enumerate(params["kernels"]):
        for i in range(kernel.size):
            up = {"kernels": [k.copy() for k in params["kernels"]],
                  "biases": list(params["biases"]),
                  "head_w": params["head_w"], "head_b": params["head_b"]}
            up["kernels"][li][i] += eps
            down = {"kernels": [k.copy() for k in params["kernels"]],
                    "biases": list(params["biases"]),
                    "head_w": params["head_w"], "head_b": params["head_b"]}
            down["kernels"][li][i] -= eps
            fd = (loss_of(up) - loss_of(down)) / (2 * eps)
            an = grads["kernels"][li][i]
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd))


def _loss_and_grads_per_tap(params, x, dilations):
    # The per-tap gradient that the window form replaced, kept as its
    # oracle: one dot product and one shifted update per tap and layer.
    x = np.asarray(x, dtype=float)
    n = x.size
    hidden, preds = _forward(params, x, dilations)
    resid = preds[:-1] - x[1:]
    loss = float(np.mean(resid ** 2))
    d_pred = np.zeros(n)
    d_pred[:-1] = 2.0 * resid / (n - 1)
    grads = {"kernels": [], "biases": [],
             "head_w": float(d_pred @ hidden[-1]),
             "head_b": float(d_pred.sum())}
    d_h = params["head_w"] * d_pred
    for li in range(len(params["kernels"]) - 1, -1, -1):
        h = hidden[li + 1]
        d_pre = d_h * (1.0 - h * h)
        kernel = params["kernels"][li]
        dil = dilations[li]
        prev = hidden[li]
        g_kernel = np.zeros_like(kernel)
        d_prev = np.zeros_like(prev)
        for i in range(kernel.size):
            shift = i * dil
            if shift >= n:
                break
            g_kernel[i] = float(d_pre[shift:] @ prev[:n - shift])
            d_prev[:n - shift] += kernel[i] * d_pre[shift:]
        grads["kernels"].insert(0, g_kernel)
        grads["biases"].insert(0, float(d_pre.sum()))
        d_h = d_prev
    return loss, grads


def _param_vector(params):
    # Each layer's taps and bias, then the head, as one vector.
    parts = [np.append(k, b) for k, b in zip(params["kernels"], params["biases"])]
    return np.concatenate(parts + [[params["head_w"], params["head_b"]]])


@pytest.mark.parametrize("layer_shapes", [
    ((1, 1),),
    ((1, 1), (3, 2)),
    ((2, 14),),
    ((3, 1), (2, 15)),
    ((2, 1), (2, 29)),
    ((3, 1), (3, 2), (3, 4)),
    ((2, 1), (2, 2), (2, 4), (2, 8)),
], ids=["k1", "k1_then_k3", "dil14", "dil15", "dil29", "default", "four_layers"])
def test_tcn_window_gradients_match_the_per_tap_loop(layer_shapes):
    # The series has 30 points, so dilations 14 and 15 reach about half of
    # it and 29 reaches the first point only.  The window form sums in a
    # different order, so agreement is to roundoff: the loss within 1e-14
    # relative and every gradient entry within 1e-14 of the largest one
    # (measured: at most 2.1e-16 and 5.3e-17).
    rng = rng_for(21, "tcn-window-grad")
    params = _init_params(layer_shapes, seed=7)
    params["biases"] = list(rng.normal(0.0, 0.2, size=len(layer_shapes)))
    params["head_b"] = 0.1
    dilations = [d for _, d in layer_shapes]
    x = rng.normal(size=30)
    loss, grads = _loss_and_grads(params, x, dilations)
    ref_loss, ref = _loss_and_grads_per_tap(params, x, dilations)
    assert abs(loss - ref_loss) <= 1e-14 * ref_loss
    g, r = _param_vector(grads), _param_vector(ref)
    assert g.shape == r.shape
    assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))


def test_fit_tcn_matches_the_per_tap_loop_over_150_epochs():
    # 150 epochs of per-tap gradient steps from the same start must land on
    # fit_tcn's parameters within 1e-12 relative, each parameter on its own
    # (measured: at most 1.5e-14).
    panel = benchmark_panel()
    task = benchmark_task()
    shapes = ((3, 1), (3, 2), (3, 4))
    tf = fit_tcn(task, panel, layer_shapes=shapes, epochs=150, seed=5)
    t0, t1 = task.train_range
    y = panel.values[:, 0]
    z = (y - float(y[t0:t1].mean())) / max(float(y[t0:t1].std()), 1e-8)
    dilations = [d for _, d in shapes]
    params = _init_params(shapes, 5)
    for _ in range(150):
        _, grads = _loss_and_grads_per_tap(params, z[t0:t1], dilations)
        for li in range(len(shapes)):
            params["kernels"][li] = params["kernels"][li] - 0.05 * grads["kernels"][li]
            params["biases"][li] -= 0.05 * grads["biases"][li]
        params["head_w"] -= 0.05 * grads["head_w"]
        params["head_b"] -= 0.05 * grads["head_b"]
    fitted, ref = _param_vector(tf.params), _param_vector(params)
    assert np.all(np.abs(fitted - ref) <= 1e-12 * np.abs(ref))


def test_fit_tcn_runs_and_respects_shapes():
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_tcn(task, panel, epochs=30, seed=0)
    assert tf.validation_forecast.shape == (12,)
    assert tf.holdout_forecast.shape == (12,)
    assert tf.round_errors.size >= 2
    assert np.all(np.isfinite(tf.holdout_forecast))


def test_fit_tcn_rejects_oversized_receptive_field():
    panel = gen_seasonal_load(n_periods=30, seed=0)
    task = ForecastTask(target_column=0, horizon=2, train_range=(0, 12),
                        validation_range=(12, 14))
    with pytest.raises(FitError):
        fit_tcn(task, panel, layer_shapes=((3, 1), (3, 2), (3, 4)), epochs=5)


@pytest.mark.parametrize("learn_rate", [-0.05, 0.0])
def test_fit_tcn_rejects_a_non_positive_learn_rate(learn_rate):
    with pytest.raises(ValueError, match="learn_rate must be > 0"):
        fit_tcn(benchmark_task(), benchmark_panel(), epochs=5,
                learn_rate=learn_rate)


def test_fit_tcn_is_deterministic():
    panel = benchmark_panel()
    task = benchmark_task()
    a = fit_tcn(task, panel, epochs=10, seed=4)
    b = fit_tcn(task, panel, epochs=10, seed=4)
    assert np.array_equal(a.holdout_forecast, b.holdout_forecast)
    assert np.array_equal(a.round_errors, b.round_errors)


def test_fit_tcn_paths_match_hand_rolled_recursion():
    # Rebuild the network from the stored parameters and roll each path
    # forward by hand: direct causal sums in dilated_causal_conv's tap
    # order, each step's window of rf + 4 standardized values fed back.
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_tcn(task, panel, epochs=12, seed=3)
    p = tf.params
    mu, sd = p["standardize"]["mean"], p["standardize"]["sd"]
    shapes = [tuple(s) for s in tf.hyper["layer_shapes"]]
    rf = receptive_field(shapes)
    z = (panel.values[:, 0] - mu) / sd

    def next_value(window):
        h = np.asarray(window, dtype=float)
        for kernel, bias, (_, dil) in zip(p["kernels"], p["biases"], shapes):
            pre = np.zeros_like(h)
            for s in range(h.size):
                for i, tap in enumerate(kernel):
                    if s - dil * i >= 0:
                        pre[s] += tap * h[s - dil * i]
            h = np.tanh(pre + bias)
        return p["head_w"] * h[-1] + p["head_b"]

    def roll(origin, steps):
        series = list(z[:origin])
        out = []
        for _ in range(steps):
            series.append(next_value(series[-(rf + 4):]))
            out.append(mu + sd * series[-1])
        return np.array(out)

    assert np.array_equal(roll(84, 12), tf.validation_forecast)
    assert np.array_equal(roll(96, 12), tf.holdout_forecast)


@pytest.mark.parametrize("layer_shapes", [
    ((3, 1), (3, 2), (3, 4)),
    ((2, 1), (2, 2), (2, 4), (2, 8)),
    ((4, 1), (3, 3)),
])
def test_tcn_last_output_reads_only_the_receptive_field(layer_shapes):
    # The recursive step feeds _forward only the last receptive_field
    # values; its last prediction must equal the full series' bit for bit.
    rng = rng_for(9, "tcn-window")
    params = _init_params(layer_shapes, seed=2)
    params["biases"] = list(rng.normal(0.0, 0.2, size=len(layer_shapes)))
    dilations = [d for _, d in layer_shapes]
    rf = receptive_field(layer_shapes)
    series = rng.normal(size=60)
    _, full = _forward(params, series, dilations)
    _, window = _forward(params, series[-rf:], dilations)
    assert window[-1] == full[-1]


@pytest.mark.parametrize("n_validation, horizon", [(4, 12), (12, 5)])
def test_fit_tcn_rolls_spans_of_different_lengths(n_validation, horizon):
    # One roll covers both spans, as long as the longer one; each path must
    # still match the per-epoch reference's own roll.
    panel = benchmark_panel()
    task = ForecastTask(target_column=0, horizon=horizon, train_range=(0, 84),
                        validation_range=(84, 84 + n_validation))
    shapes = ((3, 1), (3, 2), (3, 4))
    tf = fit_tcn(task, panel, layer_shapes=shapes, epochs=3, seed=5)
    errors, val, hold, _ = _fit_tcn_reference(task, panel, shapes, 3, seed=5)
    assert np.array_equal(tf.round_errors, errors)
    assert np.array_equal(tf.validation_forecast, val)
    assert np.array_equal(tf.holdout_forecast, hold)
    assert hold.shape == (horizon,)


def _fit_tcn_reference(task, matrix, layer_shapes, epochs, learn_rate=0.05,
                       seed=0):
    # The per-epoch loop fit_tcn replaced, kept as its oracle: after every
    # gradient step, roll the validation span with that epoch's network,
    # one 1-d dilated_causal_conv per layer on the last rf values.
    t0, t1 = task.train_range
    rf = receptive_field(layer_shapes)
    y = matrix.values[:, task.target_column]
    mu = float(y[t0:t1].mean())
    sd = max(float(y[t0:t1].std()), 1e-8)
    z = (y - mu) / sd
    dilations = [d for _, d in layer_shapes]
    params = _init_params(layer_shapes, seed)

    def step(t, ext):
        h = np.asarray(ext[-rf:])
        for kernel, bias, dil in zip(params["kernels"], params["biases"],
                                     dilations):
            h = np.tanh(dilated_causal_conv(h, kernel, dil) + bias)
        return float((params["head_w"] * h + params["head_b"])[-1])

    v_actual = y[task.validation_range[0]:task.validation_stop]
    round_errors = []
    for _ in range(epochs):
        _, grads = _loss_and_grads(params, z[t0:t1], dilations)
        for li in range(len(params["kernels"])):
            params["kernels"][li] = params["kernels"][li] - learn_rate * grads["kernels"][li]
            params["biases"][li] -= learn_rate * grads["biases"][li]
        params["head_w"] -= learn_rate * grads["head_w"]
        params["head_b"] -= learn_rate * grads["head_b"]
        val = mu + sd * _one_origin_path(z, task.train_stop,
                                         task.n_validation, step)
        round_errors.append(mape(v_actual, val))
    hold = mu + sd * _one_origin_path(z, task.validation_stop, task.horizon,
                                      step)
    return np.asarray(round_errors), val, hold, params


@pytest.mark.parametrize("epochs", [2, 9])
@pytest.mark.parametrize("layer_shapes", [
    ((3, 1), (3, 2), (3, 4)),
    ((2, 1), (2, 2), (2, 4), (2, 8)),
    ((4, 1), (3, 3)),
])
def test_fit_tcn_epoch_roll_matches_per_epoch_reference(layer_shapes, epochs):
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_tcn(task, panel, layer_shapes=layer_shapes, epochs=epochs, seed=5)
    errors, val, hold, params = _fit_tcn_reference(task, panel, layer_shapes,
                                                   epochs, seed=5)
    assert np.array_equal(tf.round_errors, errors)
    assert np.array_equal(tf.validation_forecast, val)
    assert np.array_equal(tf.holdout_forecast, hold)
    assert tf.params["kernels"] == [[float(v) for v in k]
                                    for k in params["kernels"]]
    assert tf.params["biases"] == [float(b) for b in params["biases"]]
    assert tf.params["head_w"] == params["head_w"]
    assert tf.params["head_b"] == params["head_b"]


def test_tanh_over_a_block_matches_per_row_calls_bit_for_bit():
    # fit_tcn applies tanh to an (epochs, rf) block where the per-epoch
    # loop applied it row by row.  Vectorized kernels handle array tails
    # separately, so pin that both give the same bits for every width.
    rng = rng_for(14, "tcn-tanh")
    for width in range(1, 33):
        block = rng.normal(0.0, 2.0, size=(150, width))
        block[0, 0] = -0.0
        block[1, -1] = 25.0
        rows = np.stack([np.tanh(row) for row in block])
        assert np.array_equal(np.tanh(block).view(np.uint64),
                              rows.view(np.uint64))



# --------------------------------------------------------------------- gbt

@dataclass
class TreeNode:
    """The nested tree form fit_gbt_arrays grew before it grew node arrays,
    kept as the reference its growth and flat descent are tested against."""

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.left is None

    def predict_row(self, row):
        node = self
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def to_json(self):
        if self.is_leaf:
            return {"value": float(self.value)}
        return {"feature": int(self.feature), "threshold": float(self.threshold),
                "left": self.left.to_json(), "right": self.right.to_json()}

    @classmethod
    def from_json(cls, obj):
        if "value" in obj:
            return cls(value=float(obj["value"]))
        return cls(feature=int(obj["feature"]), threshold=float(obj["threshold"]),
                   left=cls.from_json(obj["left"]), right=cls.from_json(obj["right"]))


def _build_tree(x, g, h, depth, max_depth, min_leaf, reg_alpha, reg_gamma):
    """Grow one nested tree; returns (node, any_admissible_threshold_at_root)."""
    g_total, h_total = g.sum(), h.sum()
    leaf = TreeNode(value=_leaf_weight(g_total, h_total, reg_alpha))
    if depth >= max_depth:
        return leaf, False
    split = _best_split(x, g, min_leaf, reg_alpha)
    if split is None or split[0] - reg_gamma <= 0:
        return leaf, split is not None
    _, j, threshold = split
    go_left = x[:, j] <= threshold
    left, _ = _build_tree(x[go_left], g[go_left], h[go_left], depth + 1,
                          max_depth, min_leaf, reg_alpha, reg_gamma)
    right, _ = _build_tree(x[~go_left], g[~go_left], h[~go_left], depth + 1,
                           max_depth, min_leaf, reg_alpha, reg_gamma)
    return TreeNode(feature=j, threshold=threshold, left=left, right=right), True


def _fit_gbt_reference(x, y, n_rounds, max_depth, min_leaf, reg_alpha,
                       reg_gamma, learn_rate):
    # fit_gbt_arrays' boosting loop over nested trees, each row's step read
    # by predict_row; returns what GBTModel.to_json stores and the final
    # training predictions.  Like fit_gbt_arrays it refuses a design too
    # short for one split, even when the target is constant.
    if x.shape[0] < 2 * min_leaf:
        raise FitError(f"need at least {2 * min_leaf} rows to grow a split")
    base = float(y.mean())
    pred = np.full(y.size, base)
    trees, losses = [], []
    for rnd in range(n_rounds):
        tree, any_candidate = _build_tree(x, pred - y, np.ones_like(y), 0,
                                          max_depth, min_leaf, reg_alpha,
                                          reg_gamma)
        if tree.is_leaf:
            if rnd == 0 and not any_candidate and float(np.ptp(y)) > 0:
                raise FitError("no admissible split")
            if abs(learn_rate * tree.value) < 1e-12:
                break
        pred = pred + learn_rate * np.array([tree.predict_row(r) for r in x])
        trees.append(tree)
        losses.append(float(np.mean((pred - y) ** 2)))
    stored = {"base_score": base, "learn_rate": learn_rate,
              "trees": [t.to_json() for t in trees], "train_losses": losses}
    return stored, pred


@st.composite
def gbt_cases(draw):
    # Few distinct cell values, so thresholds tie; some columns copy an
    # earlier one and some are constant.
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 5))
    cells = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    x = np.array(draw(st.lists(cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    for j in range(p):
        kind = draw(st.sampled_from(["free", "copy", "constant"]))
        if kind == "copy" and j:
            x[:, j] = x[:, draw(st.integers(0, j - 1))]
        elif kind == "constant":
            x[:, j] = 1.5
    y = np.array(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)),
                 dtype=float) / 4.0
    hyper = {"n_rounds": draw(st.integers(1, 8)),
             "max_depth": draw(st.integers(1, 4)),
             "min_leaf": draw(st.integers(1, 3)),
             "reg_alpha": draw(st.sampled_from([0.0, 1.5])),
             "reg_gamma": draw(st.sampled_from([0.0, 0.5])),
             "learn_rate": draw(st.sampled_from([0.3, 1.0]))}
    return x, y, hyper


@settings(max_examples=150, deadline=None)
@given(case=gbt_cases())
@example(case=(np.arange(12.0)[:, None], np.full(12, 7.0),
               {"n_rounds": 5, "max_depth": 3, "min_leaf": 2, "reg_alpha": 0.0,
                "reg_gamma": 0.0, "learn_rate": 0.3}))
def test_flat_growth_matches_nested_tree_reference(case):
    # Trees grown straight into node arrays render, train and predict to
    # the bits of the nested reference: same splits, leaf weights, losses
    # and training predictions, and the same early stop (the constant
    # target stops before any tree).
    x, y, hyper = case
    try:
        want, pred = _fit_gbt_reference(x, y, **hyper)
    except FitError:
        with pytest.raises(FitError):
            fit_gbt_arrays(x, y, **hyper)
        return
    model = fit_gbt_arrays(x, y, **hyper)
    assert json.dumps(model.to_json(), sort_keys=True) == json.dumps(want, sort_keys=True)
    assert np.array_equal(model.predict(x), pred)


def _fixed_point_sums(g, order):
    # The prefix and right-side G sums of g in the given row order, each
    # exact: g in integer units of 2^-shift, one Python int sum per prefix.
    n = g.size
    top = max(abs(float(v)) for v in g)
    shift = 0
    if 0.0 < top < math.inf:
        shift = 50 - math.ceil(math.log2(n * math.frexp(top)[0])) - math.frexp(top)[1]
    ticks = [round(math.ldexp(float(v), shift)) if math.isfinite(v) else float(v)
             for v in g]
    total = sum(ticks)
    prefix = [sum(ticks[i] for i in order[:k + 1]) for k in range(n)]
    return ([math.ldexp(p, -shift) for p in prefix],
            [math.ldexp(total - p, -shift) for p in prefix],
            math.ldexp(total, -shift))


def _best_split_reference(x, g, h, min_leaf, reg_alpha):
    # The scalar scan _best_split replaced, kept as its oracle: every
    # admissible threshold of every feature in (feature, threshold) order,
    # keeping the first key (-gain, feature, threshold) that is smaller.
    # G sums are the exact fixed-point sums of _fixed_point_sums.
    n, n_feat = x.shape
    h_total = h.sum()
    parent = _score(_fixed_point_sums(g, range(n))[2], h_total, reg_alpha)
    best = None
    any_candidate = False
    for j in range(n_feat):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        gs, g_right, _ = _fixed_point_sums(g, order.tolist())
        hs = np.cumsum(h[order])
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            n_left = i + 1
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            any_candidate = True
            gain = 0.5 * (_score(gs[i], hs[i], reg_alpha)
                          + _score(g_right[i], h_total - hs[i], reg_alpha)
                          - parent)
            threshold = 0.5 * (xs[i] + xs[i + 1])
            key = (-gain, j, threshold)
            if best is None or key < best[0]:
                best = (key, gain, j, threshold)
    if best is None:
        return None, any_candidate
    return best[1:], any_candidate


def _split_designs():
    rng = rng_for(10, "gbt-split")
    cases = []
    for n in (4, 9, 30):
        ints = np.round(rng.normal(0.0, 1.5, size=(n, 4)))
        cases.append(("rounded", ints))
        cases.append(("duplicated", np.column_stack([ints, ints[:, ::-1]])))
        mixed = rng.normal(size=(n, 3))
        mixed[:, 1] = 2.5
        cases.append(("constant column", mixed))
    cases.append(("all constant", np.full((12, 3), -1.0)))
    cases.append(("binary", (rng.random(size=(20, 5)) < 0.5).astype(float)))
    return cases


@pytest.mark.parametrize("min_leaf", [1, 2, 3, 5])
@pytest.mark.parametrize("reg_alpha", [0.0, 1.5])
def test_best_split_matches_scalar_reference(min_leaf, reg_alpha):
    rng = rng_for(11, "gbt-split-g")
    for label, x in _split_designs():
        n = x.shape[0]
        g = np.round(rng.normal(size=n), 1)  # ties among gains as well
        got = _best_split(x, g, min_leaf, reg_alpha)
        want = _best_split_reference(x, g, np.ones(n), min_leaf, reg_alpha)
        assert (got is None) == (not want[1]), label
        if want[0] is None:
            assert got is None, label
            continue
        gain, j, threshold = got
        assert (gain, j, threshold) == want[0], label
        assert type(j) is int
    few = rng.normal(size=(2 * min_leaf - 1, 3))
    g = rng.normal(size=few.shape[0])
    assert _best_split(few, g, min_leaf, reg_alpha) is None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 60),
       p=st.integers(1, 4), min_leaf=st.integers(1, 3),
       reg_alpha=st.sampled_from([0.0, 1.5]))
def test_best_split_does_not_move_when_rows_reorder_within_sides(
        seed, n, p, min_leaf, reg_alpha):
    # Append a column that sends the best split's rows to the same two
    # sides, then shuffle the rows: the new column sums each side in row
    # order, not in feature j's sort order, yet it only ties the pick, so
    # the lower feature keeps it with the same gain bits.
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(0.0, 1.5, size=(n, p)), 1)
    g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    split = _best_split(x, g, min_leaf, reg_alpha)
    assume(split is not None)
    _, j, threshold = split
    side = (x[:, j] > threshold).astype(float)
    perm = rng.permutation(n)
    moved = _best_split(np.column_stack([x, side])[perm], g[perm], min_leaf, reg_alpha)
    assert moved == split
    assert np.float64(moved[0]).tobytes() == np.float64(split[0]).tobytes()


def test_best_split_nan_gain_rule_matches_scalar_reference():
    # An overflowed G^2 makes some gains inf - inf: a NaN gain wins only as
    # the first candidate of the scan, and is skipped anywhere else.
    x = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    cases = [[1.0, 1e200, 1e200, 1.0],  # the NaN is the first candidate
             [3e200, 3e200, -1.0, 2.0],  # the NaN is the first candidate
             # Gains -inf, -inf, NaN, NaN, -inf, -inf: feature 0 at 0.5
             # wins, where a plain argmax would pick the first NaN.
             [1e154, 0.0, 1e154, 0.0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for g in map(np.array, cases):
            gain, j, thr = _best_split(x, g, 1, 0.0)
            (want_gain, want_j, want_thr), want_found = \
                _best_split_reference(x, g, np.ones(4), 1, 0.0)
            assert want_found
            assert (j, thr) == (want_j, want_thr)
            assert gain == want_gain or (math.isnan(gain)
                                         and math.isnan(want_gain))


def test_gbt_stump_oracle_exact():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 1.0, 10.0, 10.0])
    model = fit_gbt_arrays(x, y, n_rounds=1, max_depth=1, min_leaf=2,
                           reg_alpha=0.0, reg_gamma=0.0, learn_rate=1.0)
    assert np.allclose(model.predict(x), y, atol=1e-12)


def test_gbt_training_loss_is_monotone():
    rng = rng_for(7, "gbt-mono")
    x = rng.normal(size=(80, 4))
    y = x[:, 0] * 2.0 + np.sin(x[:, 1]) + 0.1 * rng.normal(size=80)
    model = fit_gbt_arrays(x, y, n_rounds=40, max_depth=3, learn_rate=0.3)
    losses = model.train_losses
    assert len(losses) >= 1
    assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))


def _no_admissible_split(min_leaf):
    return (f"^no admissible split: no feature has a threshold that leaves "
            f"min_leaf = {min_leaf} rows on each side, while the target varies$")


def test_gbt_no_candidate_split_raises():
    x = np.zeros((10, 2))
    y = np.arange(10, dtype=float)
    with pytest.raises(FitError, match=_no_admissible_split(2)):
        fit_gbt_arrays(x, y, n_rounds=3)


def test_gbt_no_split_error_names_min_leaf():
    # The one threshold of [0, 0, 0, 1] leaves 3 rows and 1 row, so
    # min_leaf = 2 admits none although the feature is not constant.
    with pytest.raises(FitError, match=_no_admissible_split(2)):
        fit_gbt_arrays([[0], [0], [0], [1]], [1, 2, 3, 4], min_leaf=2)


@pytest.mark.parametrize("setting", [
    {"learn_rate": -0.3}, {"learn_rate": 0.0},
    {"reg_alpha": -2.0}, {"reg_gamma": -0.5},
], ids=["learn_rate", "learn_rate_zero", "reg_alpha", "reg_gamma"])
def test_gbt_rejects_settings_out_of_their_domain(setting):
    x = np.arange(12, dtype=float)[:, None]
    with pytest.raises(ValueError, match=f"{next(iter(setting))}.* must be"):
        fit_gbt_arrays(x, x[:, 0], n_rounds=3, **setting)


def test_gbt_constant_target_predicts_base_score():
    x = np.arange(12, dtype=float)[:, None]
    y = np.full(12, 7.0)
    model = fit_gbt_arrays(x, y, n_rounds=5)
    assert np.allclose(model.predict(x), 7.0, atol=1e-12)


def test_gbt_is_deterministic():
    rng = rng_for(8, "gbt-det")
    x = rng.normal(size=(60, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=60)
    a = fit_gbt_arrays(x, y, n_rounds=20)
    b = fit_gbt_arrays(x, y, n_rounds=20)
    assert np.array_equal(a.predict(x), b.predict(x))


def test_fit_gbt_on_benchmark_panel():
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_gbt(task, panel)
    assert tf.round_errors.size >= 2
    assert tf.validation_forecast.shape == (12,)
    assert tf.holdout_forecast.shape == (12,)
    actual = panel.values[84:96, 0]
    assert mape(actual, tf.validation_forecast) < 20.0


def test_gbt_flat_evaluator_matches_tree_node_oracle():
    # predict and predict_partial run every tree as flat node arrays; each
    # must equal the nested trees' predict_row sums accumulated in order,
    # including rows sitting exactly on a stored threshold and NaN cells.
    rng = rng_for(12, "gbt-flat")
    x = np.round(rng.normal(size=(60, 4)), 1)
    y = x[:, 0] - 2.0 * np.abs(x[:, 2]) + 0.1 * rng.normal(size=60)
    model = fit_gbt_arrays(x, y, n_rounds=25, max_depth=3)
    stored = model.to_json()["trees"]
    trees = [TreeNode.from_json(t) for t in stored]
    assert all("left" in t and "right" in t for t in stored)
    assert [t.to_json() for t in trees] == stored

    splits = []

    def collect(node):
        if not node.is_leaf:
            splits.append((node.feature, node.threshold))
            collect(node.left)
            collect(node.right)

    for tree in trees:
        collect(tree)
    on_threshold = x[np.arange(len(splits)) % len(x)].copy()
    for row, (f, thr) in zip(on_threshold, splits):
        row[f] = thr
    with_nan = x[:5].copy()
    with_nan[np.arange(5), np.arange(5) % 4] = np.nan
    rows = np.vstack([x, on_threshold, with_nan])

    def oracle(n_trees):
        out = []
        for row in rows:
            value = model.base_score
            for tree in trees[:n_trees]:
                value += model.learn_rate * tree.predict_row(row)
            out.append(value)
        return np.array(out)

    assert len(trees) == 25
    for r in (0, 1, 2, 7, 24, 25):
        assert np.array_equal(model.predict_partial(rows, r), oracle(r))
    assert np.array_equal(model.predict(rows), oracle(len(trees)))


def _gbt_hand_roll(tf, panel, feats):
    # Rebuild the trees from the stored parameters; roll(origin, steps, r)
    # forecasts with the first r trees, feeding every forecast back as the
    # next lag.
    trees = [TreeNode.from_json(t) for t in tf.params["trees"]]
    base, rate = tf.params["base_score"], tf.params["learn_rate"]
    lags = tf.hyper["lags"]

    def roll(origin, steps, n_trees):
        series = list(panel.values[:origin, 0])
        for t in range(origin, origin + steps):
            row = [series[t - l] for l in lags] + [panel.values[t, j]
                                                   for j in feats]
            value = base
            for tree in trees[:n_trees]:
                value += rate * tree.predict_row(row)
            series.append(value)
        return np.array(series[origin:])

    return trees, roll


@pytest.mark.parametrize("use_features", [True, False])
def test_fit_gbt_paths_match_hand_rolled_recursion(use_features):
    # With features the trees split mostly on lag 12 (never fed back within
    # a 12-step path) and on the lag-zero copies of the target, so the paths
    # barely read the feedback; the lag-only design makes them depend on it.
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_gbt(task, panel, n_rounds=15, use_features=use_features)
    feats = task.feature_columns if use_features else ()
    trees, roll = _gbt_hand_roll(tf, panel, feats)
    assert len(trees) == tf.n_rounds
    actual = panel.values[84:96, 0]
    for r in range(1, len(trees) + 1):
        assert tf.round_errors[r - 1] == mape(actual, roll(84, 12, r))
    assert np.array_equal(roll(84, 12, len(trees)), tf.validation_forecast)
    assert np.array_equal(roll(96, 12, len(trees)), tf.holdout_forecast)


@pytest.mark.parametrize("use_features", [True, False])
@pytest.mark.parametrize("n_validation, horizon", [(4, 12), (12, 5)])
def test_fit_gbt_rolls_spans_of_different_lengths(n_validation, horizon,
                                                  use_features):
    # One roll covers both spans, as long as the longer one.  The panel ends
    # with the holdout, so with features and the longer validation span the
    # holdout path's dropped steps run past the panel's last row.
    panel = gen_seasonal_load(n_periods=84 + n_validation + horizon,
                              n_features=12, seed=11)
    task = ForecastTask(target_column=0, horizon=horizon, train_range=(0, 84),
                        validation_range=(84, 84 + n_validation),
                        feature_columns=tuple(range(1, 13)))
    tf = fit_gbt(task, panel, n_rounds=8, use_features=use_features)
    feats = task.feature_columns if use_features else ()
    trees, roll = _gbt_hand_roll(tf, panel, feats)
    actual = panel.values[84:task.validation_stop, 0]
    for r in range(1, len(trees) + 1):
        assert tf.round_errors[r - 1] == mape(actual, roll(84, n_validation, r))
    assert np.array_equal(roll(84, n_validation, len(trees)),
                          tf.validation_forecast)
    assert np.array_equal(roll(task.validation_stop, horizon, len(trees)),
                          tf.holdout_forecast)


@pytest.mark.parametrize("fit", [fit_ridge_ar, fit_gbt], ids=["ridge_ar", "gbt"])
def test_lag_only_models_fit_a_panel_that_ends_at_the_validation_stop(fit):
    # A lag-only design reads no panel row past the forecast origins, so an
    # 18-period holdout needs no panel rows beyond validation, and the
    # forecasts equal those on a longer panel with the same first 96 rows.
    long = gen_seasonal_load(n_periods=114, n_features=12, seed=11)
    short = replace(long, values=long.values[:96], mask=long.mask[:96],
                    time_index=long.time_index[:96])
    task = ForecastTask(target_column=0, horizon=18, train_range=(0, 84),
                        validation_range=(84, 96),
                        feature_columns=tuple(range(1, 13)))
    a = fit(task, short, use_features=False)
    b = fit(task, long, use_features=False)
    assert a.holdout_forecast.shape == (18,)
    assert np.all(np.isfinite(a.holdout_forecast))
    assert np.array_equal(a.validation_forecast, b.validation_forecast)
    assert np.array_equal(a.holdout_forecast, b.holdout_forecast)
    assert np.array_equal(a.round_errors, b.round_errors)


# -------------------------------------------------------------------- trmf

def test_trmf_recovers_rank_one_matrix():
    rng = rng_for(9, "trmf-r1")
    u = rng.uniform(1.0, 2.0, size=6)
    v = rng.uniform(1.0, 2.0, size=40)
    x = np.outer(u, v)
    model = fit_trmf(x, k=1, lags=(1,), lambda_reg=1e-9, kappa_reg=0.0,
                     sweeps=60, seed=0)
    rel = np.linalg.norm(model.loadings @ model.factors - x) / np.linalg.norm(x)
    assert rel < 1e-6


def test_trmf_recovers_rank_two_matrix():
    rng = rng_for(10, "trmf-r2")
    u = rng.normal(size=(6, 2))
    v = rng.normal(size=(2, 40))
    x = u @ v
    model = fit_trmf(x, k=2, lags=(1,), lambda_reg=1e-9, kappa_reg=0.0,
                     sweeps=80, seed=0)
    rel = np.linalg.norm(model.loadings @ model.factors - x) / np.linalg.norm(x)
    assert rel < 1e-6


def test_trmf_objective_is_monotone_nonincreasing():
    rng = rng_for(11, "trmf-mono")
    x = rng.normal(size=(8, 50)) + 5.0
    model = fit_trmf(x, k=3, lags=(1, 12), lambda_reg=0.1, kappa_reg=0.1,
                     sweeps=30, seed=2)
    obj = model.objective_trace
    assert len(obj) == 30
    assert all(b <= a + 1e-8 for a, b in zip(obj, obj[1:]))


def test_trmf_on_sweep_callback_sees_every_sweep():
    rng = rng_for(12, "trmf-cb")
    x = rng.normal(size=(5, 30)) + 3.0
    seen = []
    fit_trmf(x, k=2, lags=(1,), sweeps=7, seed=0,
             on_sweep=lambda loadings, factors, ar: seen.append(factors.shape))
    assert len(seen) == 7
    assert seen[0] == (2, 30)


def test_extrapolate_factors_follows_ar_recursion():
    factors = np.array([[1.0, 2.0, 4.0]])
    ar_weights = np.array([[2.0]])
    future = extrapolate_factors(factors, ar_weights, (1,), 3)
    assert np.allclose(future, [[8.0, 16.0, 32.0]])


def test_forecast_trmf_row_selection():
    rng = rng_for(13, "trmf-row")
    x = rng.normal(size=(4, 40)) + 10.0
    model = fit_trmf(x, k=2, lags=(1,), sweeps=20, seed=1)
    block = forecast_trmf(model, 5)
    assert block.shape == (4, 5)
    row2 = forecast_trmf(model, 5, row=2)
    assert np.array_equal(row2, block[2])


def test_trmf_rejects_bad_hyperparameters():
    # The default lags reach back 12 columns, past this 10-column panel, so
    # the lambda_reg case sets lags=(1,) to reach its own check.
    x = np.ones((3, 10)) + np.arange(10)
    with pytest.raises(ValueError, match=re.escape("k must lie in [1, min(q, m)] "
                                                   "= [1, 3]")):
        fit_trmf(x, k=0)
    with pytest.raises(ValueError, match="max lag must be smaller than the "
                       "series length"):
        fit_trmf(x, k=1, lags=(10,))
    with pytest.raises(ValueError, match="lambda_reg must be > 0"):
        fit_trmf(x, k=1, lags=(1,), lambda_reg=0.0)


SHORT_TRMF = TRMFModel(loadings=np.ones((3, 2)), factors=np.ones((2, 3)),
                       ar_weights=np.ones((2, 1)), lags=(5,))
TRMF_X = np.ones((3, 10)) + np.arange(10)


@pytest.mark.parametrize("call, error, message", [
    (lambda: naive_seasonal(benchmark_task(), benchmark_panel(), period=0),
     ValueError, "period must be >= 1"),
    (lambda: fit_gbt_arrays(np.ones(4), np.ones(4)),
     ValueError, "x must be (n, p) and y length n"),
    (lambda: fit_gbt_arrays(np.ones((4, 1)), np.ones(4), n_rounds=0),
     ValueError, "n_rounds must be >= 1"),
    (lambda: dilated_causal_conv([[1.0]], [1.0]),
     ValueError, "series and kernel must be 1-d"),
    (lambda: dilated_causal_conv([], [1.0]), ValueError, "series must be non-empty"),
    (lambda: dilated_causal_conv([1.0], []), ValueError, "kernel must be non-empty"),
    (lambda: dilated_causal_conv([1.0], [1.0], dilation=0),
     ValueError, "dilation must be >= 1"),
    (lambda: fit_tcn(benchmark_task(), benchmark_panel(), layer_shapes=((3, 0),)),
     ValueError, "layer_shapes must hold positive (kernel, dilation) pairs"),
    (lambda: fit_tcn(benchmark_task(), benchmark_panel(), epochs=1),
     ValueError, "epochs must be >= 2"),
    (lambda: fit_trmf(np.ones(10)), ValueError, "x must be a 2-d array"),
    (lambda: fit_trmf(TRMF_X, k=1, lags=(0, 1)), ValueError, "lags must be positive"),
    (lambda: fit_trmf(TRMF_X, k=1, lags=(1,), kappa_reg=-0.1),
     ValueError, "kappa_reg must be >= 0"),
    (lambda: fit_trmf(TRMF_X, k=1, lags=(1,), sweeps=0),
     ValueError, "sweeps must be >= 1"),
    (lambda: fit_trmf(np.where(TRMF_X == 5.0, np.nan, TRMF_X), k=1, lags=(1,)),
     FitError, "panel contains non-finite values"),
    (lambda: extrapolate_factors(SHORT_TRMF.factors, SHORT_TRMF.ar_weights,
                                 SHORT_TRMF.lags, 2),
     ValueError, "factor rows shorter than the maximum lag"),
    (lambda: track_factors(SHORT_TRMF, np.ones((3, 2)), 0.1, 0.1),
     ValueError, "factor rows shorter than the maximum lag"),
    (lambda: forecast_trmf(SHORT_TRMF, 0), ValueError, "horizon must be >= 1"),
], ids=["naive_period", "gbt_shape", "gbt_rounds", "conv_ndim", "conv_empty_series",
        "conv_empty_kernel", "conv_dilation", "tcn_layer_shapes", "tcn_epochs",
        "trmf_ndim", "trmf_lags", "trmf_kappa_reg", "trmf_sweeps",
        "trmf_non_finite", "extrapolate_short", "track_short", "forecast_horizon"])
def test_forecaster_input_checks_name_the_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_fit_trmf_forecaster_rounds_match_per_sweep_forecasts():
    # Every sweep's validation path, rolled after training from the kept
    # sweep states, equals forecasting that sweep's model on the spot.
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_trmf_forecaster(task, panel, sweeps=12, seed=2)
    x_train = panel.values[0:84, :].T
    v_actual = panel.values[84:96, 0]
    paths = []

    def on_sweep(lam, s, w):
        snapshot = TRMFModel(loadings=lam, factors=s, ar_weights=w,
                             lags=(1, 12))
        paths.append(forecast_trmf(snapshot, 12, row=0))

    fit_trmf(x_train, sweeps=12, seed=2, on_sweep=on_sweep)
    want = [mape(v_actual, p) for p in paths]
    assert np.array_equal(tf.round_errors, want)
    assert np.array_equal(tf.validation_forecast, paths[-1])


def test_fit_trmf_forecaster_on_benchmark():
    panel = benchmark_panel()
    task = benchmark_task()
    tf = fit_trmf_forecaster(task, panel, seed=0)
    assert tf.validation_forecast.shape == (12,)
    assert tf.holdout_forecast.shape == (12,)
    assert tf.round_errors.size >= 2
    actual = panel.values[84:96, 0]
    assert mape(actual, tf.validation_forecast) < 25.0
