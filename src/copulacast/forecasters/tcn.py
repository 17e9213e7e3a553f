"""Single-channel temporal convolutional forecaster.

The network stacks dilated causal convolution layers with tanh activations
and a linear head that predicts the next value from the current hidden
state.  Training minimizes one-step squared error on the standardized
training span by plain gradient descent; forward and backward passes are
written directly in numpy so the gradients are exact and auditable.
"""

import numpy as np

from ..errors import FitError
from ..rng import rng_for
from .base import recursive_path, score_round_paths


def dilated_causal_conv(series, kernel, dilation=1):
    """Causal convolution y[s] = sum_i kernel[i] * series[s - dilation*i].

    Positions before the start of the series are treated as zero, so the
    output has the same length as the input and y[s] never depends on any
    series value after s.

    Args:
        series: 1-d input, length >= 1.
        kernel: filter taps, length >= 1; tap i reaches back dilation*i steps.
        dilation: step between taps, >= 1.

    Returns:
        1-d array of the same length as series.
    """
    x = np.asarray(series, dtype=float)
    f = np.asarray(kernel, dtype=float)
    if x.ndim != 1 or f.ndim != 1:
        raise ValueError("series and kernel must be 1-d")
    if x.size == 0:
        raise ValueError("series must be non-empty")
    if f.size == 0:
        raise ValueError("kernel must be non-empty")
    if dilation < 1:
        raise ValueError("dilation must be >= 1")
    return _causal_conv(x, f, int(dilation))


def _causal_conv(x, f, dilation):
    """dilated_causal_conv along the last axis, unchecked.

    x is (..., n) and f is (..., k) with matching leading axes, so a stack
    of series runs through a stack of kernels; each output element sees the
    same taps, added in the same order, as a 1-d call.
    """
    n = x.shape[-1]
    y = np.zeros(np.broadcast_shapes(x.shape, f.shape[:-1] + (1,)))
    for i in range(f.shape[-1]):
        shift = i * dilation
        if shift >= n:
            break
        y[..., shift:] += f[..., i, None] * x[..., :n - shift]
    return y


def receptive_field(layer_shapes):
    """Steps of history a stack of (kernel_size, dilation) layers can see."""
    return 1 + sum((k - 1) * d for k, d in layer_shapes)


def _init_params(layer_shapes, seed):
    rng = rng_for(seed, "tcn_init")
    kernels = [rng.normal(0.0, 0.3, size=k) for k, _ in layer_shapes]
    biases = [0.0 for _ in layer_shapes]
    head_w = float(rng.normal(0.0, 0.3))
    head_b = 0.0
    return {"kernels": kernels, "biases": biases,
            "head_w": head_w, "head_b": head_b}


def _forward(params, x, dilations):
    """Hidden activations per layer plus one-step-ahead predictions.

    With 1-d kernels and scalar biases and head, x is one series.  Stacked
    parameters (kernels (E, k), biases and head (E, 1)) run E networks over
    an (E, n) block of series at once.
    """
    hidden = [np.asarray(x, dtype=float)]
    for kernel, bias, dil in zip(params["kernels"], params["biases"], dilations):
        pre = _causal_conv(hidden[-1], kernel, dil) + bias
        hidden.append(np.tanh(pre))
    preds = params["head_w"] * hidden[-1] + params["head_b"]
    return hidden, preds


def _loss_and_grads(params, x, dilations):
    """Mean squared one-step error and exact gradients for every parameter.

    preds[s] estimates x[s+1]; the loss averages over s = 0 .. n-2.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two points for one-step training")
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


def fit_tcn(task, matrix, layer_shapes=((3, 1), (3, 2), (3, 4)), epochs=150,
            learn_rate=0.05, seed=0):
    """Train the convolutional forecaster on the task's target series.

    The target is standardized with training-span moments.  One round is one
    gradient-descent epoch.  Every epoch is trained first, writing its
    parameters into one row of stacked arrays; then one recursive roll
    forecasts the validation span with all epochs' networks at once, and
    each epoch's MAPE is recorded.

    Args:
        task: ForecastTask.
        matrix: completed panel.
        layer_shapes: (kernel_size, dilation) per layer, top to bottom.
        epochs: training rounds, >= 2.
        learn_rate: gradient-descent step size, > 0.
        seed: parameter-initialization seed.

    Returns:
        TrainedForecaster named "tcn".
    """
    layer_shapes = tuple((int(k), int(d)) for k, d in layer_shapes)
    if not layer_shapes or any(k < 1 or d < 1 for k, d in layer_shapes):
        raise ValueError("layer_shapes must hold positive (kernel, dilation) pairs")
    if epochs < 2:
        raise ValueError("epochs must be >= 2")
    if not learn_rate > 0:
        raise ValueError("learn_rate must be > 0")
    task.check_matrix(matrix)
    t0, t1 = task.train_range
    n_train = t1 - t0
    rf = receptive_field(layer_shapes)
    if rf >= n_train:
        raise FitError(f"receptive field {rf} must be smaller than the "
                       f"training span {n_train}")

    y = matrix.values[:, task.target_column]
    mu = float(y[t0:t1].mean())
    sd = float(y[t0:t1].std())
    sd = max(sd, 1e-8)
    z = (y - mu) / sd
    dilations = [d for _, d in layer_shapes]
    params = _init_params(layer_shapes, seed)

    # Row e of each array holds epoch e's parameters, the stacked form
    # _forward runs: kernels (E, k) per layer; biases and head (E, 1).
    stack = {"kernels": [np.empty((epochs, k)) for k, _ in layer_shapes],
             "biases": [np.empty((epochs, 1)) for _ in layer_shapes],
             "head_w": np.empty((epochs, 1)), "head_b": np.empty((epochs, 1))}
    for e in range(epochs):
        loss, grads = _loss_and_grads(params, z[t0:t1], dilations)
        if not np.isfinite(loss):
            raise FitError("tcn training diverged; lower learn_rate")
        for li in range(len(params["kernels"])):
            params["kernels"][li] = params["kernels"][li] - learn_rate * grads["kernels"][li]
            params["biases"][li] -= learn_rate * grads["biases"][li]
            stack["kernels"][li][e] = params["kernels"][li]
            stack["biases"][li][e] = params["biases"][li]
        params["head_w"] -= learn_rate * grads["head_w"]
        params["head_b"] -= learn_rate * grads["head_b"]
        stack["head_w"][e] = params["head_w"]
        stack["head_b"][e] = params["head_b"]

    def forecast_paths(origin, steps, nets):
        # Column e is the path of the network stacked at row e; each step
        # stacks the last rf values of every path into one (E, rf) block.
        shape = nets["head_w"].shape[:1]

        def step(t, ext):
            window = np.column_stack([np.broadcast_to(v, shape)
                                      for v in ext[-rf:]])
            return _forward(nets, window, dilations)[1][:, -1]

        return mu + sd * recursive_path(z, origin, steps, step)

    last = {"kernels": [k[-1:] for k in stack["kernels"]],
            "biases": [b[-1:] for b in stack["biases"]],
            "head_w": stack["head_w"][-1:], "head_b": stack["head_b"][-1:]}
    val_paths = forecast_paths(task.train_stop, task.n_validation, stack)
    hold = forecast_paths(task.validation_stop, task.horizon, last)[:, 0]
    return score_round_paths(
        "tcn", task, y, val_paths, hold,
        hyper={"layer_shapes": [list(p) for p in layer_shapes],
               "epochs": int(epochs), "learn_rate": float(learn_rate),
               "seed": int(seed)},
        params={"kernels": [[float(v) for v in k] for k in params["kernels"]],
                "biases": [float(b) for b in params["biases"]],
                "head_w": float(params["head_w"]),
                "head_b": float(params["head_b"]),
                "standardize": {"mean": mu, "sd": sd}})

