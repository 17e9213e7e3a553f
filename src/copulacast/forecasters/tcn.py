"""Single-channel temporal convolutional forecaster.

The network stacks dilated causal convolution layers with tanh activations
and a linear head that predicts the next value from the current hidden
state.  Training minimizes one-step squared error on the standardized
training span by plain gradient descent; forward and backward passes are
written directly in numpy so the gradients are exact and auditable.

Training runs in window form.  Every weight, bias and head parameter lives
in one flat vector, updated once per epoch and written as one row of an
(epochs, P) stack.  Each layer gathers the anti-causal window of its
pre-activation gradient through an (n, k) index built once per fit
(im2col), so its kernel gradient and its input gradient are one matrix
product each.  One roll of the stack then forecasts every epoch's
validation path and the last epoch's holdout path.
"""

import math

import numpy as np

from ..errors import FitError
from ..rng import rng_for
from .base import roll_spans, score_round_paths


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
    same taps, added in the same order, as a 1-d call.  All products come
    from one outer product of the taps that reach into the series, so it
    holds min(k, (n - 1) // dilation + 1) x n products per series, and no
    product with a padding zero enters the sum.
    """
    n = x.shape[-1]
    reach = min(f.shape[-1], (n - 1) // dilation + 1)
    taps = f[..., :reach, None] * x[..., None, :]  # taps[..., i, s] = f[i] x[s]
    y = taps[..., 0, :] + 0.0  # the bits of 0.0 + f[0] x[s]
    for i in range(1, reach):
        shift = i * dilation
        y[..., shift:] += taps[..., i, :n - shift]
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


def _unflatten(theta, layer_shapes):
    """The parameter dict as views into a flat vector (P,) or a stack (E, P).

    The flat layout is every layer's taps, then the layers' biases, then the
    head's weight and bias.  Biases and head keep a trailing axis of length
    1, so a stack gives the (E, k) kernels and (E, 1) biases and head that
    _forward runs E networks with.
    """
    ends = np.cumsum([k for k, _ in layer_shapes])
    n_taps = int(ends[-1])
    return {"kernels": [theta[..., e - k:e]
                        for (k, _), e in zip(layer_shapes, ends)],
            "biases": [theta[..., n_taps + l:n_taps + l + 1]
                       for l in range(len(layer_shapes))],
            "head_w": theta[..., -2:-1], "head_b": theta[..., -1:]}


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


def _anticausal_index(n, layer_shapes):
    """Per layer, the (n, k) anti-causal window of a length-n series (im2col)
    as an index into the series padded with one trailing zero: entry [s, i]
    points at series[s + d*i], or at the pad where that is past the end."""
    return [np.minimum(np.arange(n)[:, None] + d * np.arange(k), n)
            for k, d in layer_shapes]


def _loss_and_flat_grad(params, x, dilations, index):
    """Mean squared one-step error and its exact gradient as one vector,
    laid out as _unflatten reads the parameters.

    preds[s] estimates x[s+1]; the loss averages over s = 0 .. n-2.  index
    is _anticausal_index(x.size, layer_shapes).  Each layer gathers one
    window, A[t, i] = d_pre[t + d*i]: its kernel gradient
    g[i] = sum_s d_pre[s] input[s - d*i] is input @ A, and its input
    gradient d_input[t] = sum_i kernel[i] d_pre[t + d*i] is A @ kernel.
    """
    n = x.size
    hidden, preds = _forward(params, x, dilations)
    resid = preds[:-1] - x[1:]
    loss = float(resid @ resid) / (n - 1)

    d_pred = np.zeros(n)
    d_pred[:-1] = 2.0 * resid / (n - 1)
    d_pres = np.zeros((len(index), n + 1))  # row l: d_pre, then its pad
    g_kernels = []
    d_h = params["head_w"] * d_pred
    for li in range(len(index) - 1, -1, -1):
        h = hidden[li + 1]
        np.multiply(d_h, 1.0 - h * h, out=d_pres[li, :n])
        window = d_pres[li][index[li]]
        g_kernels.insert(0, hidden[li] @ window)
        if li:
            d_h = window @ params["kernels"][li]
    return loss, np.concatenate(g_kernels + [
        d_pres[:, :n].sum(axis=1), [d_pred @ hidden[-1], d_pred.sum()]])


def fit_tcn(task, matrix, layer_shapes=((3, 1), (3, 2), (3, 4)), epochs=150,
            learn_rate=0.05, seed=0):
    """Train the convolutional forecaster on the task's target series.

    The target is standardized with training-span moments.  One round is one
    gradient-descent epoch.  Every epoch is trained first, writing its flat
    parameter vector into one row of an (epochs, P) stack; then one roll
    forecasts the validation span with all epochs' networks at once, and
    the holdout span with the last epoch's, and each epoch's MAPE is
    recorded.

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
    x = z[t0:t1]
    index = _anticausal_index(n_train, layer_shapes)
    init = _init_params(layer_shapes, seed)
    theta = np.concatenate(init["kernels"] + [
        init["biases"], [init["head_w"], init["head_b"]]])
    params = _unflatten(theta, layer_shapes)
    # Row e holds epoch e's parameters; _unflatten of a stack of rows is the
    # stacked form _forward runs.
    thetas = np.empty((epochs, theta.size))
    for e in range(epochs):
        loss, grad = _loss_and_flat_grad(params, x, dilations, index)
        if not math.isfinite(loss):
            raise FitError("tcn training diverged; lower learn_rate")
        theta -= learn_rate * grad
        thetas[e] = theta

    # Row e of the stack runs epoch e's network from the validation origin,
    # and the last row the last epoch's from the holdout origin.
    nets = _unflatten(np.concatenate([thetas, thetas[-1:]]), layer_shapes)
    val_paths, hold = roll_spans(
        task, z, rf, epochs,
        lambda t, window: _forward(nets, window, dilations)[1][:, -1])
    val_paths, hold = mu + sd * val_paths, mu + sd * hold
    return score_round_paths(
        "tcn", task, y, val_paths, hold,
        hyper={"layer_shapes": [list(p) for p in layer_shapes],
               "epochs": int(epochs), "learn_rate": float(learn_rate),
               "seed": int(seed)},
        params={"kernels": [k.tolist() for k in params["kernels"]],
                "biases": [float(b[0]) for b in params["biases"]],
                "head_w": float(params["head_w"][0]),
                "head_b": float(params["head_b"][0]),
                "standardize": {"mean": mu, "sd": sd}})

