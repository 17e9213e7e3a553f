"""Temporal regularized matrix factorization forecaster.

Factorizes the q x m panel as X ~ Lambda @ S with an autoregressive penalty
that ties each factor row to its own lagged values:

    F = ||X - Lambda S||_F^2 + lambda_reg (||Lambda||_F^2 + ||S||_F^2)
        + kappa_reg * sum_f sum_{t >= max_lag} (S[f,t] - sum_l w[f,l] S[f,t-l])^2

Fitting alternates exact block minimizations (Lambda rows by ridge solve,
S factor rows by a banded quadratic solve, AR weights by least squares), so
the objective never increases.  The S-row system
(c + lambda_reg) I + kappa_reg D^T D has half-bandwidth max lag: D^T D is
built straight into LAPACK upper band storage once per sweep and each row
is solved by Cholesky (pbsv).  Forecasts roll every factor row's AR
recursion at once through the bank's `recursive_path` and read off
Lambda @ S at the future columns; `track_factors` keeps its own loop, as
each step solves against a realized panel column.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpbsv

from ..errors import FitError
from ..rng import rng_for
from .base import recursive_path, score_round_paths


@dataclass
class TRMFModel:
    """Fitted factorization with per-factor AR weights.

    Attributes:
        loadings: q x k matrix Lambda.
        factors: k x m matrix S.
        ar_weights: k x len(lags) AR coefficients per factor row.
        lags: AR lag set.
        hyper: fitting hyperparameters.
        objective_trace: objective value after each sweep.
    """

    loadings: np.ndarray
    factors: np.ndarray
    ar_weights: np.ndarray
    lags: tuple
    hyper: dict = field(default_factory=dict)
    objective_trace: list = field(default_factory=list)

    @property
    def rank(self):
        return self.loadings.shape[1]

    def to_json(self):
        return {"loadings": [[float(v) for v in r] for r in self.loadings],
                "factors": [[float(v) for v in r] for r in self.factors],
                "ar_weights": [[float(v) for v in r] for r in self.ar_weights],
                "lags": [int(l) for l in self.lags],
                "hyper": self.hyper,
                "objective_trace": [float(v) for v in self.objective_trace]}


def _objective(x, lam, s, w, lags, lambda_reg, kappa_reg):
    resid = x - lam @ s
    value = float(np.sum(resid ** 2))
    value += lambda_reg * (float(np.sum(lam ** 2)) + float(np.sum(s ** 2)))
    max_lag = max(lags)
    ar = s[:, max_lag:].copy()
    for li, lag in enumerate(lags):
        ar -= w[:, li:li + 1] * s[:, max_lag - lag:s.shape[1] - lag]
    return value + kappa_reg * float(np.sum(ar ** 2))


def _ar_band(m, lags, weights):
    """Every factor's D^T D in LAPACK upper band storage, k x (L+1) x m.

    D holds rows t >= L = max lag of the AR difference operator: its row t
    has coefficient c[o] at column t - o, with c[0] = 1 and c[lag] the
    negated sum of that lag's weights.  Row t adds c[o1] c[o2] at
    (t - o1, t - o2); for o1 >= o2 that is band row L - (o1 - o2) at
    column t - o2, so each offset pair is one slice-add over all factors.
    """
    max_lag = max(lags)
    coef = np.zeros((weights.shape[0], max_lag + 1))
    coef[:, 0] = 1.0
    for li, lag in enumerate(lags):
        coef[:, lag] -= weights[:, li]
    offsets = sorted({0, *lags})
    band = np.zeros((weights.shape[0], max_lag + 1, m))
    for i, o1 in enumerate(offsets):
        for o2 in offsets[:i + 1]:
            band[:, max_lag - o1 + o2, max_lag - o2:m - o2] += (
                coef[:, o1] * coef[:, o2])[:, None]
    return band


def _ar_predict(ext, t, ar_weights, lags):
    """Every factor row's AR one-step prediction of column t of ext.

    Sums 0 + w[:, l] * ext[:, t - lag_l] in lag order, one row per factor.
    """
    acc = np.zeros(ext.shape[0])
    for li, lag in enumerate(lags):
        acc = acc + ar_weights[:, li] * ext[:, t - lag]
    return acc


def fit_trmf(x, k=4, lags=(1, 12), lambda_reg=0.1, kappa_reg=0.1, sweeps=50,
             seed=0, on_sweep=None):
    """Fit the factorization by exact alternating block minimization.

    Args:
        x: q x m completed panel (variables by time).
        k: factor count, 1 <= k <= min(q, m).
        lags: AR lag set for the factor rows, max lag < m.
        lambda_reg: Frobenius penalty on both factors, > 0.
        kappa_reg: AR penalty weight, >= 0.
        sweeps: alternating sweeps, >= 1; one sweep updates Lambda, every
            S row, and every AR weight vector once.
        seed: initialization seed.
        on_sweep: optional callback invoked after each sweep with the model
            state (loadings, factors, ar_weights).

    Returns:
        TRMFModel with a non-increasing objective_trace.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be a 2-d array")
    q, m = x.shape
    lags = tuple(sorted(int(l) for l in lags))
    if k < 1 or k > min(q, m):
        raise ValueError(f"k must lie in [1, min(q, m)] = [1, {min(q, m)}]")
    if not lags or lags[0] < 1:
        raise ValueError("lags must be positive")
    if max(lags) >= m:
        raise ValueError("max lag must be smaller than the series length")
    if lambda_reg <= 0:
        raise ValueError("lambda_reg must be > 0")
    if kappa_reg < 0:
        raise ValueError("kappa_reg must be >= 0")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if np.any(~np.isfinite(x)):
        raise FitError("panel contains non-finite values")

    rng = rng_for(seed, "trmf_init")
    scale = max(float(np.sqrt(np.mean(x ** 2))), 1e-8)
    s = rng.normal(0.0, scale / max(k, 1) ** 0.5, size=(k, m))
    lam = rng.normal(0.0, 1.0, size=(q, k))
    w = np.zeros((k, len(lags)))
    max_lag = max(lags)

    trace = []
    for _ in range(sweeps):
        # Lambda given S: ridge regression shared across variable rows
        gram = s @ s.T + lambda_reg * np.eye(k)
        lam = np.linalg.solve(gram, s @ x.T).T

        # each S factor row given the others: a banded quadratic whose
        # right-hand side (X - Lambda_o S_o)^T lam_f is taken through
        # X^T Lambda and Lambda^T Lambda, both fixed during this step
        band = kappa_reg * _ar_band(m, lags, w)
        cross = lam.T @ lam
        xl = x.T @ lam
        for f in range(k):
            others = [i for i in range(k) if i != f]
            band[f, max_lag] += cross[f, f] + lambda_reg
            b = xl[:, f] - s[others, :].T @ cross[others, f]
            _, s[f, :], info = dpbsv(band[f], b)
            if info != 0:
                raise FitError(f"trmf factor system {f} is not positive "
                               f"definite (pbsv info {info})")

        # AR weights given S: per-factor least squares
        for f in range(k):
            design = np.column_stack(
                [s[f, max_lag - lag:m - lag] for lag in lags])
            target = s[f, max_lag:]
            w[f], *_ = np.linalg.lstsq(design, target, rcond=None)

        value = _objective(x, lam, s, w, lags, lambda_reg, kappa_reg)
        if not np.isfinite(value):
            raise FitError("trmf objective diverged")
        trace.append(value)
        if on_sweep is not None:
            on_sweep(lam, s, w)

    return TRMFModel(loadings=lam, factors=s, ar_weights=w, lags=lags,
                     hyper={"k": int(k), "lags": [int(l) for l in lags],
                            "lambda_reg": float(lambda_reg),
                            "kappa_reg": float(kappa_reg),
                            "sweeps": int(sweeps), "seed": int(seed)},
                     objective_trace=trace)


def extrapolate_factors(factors, ar_weights, lags, horizon):
    """Extend each factor row `horizon` steps with its AR recursion."""
    m = factors.shape[1]
    max_lag = max(lags)
    if m < max_lag:
        raise ValueError("factor rows shorter than the maximum lag")
    return recursive_path(
        factors[:, m - max_lag:], m, horizon,
        lambda t, window: _ar_predict(window, max_lag, ar_weights, lags))


def forecast_trmf(model, horizon, row=None):
    """AR-extrapolate the factors and reconstruct future columns.

    Args:
        model: TRMFModel.
        horizon: steps ahead, >= 1.
        row: optional variable index; when given, return that row's forecast
            as a 1-d array, otherwise the full q x horizon block.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    future = extrapolate_factors(model.factors, model.ar_weights, model.lags,
                                 horizon)
    block = model.loadings @ future
    if row is None:
        return block
    return block[int(row), :]


def track_factors(model, x_new, lambda_reg, kappa_reg):
    """Append factor columns for newly realized panel columns.

    Each new column solves the same objective restricted to that column's
    factors, given the fitted loadings and AR weights:
    (Lambda^T Lambda + (lambda_reg + kappa_reg) I) s_t
        = Lambda^T x_t + kappa_reg * AR prediction.

    Returns:
        k x n_new factor block.
    """
    lam = model.loadings
    k, m = model.factors.shape
    if m < max(model.lags):
        raise ValueError("factor rows shorter than the maximum lag")
    gram = lam.T @ lam + (lambda_reg + kappa_reg) * np.eye(k)
    hist = np.concatenate([model.factors, np.zeros((k, x_new.shape[1]))],
                          axis=1)
    for t in range(m, hist.shape[1]):
        prior = _ar_predict(hist, t, model.ar_weights, model.lags)
        rhs = lam.T @ x_new[:, t - m] + kappa_reg * prior
        hist[:, t] = np.linalg.solve(gram, rhs)
    return hist[:, m:]


def fit_trmf_forecaster(task, matrix, k=4, lags=(1, 12), lambda_reg=0.1,
                        kappa_reg=0.1, sweeps=50, seed=0):
    """Wrap the factorization as a roster forecaster.

    One round is one alternating sweep.  Every sweep is trained first,
    keeping each sweep's loadings, factors and AR weights; then one AR
    extrapolation steps all sweeps' factor rows over the validation span,
    and each sweep's MAPE is recorded.  The holdout forecast first tracks
    factors across the realized validation columns, then extrapolates.

    Returns:
        TrainedForecaster named "trmf".
    """
    task.check_matrix(matrix)
    t0, t1 = task.train_range
    x_train = matrix.values[t0:t1, :].T

    sweeps_seen = []
    model = fit_trmf(x_train, k=k, lags=lags, lambda_reg=lambda_reg,
                     kappa_reg=kappa_reg, sweeps=sweeps, seed=seed,
                     on_sweep=lambda lam, s, w: sweeps_seen.append(
                         (lam, s.copy(), w.copy())))
    # Sweep i's factor rows sit at rows i*k .. i*k+k-1 of one AR roll.
    future = extrapolate_factors(
        np.concatenate([s for _, s, _ in sweeps_seen]),
        np.concatenate([w for _, _, w in sweeps_seen]),
        model.lags, task.n_validation).reshape(len(sweeps_seen), model.rank, -1)
    val_paths = np.column_stack([(lam @ f)[task.target_column]
                                 for (lam, _, _), f in zip(sweeps_seen, future)])

    x_val = matrix.values[task.validation_range[0]:task.validation_stop, :].T
    tracked = track_factors(model, x_val, lambda_reg, kappa_reg)
    hold = forecast_trmf(
        replace(model, factors=np.concatenate([model.factors, tracked], axis=1)),
        task.horizon, row=task.target_column)

    return score_round_paths("trmf", task, matrix.values[:, task.target_column],
                             val_paths, hold, dict(model.hyper), model.to_json())
