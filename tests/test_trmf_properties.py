"""Property test: TRMF's array AR recursion against the scalar loops it
replaced, bit for bit, including duplicate lags and signed-zero weights."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from copulacast.forecasters.trmf import (
    TRMFModel,
    _ar_operator,
    extrapolate_factors,
    track_factors,
)


def _ar_operator_reference(m, lags, weights):
    max_lag = max(lags)
    d = np.zeros((m - max_lag, m))
    for r, t in enumerate(range(max_lag, m)):
        d[r, t] = 1.0
        for li, lag in enumerate(lags):
            d[r, t - lag] -= weights[li]
    return d


def _extrapolate_reference(factors, ar_weights, lags, horizon):
    k, m = factors.shape
    ext = np.concatenate([factors, np.zeros((k, horizon))], axis=1)
    for t in range(m, m + horizon):
        for f in range(k):
            ext[f, t] = sum(ar_weights[f, li] * ext[f, t - lag]
                            for li, lag in enumerate(lags))
    return ext[:, m:]


def _track_reference(model, x_new, lambda_reg, kappa_reg):
    lam = model.loadings
    k = model.rank
    gram = lam.T @ lam + (lambda_reg + kappa_reg) * np.eye(k)
    hist = model.factors.copy()
    out = []
    for t in range(x_new.shape[1]):
        prior = np.array([
            sum(model.ar_weights[f, li] * hist[f, hist.shape[1] - lag]
                for li, lag in enumerate(model.lags))
            for f in range(k)])
        rhs = lam.T @ x_new[:, t] + kappa_reg * prior
        s_t = np.linalg.solve(gram, rhs)
        out.append(s_t)
        hist = np.concatenate([hist, s_t[:, None]], axis=1)
    return np.asarray(out).T


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


values = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def ar_cases(draw):
    k = draw(st.integers(1, 4))
    lags = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    m = max(lags) + draw(st.integers(0, 5))
    q = draw(st.integers(1, 4))

    def block(rows, cols):
        flat = draw(st.lists(values, min_size=rows * cols,
                             max_size=rows * cols))
        return np.array(flat, dtype=float).reshape(rows, cols)

    return {"lags": lags, "weights": block(k, len(lags)),
            "factors": block(k, m), "loadings": block(q, k),
            "x_new": block(q, draw(st.integers(0, 4))),
            "horizon": draw(st.integers(1, 6))}


@settings(max_examples=200, deadline=None)
@given(ar_cases())
@example({"lags": (1, 1, 3),
          "weights": np.array([[0.0, -0.0, 0.5], [-0.0, -0.0, -1.0]]),
          "factors": np.array([[-0.0, 1.0, -2.0, 0.0],
                               [0.0, -0.0, -0.0, 3.0]]),
          "loadings": np.array([[1.0, -0.0], [0.0, 2.0]]),
          "x_new": np.array([[-0.0, 1.5], [0.0, -0.0]]),
          "horizon": 4})
def test_ar_recursion_matches_scalar_loops_bit_for_bit(case):
    lags, w, factors = case["lags"], case["weights"], case["factors"]
    m = factors.shape[1]
    for row in w:
        assert _same_bits(_ar_operator(m, lags, row),
                          _ar_operator_reference(m, lags, row))
    assert _same_bits(extrapolate_factors(factors, w, lags, case["horizon"]),
                      _extrapolate_reference(factors, w, lags, case["horizon"]))
    model = TRMFModel(loadings=case["loadings"], factors=factors,
                      ar_weights=w, lags=lags)
    x_new = case["x_new"]
    got = track_factors(model, x_new, 0.3, 0.2)
    want = _track_reference(model, x_new, 0.3, 0.2)
    if x_new.shape[1] == 0:
        # The scalar loop returned a shapeless empty array here.
        assert got.shape == (factors.shape[0], 0) and want.size == 0
    else:
        assert _same_bits(got, want)
