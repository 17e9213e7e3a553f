"""Property tests for TRMF: the array AR recursion against the scalar loops
it replaced, bit for bit; the banded D^T D against the dense operator; and
the banded fit against the dense S-row sweep it replaced.  Cases include
duplicate lags and signed-zero weights."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from copulacast.errors import FitError
from copulacast.forecasters import trmf
from copulacast.forecasters.trmf import (
    TRMFModel,
    _ar_band,
    extrapolate_factors,
    fit_trmf,
    track_factors,
)
from copulacast.rng import rng_for


def _ar_operator_reference(m, lags, weights):
    max_lag = max(lags)
    d = np.zeros((m - max_lag, m))
    for r, t in enumerate(range(max_lag, m)):
        d[r, t] = 1.0
        for li, lag in enumerate(lags):
            d[r, t - lag] -= weights[li]
    return d


def _upper_band(a, kd):
    """The upper band of a square matrix in LAPACK storage, (kd+1) x m."""
    m = a.shape[0]
    band = np.zeros((kd + 1, m))
    for j in range(m):
        for i in range(max(0, j - kd), j + 1):
            band[kd + i - j, j] = a[i, j]
    return band


def _fit_dense_reference(x, k, lags, lambda_reg, kappa_reg, sweeps, seed):
    """The dense S-row sweep fit_trmf ran before its banded solve.

    Per sweep and factor it forms the q x m residual, the dense m x m
    (c + lambda_reg) I + kappa_reg D^T D and LU-solves it.
    """
    q, m = x.shape
    lags = tuple(sorted(lags))
    rng = rng_for(seed, "trmf_init")
    scale = max(float(np.sqrt(np.mean(x ** 2))), 1e-8)
    s = rng.normal(0.0, scale / max(k, 1) ** 0.5, size=(k, m))
    lam = rng.normal(0.0, 1.0, size=(q, k))
    w = np.zeros((k, len(lags)))
    max_lag = max(lags)
    trace = []
    for _ in range(sweeps):
        gram = s @ s.T + lambda_reg * np.eye(k)
        lam = np.linalg.solve(gram, s @ x.T).T
        for f in range(k):
            others = [i for i in range(k) if i != f]
            resid = x - lam[:, others] @ s[others, :] if others else x.copy()
            col = lam[:, f]
            a = (float(col @ col) + lambda_reg) * np.eye(m)
            if kappa_reg > 0:
                d = _ar_operator_reference(m, lags, w[f])
                a += kappa_reg * (d.T @ d)
            s[f, :] = np.linalg.solve(a, resid.T @ col)
        for f in range(k):
            design = np.column_stack(
                [s[f, max_lag - lag:m - lag] for lag in lags])
            w[f], *_ = np.linalg.lstsq(design, s[f, max_lag:], rcond=None)
        value = float(np.sum((x - lam @ s) ** 2))
        value += lambda_reg * (float(np.sum(lam ** 2)) + float(np.sum(s ** 2)))
        for f in range(k):
            ar = s[f, max_lag:].copy()
            for li, lag in enumerate(lags):
                ar -= w[f, li] * s[f, max_lag - lag:m - lag]
            value += kappa_reg * float(np.sum(ar ** 2))
        trace.append(value)
    return lam, s, w, trace


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


SIGNED_ZERO_CASE = {
    "lags": (1, 1, 3),
    "weights": np.array([[0.0, -0.0, 0.5], [-0.0, -0.0, -1.0]]),
    "factors": np.array([[-0.0, 1.0, -2.0, 0.0], [0.0, -0.0, -0.0, 3.0]]),
    "loadings": np.array([[1.0, -0.0], [0.0, 2.0]]),
    "x_new": np.array([[-0.0, 1.5], [0.0, -0.0]]),
    "horizon": 4}


@settings(max_examples=200, deadline=None)
@given(ar_cases())
@example(SIGNED_ZERO_CASE)
def test_ar_band_matches_the_dense_operator(case):
    lags, w = case["lags"], case["weights"]
    m = case["factors"].shape[1]
    band = _ar_band(m, lags, w)
    assert band.shape == (w.shape[0], max(lags) + 1, m)
    for f, row in enumerate(w):
        d = _ar_operator_reference(m, lags, row)
        want = _upper_band(d.T @ d, max(lags))
        tol = 4 * np.finfo(float).eps * (1 + np.sum(np.abs(row))) ** 2
        assert np.max(np.abs(band[f] - want), initial=0.0) <= tol


@settings(max_examples=200, deadline=None)
@given(ar_cases())
@example(SIGNED_ZERO_CASE)
def test_ar_recursion_matches_scalar_loops_bit_for_bit(case):
    lags, w, factors = case["lags"], case["weights"], case["factors"]
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


@st.composite
def fit_cases(draw):
    lags = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    q = draw(st.integers(1, 5))
    m = max(lags) + draw(st.integers(1, 12))
    panel = rng_for(draw(st.integers(0, 2 ** 16)), "trmf-fit-case").normal(
        draw(st.sampled_from([0.0, 3.0])), 1.0, size=(q, m))
    return {"x": panel, "k": draw(st.integers(1, min(3, q, m))), "lags": lags,
            "lambda_reg": draw(st.sampled_from([0.05, 0.1, 1.0])),
            "kappa_reg": draw(st.sampled_from([0.0, 0.1, 2.0])),
            "sweeps": draw(st.integers(1, 6)), "seed": draw(st.integers(0, 9))}


def _close(got, want, rtol=1e-9):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want), initial=0.0)
    return got.shape == want.shape and np.max(
        np.abs(got - want), initial=0.0) <= rtol * scale


@settings(max_examples=150, deadline=None)
@given(fit_cases())
def test_banded_fit_matches_the_dense_sweep(case):
    model = fit_trmf(**case)
    lam, s, w, trace = _fit_dense_reference(**case)
    assert _close(model.loadings, lam)
    assert _close(model.factors, s)
    assert _close(model.ar_weights, w)
    assert _close(model.objective_trace, trace)


def test_a_failed_band_factorization_is_a_fit_error(monkeypatch):
    monkeypatch.setattr(trmf, "pbsv", lambda ab, b: 3)
    x = rng_for(5, "trmf-pbsv").normal(size=(3, 20))
    with pytest.raises(FitError, match=r"pbsv info 3"):
        fit_trmf(x, k=2, lags=(1, 4), sweeps=2)
