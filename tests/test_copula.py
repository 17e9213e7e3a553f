"""Tests for the Gaussian-copula completion module."""

import datetime
import json
import math
import os
import warnings

import numpy as np
import pytest

from copulacast.copula import (
    CopulaModel,
    MarginalTransform,
    RowConstraint,
    _estep_sum,
    _fill,
    _Plan,
    _truncated_moments,
    complete,
    e_step,
    em_fit,
    fit_marginals,
    impute,
    project_correlation,
    pseudo_loglik,
    row_constraints,
    truncated_normal_moments,
)
from copulacast.dataset import (
    CONTINUOUS,
    ORDINAL,
    MarginalSpec,
    ObservationMatrix,
    apply_mask,
    gen_copula_sample,
    gen_seasonal_load,
    monthly_index,
)
from copulacast.errors import FitError
from copulacast.rng import rng_for

PPF_06 = 0.2533471031357997  # norm.ppf(0.6)
HALF_NORMAL_MEAN = 0.7978845608028654  # sqrt(2 / pi)
LOG_PHI_0 = -0.9189385332046727  # log standard normal density at 0


def continuous_matrix(values, mask=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = ~np.isnan(values)
    return ObservationMatrix(
        values=values, mask=np.asarray(mask, dtype=bool),
        column_kinds=(CONTINUOUS,) * values.shape[1],
        column_names=tuple(f"c{j}" for j in range(values.shape[1])),
        time_index=monthly_index(datetime.date(2013, 1, 1), values.shape[0]))


# ---------------------------------------------------------------- marginals

def test_continuous_marginal_forward_oracle():
    m = continuous_matrix(np.array([[10.0], [20.0], [30.0], [40.0]]))
    tr = fit_marginals(m)[0]
    # Rank of 30 among 4 observations is 3, so cum prob = 3/5 = 0.6.
    assert abs(tr.to_latent(30.0) - PPF_06) < 1e-12
    assert tr.to_latent(10.0) < tr.to_latent(20.0) < tr.to_latent(40.0)


def test_continuous_marginal_inverse_round_trip_and_clamp():
    m = continuous_matrix(np.array([[10.0], [20.0], [30.0], [40.0]]))
    tr = fit_marginals(m)[0]
    for x in (10.0, 20.0, 30.0, 40.0):
        z = tr.to_latent(x)
        assert abs(float(tr.from_latent(z)) - x) < 1e-9
    assert float(tr.from_latent(-50.0)) == 10.0
    assert float(tr.from_latent(50.0)) == 40.0


def test_ordinal_marginal_cut_points_and_intervals():
    values = np.array([[1.0], [1.0], [2.0], [2.0], [2.0], [2.0], [2.0],
                       [3.0], [3.0], [3.0]])
    m = ObservationMatrix(values=values, mask=np.ones_like(values, dtype=bool),
                          column_kinds=(ORDINAL,), column_names=("g",),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 10),
                          ordinal_levels={0: (1.0, 2.0, 3.0)})
    tr = fit_marginals(m)[0]
    # Counts (2, 5, 3) of 10: interior cumulative frequencies 0.2 and 0.7.
    from scipy.stats import norm
    cuts = tr.cut_points
    assert np.allclose(cuts, [norm.ppf(0.2), norm.ppf(0.7)])
    lo, hi = tr.to_interval(1.0)
    assert lo == -np.inf and abs(hi - norm.ppf(0.2)) < 1e-12
    lo, hi = tr.to_interval(2.0)
    assert abs(lo - norm.ppf(0.2)) < 1e-12 and abs(hi - norm.ppf(0.7)) < 1e-12
    lo, hi = tr.to_interval(3.0)
    assert abs(lo - norm.ppf(0.7)) < 1e-12 and hi == np.inf
    with pytest.raises(ValueError):
        tr.to_interval(4.0)


def test_fit_marginals_rejects_constant_column():
    m = continuous_matrix(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]))
    with pytest.raises(FitError):
        fit_marginals(m)


def test_marginal_transform_json_round_trip():
    m = continuous_matrix(np.array([[10.0], [20.0], [30.0], [40.0]]))
    tr = fit_marginals(m)[0]
    back = MarginalTransform.from_json(tr.to_json())
    assert back.kind == tr.kind
    assert np.array_equal(back.support, tr.support)
    assert np.array_equal(back.cum_probs, tr.cum_probs)


def test_row_constraints_partition_columns():
    values = np.array([[10.0, np.nan], [20.0, 1.0], [30.0, 2.0], [40.0, 2.0]])
    m = ObservationMatrix(values=values, mask=~np.isnan(values),
                          column_kinds=(CONTINUOUS, ORDINAL),
                          column_names=("x", "g"),
                          time_index=monthly_index(datetime.date(2013, 1, 1), 4),
                          ordinal_levels={1: (1.0, 2.0)})
    cons = row_constraints(m, fit_marginals(m))
    assert cons[0].missing == (1,)
    assert list(cons[0].exact) == [0]
    assert list(cons[1].intervals) == [1]
    assert cons[1].missing == ()
    with pytest.raises(ValueError):
        RowConstraint(exact={0: 1.0}, intervals={}, missing=(2,))


def mixed_panel(n=40, seed=5):
    """Masked copula sample: 3 lognormal columns, 2 ordinal columns."""
    rng = rng_for(seed, "mixed-panel")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(5, 30))))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * 3
             + [MarginalSpec("ordinal", levels=(1.0, 2.0, 3.0, 4.0),
                             probs=(0.25,) * 4)] * 2)
    masked, _ = apply_mask(gen_copula_sample(sigma, specs, n, seed), 0.25,
                           seed=seed + 1)
    return masked


def per_cell_constraints(matrix, marginals):
    """Cell-by-cell build through to_latent / to_interval: the reference."""
    out = []
    for i in range(matrix.n_rows):
        exact, intervals, missing = {}, {}, []
        for j in range(matrix.n_cols):
            if not matrix.mask[i, j]:
                missing.append(j)
            elif marginals[j].kind == CONTINUOUS:
                exact[j] = float(marginals[j].to_latent(matrix.values[i, j]))
            else:
                intervals[j] = marginals[j].to_interval(matrix.values[i, j])
        out.append((exact, intervals, tuple(missing)))
    return out


def test_row_constraints_equal_per_cell_build_bit_for_bit():
    m = mixed_panel()
    cons = row_constraints(m, fit_marginals(m))
    ref = per_cell_constraints(m, fit_marginals(m))
    # repr round-trips floats exactly and tells -0.0 from 0.0.
    assert [repr((c.exact, c.intervals, c.missing)) for c in cons] == \
        [repr(r) for r in ref]
    assert sum(len(c.exact) for c in cons) > 0
    assert sum(len(c.intervals) for c in cons) > 0
    assert sum(len(c.missing) for c in cons) > 0


def test_row_constraints_reject_level_the_marginals_never_saw():
    m = mixed_panel()
    seen = m.copy()
    seen.values[:, 3] = np.where(seen.values[:, 3] == 4.0, 3.0, seen.values[:, 3])
    marginals = fit_marginals(seen)               # column 3 never saw level 4
    first_4 = np.flatnonzero(m.mask[:, 3] & (m.values[:, 3] == 4.0))[0]
    # An earlier unseen cell in a later column: the first in row-major order
    # is the one named.
    r = np.flatnonzero(m.mask[:first_4, 4])[0]
    m.values[r, 4] = 7.0
    with pytest.raises(ValueError, match=r"7\.0"):
        per_cell_constraints(m, marginals)
    with pytest.raises(ValueError) as got:
        row_constraints(m, marginals)
    assert str(got.value).startswith(f"column {m.column_names[4]!r} row {r}: ")
    assert "value 7.0 is not an observed level" in str(got.value)
    assert "np.float64" not in str(got.value)


def same_bits(x, y):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return x.shape == y.shape and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


def scipy_truncated_normal_moments(lo, hi, mean=0.0, sd=1.0):
    """truncated_normal_moments written with scipy.stats.norm.cdf."""
    from scipy.stats import norm
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = norm.cdf(b) - norm.cdf(a)
    if mass < 1e-300:
        anchor = lo if abs(a) < abs(b) else hi
        if not np.isfinite(anchor):
            anchor = hi if np.isfinite(hi) else lo
        return float(anchor), 0.0
    pa = np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi) if np.isfinite(a) else 0.0
    pb = np.exp(-0.5 * b * b) / np.sqrt(2.0 * np.pi) if np.isfinite(b) else 0.0
    apa = a * pa if np.isfinite(a) else 0.0
    bpb = b * pb if np.isfinite(b) else 0.0
    ratio = (pa - pb) / mass
    var = sd * sd * max(1.0 + (apa - bpb) / mass - ratio * ratio, 0.0)
    return float(mean + sd * ratio), float(var)


def test_truncated_normal_moments_equal_scipy_stats_formula_bit_for_bit():
    bounds = (-np.inf, -9.0, -3.0, -0.5, 0.0, 0.7, 2.5, 8.5, 40.0, np.inf)
    cases = 0
    for lo in bounds:
        for hi in bounds:
            if not hi > lo:
                continue
            for mean in (0.0, -1.3, 2.2):
                for sd in (1.0, 0.4, 2.5):
                    got = truncated_normal_moments(lo, hi, mean, sd)
                    ref = scipy_truncated_normal_moments(lo, hi, mean, sd)
                    assert same_bits(got, ref), (lo, hi, mean, sd)
                    cases += 1
    assert cases == 45 * 9


def test_marginal_maps_equal_scipy_stats_formulas_bit_for_bit():
    from scipy.stats import norm
    m = mixed_panel()
    cont, ordi = fit_marginals(m)[0], fit_marginals(m)[3]
    z = np.concatenate([np.linspace(-9.0, 9.0, 1001),
                        [-np.inf, np.inf, 0.0, -0.0, -40.0, 40.0]])
    assert same_bits(ordi.cut_points, norm.ppf(ordi.cum_probs))
    x = np.concatenate([cont.support, np.linspace(0.0, 6.0, 301)])
    assert same_bits(cont.to_latent(x),
                     norm.ppf(np.interp(x, cont.support, cont.cum_probs)))
    for v in x[::37]:
        assert same_bits(cont.to_latent(v),
                         norm.ppf(np.interp(v, cont.support, cont.cum_probs)))
    assert same_bits(cont.from_latent(z),
                     np.interp(norm.cdf(z), cont.cum_probs, cont.support))
    assert same_bits(ordi.from_latent(z), ordi.support[
        np.searchsorted(norm.ppf(ordi.cum_probs), z, side="left")])


# ------------------------------------------------- truncated normal moments

def test_truncated_normal_half_line_oracle():
    mu, var = truncated_normal_moments(0.0, np.inf)
    assert abs(mu - HALF_NORMAL_MEAN) < 1e-12
    assert abs(var - (1.0 - 2.0 / math.pi)) < 1e-12


def test_truncated_normal_symmetric_interval():
    mu, var = truncated_normal_moments(-1.0, 1.0)
    assert abs(mu) < 1e-15
    assert abs(var - 0.29112509477279314) < 1e-12


def test_truncated_normal_location_scale():
    m0, v0 = truncated_normal_moments(-0.5, 2.0)
    m1, v1 = truncated_normal_moments(3.0 - 0.5 * 2.0, 3.0 + 2.0 * 2.0,
                                      mean=3.0, sd=2.0)
    assert abs(m1 - (3.0 + 2.0 * m0)) < 1e-12
    assert abs(v1 - 4.0 * v0) < 1e-12


def test_truncated_normal_matches_rejection_sampling():
    rng = rng_for(0, "truncnorm-mc")
    for _ in range(5):
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 2.5))
        draws = rng.standard_normal(400000)
        kept = draws[(draws > lo) & (draws <= hi)]
        mu, var = truncated_normal_moments(lo, hi)
        assert abs(mu - kept.mean()) < 0.01
        assert abs(var - kept.var()) < 0.01


def test_truncated_normal_extreme_interval_collapses():
    mu, var = truncated_normal_moments(40.0, 41.0)
    assert mu == 40.0 and var == 0.0
    with pytest.raises(ValueError):
        truncated_normal_moments(1.0, 1.0)


# ------------------------------------------------------------------- e-step

def test_e_step_bivariate_conditional_oracle():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    con = RowConstraint(exact={0: 1.0}, intervals={}, missing=(1,))
    e_z, e_zz = e_step(sigma, con, ridge=0.0)
    assert abs(e_z[0] - 1.0) < 1e-12
    assert abs(e_z[1] - 0.5) < 1e-12
    # E[z1^2 | z0=1] = var + mean^2 = 0.75 + 0.25 = 1.0.
    assert abs(e_zz[1, 1] - 1.0) < 1e-12
    assert abs(e_zz[0, 1] - 0.5) < 1e-12
    assert np.array_equal(e_zz, e_zz.T)


def test_e_step_ordinal_interval_gives_truncated_moments():
    sigma = np.eye(1)
    con = RowConstraint(exact={}, intervals={0: (0.0, np.inf)}, missing=())
    e_z, e_zz = e_step(sigma, con, ridge=0.0, inner_tol=1e-10)
    assert abs(e_z[0] - HALF_NORMAL_MEAN) < 1e-9
    expected_second = (1.0 - 2.0 / math.pi) + HALF_NORMAL_MEAN ** 2
    assert abs(e_zz[0, 0] - expected_second) < 1e-9


def test_e_step_empty_row_returns_prior():
    sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
    con = RowConstraint(exact={}, intervals={}, missing=(0, 1))
    e_z, e_zz = e_step(sigma, con)
    assert np.allclose(e_z, 0.0)
    assert np.allclose(e_zz, sigma)


def test_e_step_batched_sum_matches_scalar_rows():
    rng = rng_for(1, "batch-estep")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(5, 60))))
    cons = []
    for _ in range(40):
        parts = rng.integers(0, 2, size=5).astype(bool)
        if not parts.any():
            parts[0] = True
        exact = {j: float(rng.normal()) for j in range(5) if parts[j]}
        missing = tuple(j for j in range(5) if not parts[j])
        cons.append(RowConstraint(exact=exact, intervals={}, missing=missing))
    batched = _estep_sum(sigma, _Plan(cons, 5), 1e-8)
    scalar = np.zeros_like(batched)
    for con in cons:
        _, e_zz = e_step(sigma, con, ridge=1e-8)
        scalar += e_zz
    assert np.allclose(batched, scalar, atol=1e-10)


# ------------------------------------------------------------- projection

def test_project_correlation_unit_diagonal_and_psd():
    rng = rng_for(2, "proj")
    a = rng.normal(size=(4, 4))
    s = a @ a.T + 4.0 * np.eye(4)
    p = project_correlation(s)
    assert np.allclose(np.diag(p), 1.0)
    assert np.array_equal(p, p.T)
    assert np.linalg.eigvalsh(p).min() >= 1e-6 * (1.0 - 1e-12)


def test_project_correlation_is_idempotent_bit_exact():
    rng = rng_for(3, "proj-idem")
    a = rng.normal(size=(5, 5))
    s = a @ a.T + 0.1 * np.eye(5)
    p = project_correlation(s)
    assert np.array_equal(project_correlation(p), p)


def test_project_correlation_clips_indefinite_input():
    s = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    p = project_correlation(s)
    assert np.linalg.eigvalsh(p).min() >= 1e-6 * (1.0 - 1e-12)
    assert np.allclose(np.diag(p), 1.0)


def test_project_correlation_rejects_bad_input():
    with pytest.raises(ValueError):
        project_correlation(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        project_correlation(np.array([[0.0, 0.0], [0.0, 1.0]]))


# -------------------------------------------------------------- likelihood

def test_pseudo_loglik_single_cell_oracle():
    support = np.array([10.0, 20.0, 30.0])
    tr = MarginalTransform(kind=CONTINUOUS, support=support,
                           cum_probs=np.array([0.25, 0.5, 0.75]))
    model = CopulaModel(sigma=np.eye(1), marginals=[tr])
    con = RowConstraint(exact={0: 0.0}, intervals={}, missing=())
    assert abs(pseudo_loglik(model.sigma, [con]) - LOG_PHI_0) < 1e-12


def test_pseudo_loglik_additive_over_rows():
    tr = MarginalTransform(kind=CONTINUOUS, support=np.array([1.0, 2.0]),
                           cum_probs=np.array([1 / 3, 2 / 3]))
    model = CopulaModel(sigma=np.eye(1), marginals=[tr])
    con = RowConstraint(exact={0: 0.0}, intervals={}, missing=())
    single = pseudo_loglik(model.sigma, [con])
    assert abs(pseudo_loglik(model.sigma, [con, con]) - 2.0 * single) < 1e-12


# ------------------------------------------------------------------ em_fit

def test_em_fit_recovers_bivariate_correlation():
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0)),
             MarginalSpec(kind="lognormal", params=(0.0, 0.5))]
    full = gen_copula_sample(sigma, specs, 400, seed=21)
    masked, _ = apply_mask(full, 0.15, seed=22)
    model = em_fit(masked, max_iters=60, tol=1e-6)
    assert abs(model.sigma[0, 1] - 0.8) < 0.1
    assert model.converged


def test_em_fit_trace_is_monotone_and_shaped():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0))] * 2
    full = gen_copula_sample(sigma, specs, 120, seed=31)
    masked, _ = apply_mask(full, 0.2, seed=32)
    model = em_fit(masked, max_iters=40, tol=1e-8)
    logliks = [row[2] for row in model.em_trace]
    assert all(b >= a - 1e-8 for a, b in zip(logliks, logliks[1:]))
    iters = [row[0] for row in model.em_trace]
    assert iters == list(range(1, len(iters) + 1))


def test_em_fit_handles_ordinal_columns():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0)),
             MarginalSpec(kind="ordinal", levels=(1.0, 2.0, 3.0),
                          probs=(0.3, 0.4, 0.3))]
    full = gen_copula_sample(sigma, specs, 300, seed=41)
    masked, _ = apply_mask(full, 0.1, seed=42)
    model = em_fit(masked, max_iters=40)
    assert 0.0 < model.sigma[0, 1] < 1.0
    assert abs(model.sigma[0, 1] - 0.6) < 0.2


def test_em_fit_needs_two_observed_rows():
    values = np.array([[1.0, 2.0], [np.nan, np.nan], [np.nan, np.nan]])
    m = continuous_matrix(values)
    with pytest.raises(FitError):
        em_fit(m)


def test_em_fit_warns_when_iteration_cap_hits():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0))] * 2
    full = gen_copula_sample(sigma, specs, 80, seed=51)
    masked, _ = apply_mask(full, 0.2, seed=52)
    with pytest.warns(UserWarning):
        model = em_fit(masked, max_iters=1, tol=1e-12)
    assert not model.converged


# ------------------------------------------------------------------ impute

def test_impute_fills_all_cells_and_keeps_observed():
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0))] * 2
    full = gen_copula_sample(sigma, specs, 200, seed=61)
    masked, record = apply_mask(full, 0.15, seed=62)
    model = em_fit(masked, max_iters=50)
    completed = impute(model, masked)
    assert bool(completed.mask.all())
    kept = masked.mask
    assert np.array_equal(completed.values[kept], masked.values[kept])
    assert completed.metadata.get("imputed") is True
    # Imputations must correlate with the truth on the erased cells.
    cells = record.erased_cells
    truth = np.array([full.values[r, c] for r, c in cells])
    est = np.array([completed.values[r, c] for r, c in cells])
    assert np.corrcoef(truth, est)[0, 1] > 0.5


def test_impute_flags_fully_missing_rows():
    values = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0],
                       [np.nan, np.nan]])
    m = continuous_matrix(values)
    model = em_fit(m, max_iters=30)
    completed = impute(model, m)
    assert completed.metadata["degenerate_rows"] == [4]
    # Median fallback: the empirical median of each column.
    assert 1.0 <= completed.values[4, 0] <= 4.0
    assert 10.0 <= completed.values[4, 1] <= 40.0


def test_copula_model_save_load_round_trip(tmp_path):
    sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0))] * 2
    full = gen_copula_sample(sigma, specs, 100, seed=71)
    model = em_fit(full, max_iters=20)
    path = os.path.join(tmp_path, "model.json")
    model.save(path)
    with open(path) as fh:
        back = CopulaModel.from_json(json.load(fh))
    assert np.array_equal(back.sigma, model.sigma)
    assert back.converged == model.converged
    assert back.em_trace == model.em_trace
    assert len(back.marginals) == 2


# ----------------------------------------------- scalar reference kernel
# The per-row conditioning code the batched kernel replaced, kept here as
# the reference it must match bit for bit: e_step's scalar mean-field loop,
# _estep_sum's per-row pass over interval rows and pseudo_loglik's per-row
# solves, all through scipy's cho_factor / cho_solve.

def _truncated_normal_moments_reference(lo, hi, mean=0.0, sd=1.0):
    from scipy.special import ndtr
    if not hi > lo:
        raise ValueError("need hi > lo")
    if sd <= 0:
        raise ValueError("need sd > 0")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = ndtr(b) - ndtr(a)
    if mass < 1e-300:
        anchor = lo if abs(a) < abs(b) else hi
        if not np.isfinite(anchor):
            anchor = hi if np.isfinite(hi) else lo
        return float(anchor), 0.0
    pa = np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi) if np.isfinite(a) else 0.0
    pb = np.exp(-0.5 * b * b) / np.sqrt(2.0 * np.pi) if np.isfinite(b) else 0.0
    apa = a * pa if np.isfinite(a) else 0.0
    bpb = b * pb if np.isfinite(b) else 0.0
    ratio = (pa - pb) / mass
    mu = mean + sd * ratio
    var = sd * sd * max(1.0 + (apa - bpb) / mass - ratio * ratio, 0.0)
    return float(mu), float(var)


def _e_step_reference(sigma, constraint, ridge=1e-8, max_inner=50,
                      inner_tol=1e-6, passes=None):
    """The scalar e_step; appends each interval row's pass count to passes."""
    from scipy.linalg import cho_factor, cho_solve
    sigma = np.asarray(sigma, dtype=float)
    q = sigma.shape[0]
    obs = list(constraint.observed)
    mis = [j for j in range(q) if j not in set(obs)]
    if not obs:
        return np.zeros(q), sigma.copy()
    z_obs = np.zeros(len(obs))
    v_obs = np.zeros(len(obs))
    pos = {j: k for k, j in enumerate(obs)}
    for j, val in constraint.exact.items():
        z_obs[pos[j]] = val
    ord_cols = sorted(constraint.intervals)
    if ord_cols or mis:
        block = sigma[np.ix_(obs, obs)] + ridge * np.eye(len(obs))
        try:
            factor = cho_factor(block, lower=True)
        except np.linalg.LinAlgError:
            raise FitError("observed block of sigma is not positive definite") from None
    if ord_cols:
        prec = cho_solve(factor, np.eye(len(obs)))
        for j in ord_cols:
            lo, hi = constraint.intervals[j]
            z_obs[pos[j]], _ = _truncated_normal_moments_reference(lo, hi)
        used = max_inner
        for sweep in range(max_inner):
            delta = 0.0
            scale = 0.0
            for j in ord_cols:
                k = pos[j]
                cond_var = 1.0 / prec[k, k]
                cond_mean = z_obs[k] - cond_var * (prec[k] @ z_obs)
                lo, hi = constraint.intervals[j]
                mu, var = _truncated_normal_moments_reference(
                    lo, hi, cond_mean, np.sqrt(cond_var))
                delta = max(delta, abs(mu - z_obs[k]))
                scale = max(scale, abs(mu), abs(z_obs[k]), 1.0)
                z_obs[k] = mu
                v_obs[k] = var
            if delta / scale < inner_tol:
                used = sweep + 1
                break
        if passes is not None:
            passes.append(used)
    e_z = np.zeros(q)
    e_zzT = np.zeros((q, q))
    e_z[np.asarray(obs, dtype=int)] = z_obs
    e_zzT[np.ix_(obs, obs)] = np.outer(z_obs, z_obs) + np.diag(v_obs)
    if mis:
        cross = sigma[np.ix_(mis, obs)]
        gain = cho_solve(factor, cross.T).T
        mean_m = gain @ z_obs
        cond_mm = sigma[np.ix_(mis, mis)] - gain @ cross.T
        cov_mm = cond_mm + (gain * v_obs) @ gain.T
        e_z[mis] = mean_m
        e_zzT[np.ix_(mis, mis)] = cov_mm + np.outer(mean_m, mean_m)
        cross_mo = np.outer(mean_m, z_obs) + gain * v_obs
        e_zzT[np.ix_(mis, obs)] = cross_mo
        e_zzT[np.ix_(obs, mis)] = cross_mo.T
    return e_z, 0.5 * (e_zzT + e_zzT.T)


def _estep_sum_reference(sigma, constraints, ridge, passes=None):
    from scipy.linalg import cho_factor, cho_solve
    q = sigma.shape[0]
    groups = {}
    singles = []
    for i, con in enumerate(constraints):
        if con.intervals:
            singles.append(i)
        else:
            groups.setdefault(tuple(sorted(con.exact)), []).append(i)
    total = np.zeros((q, q))
    for obs, rows in sorted(groups.items()):
        if not obs:
            total += len(rows) * sigma
            continue
        z = np.array([[constraints[i].exact[j] for j in obs] for i in rows])
        mis = [j for j in range(q) if j not in set(obs)]
        sum_oo = z.T @ z
        if not mis:
            total += sum_oo
            continue
        block = sigma[np.ix_(obs, obs)] + ridge * np.eye(len(obs))
        factor = cho_factor(block, lower=True)
        cross = sigma[np.ix_(mis, list(obs))]
        gain = cho_solve(factor, cross.T).T
        mean_m = z @ gain.T
        cond_mm = sigma[np.ix_(mis, mis)] - gain @ cross.T
        block = np.zeros((q, q))
        block[np.ix_(list(obs), list(obs))] = sum_oo
        block[np.ix_(mis, mis)] = len(rows) * cond_mm + mean_m.T @ mean_m
        cross_mo = mean_m.T @ z
        block[np.ix_(mis, list(obs))] = cross_mo
        block[np.ix_(list(obs), mis)] = cross_mo.T
        total += block
    for i in singles:
        _, e_zzT = _e_step_reference(sigma, constraints[i], ridge=ridge,
                                     passes=passes)
        total += e_zzT
    return 0.5 * (total + total.T)


def _pseudo_loglik_reference(sigma, constraints, ridge=1e-8):
    from scipy.linalg import cho_factor, cho_solve
    from scipy.special import ndtr
    cache = {}
    total = 0.0
    for con in constraints:
        cols = tuple(sorted(con.exact))
        if cols:
            if cols not in cache:
                block = sigma[np.ix_(cols, cols)]
                try:
                    factor = cho_factor(block, lower=True)
                except np.linalg.LinAlgError:
                    warnings.warn("singular observed block in pseudo_loglik; "
                                  "applying ridge repair")
                    factor = cho_factor(block + ridge * np.eye(len(cols)),
                                        lower=True)
                logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
                cache[cols] = (factor, logdet)
            factor, logdet = cache[cols]
            z = np.array([con.exact[j] for j in cols])
            quad = float(z @ cho_solve(factor, z))
            total += -0.5 * (len(cols) * np.log(2.0 * np.pi) + logdet + quad)
        for j in sorted(con.intervals):
            lo, hi = con.intervals[j]
            mass = ndtr(hi) - ndtr(lo)
            total += float(np.log(max(mass, 1e-300)))
    return total


def _em_reference(matrix, max_iters, tol=1e-4, ridge=1e-8, passes=None):
    """em_fit's loop over the reference E-step and log-likelihood."""
    constraints = row_constraints(matrix, fit_marginals(matrix))
    sigma = np.eye(matrix.n_cols)
    trace = []
    for it in range(1, max_iters + 1):
        s = _estep_sum_reference(sigma, constraints, ridge, passes) / matrix.n_rows
        sigma_next = project_correlation(s)
        delta = float(np.linalg.norm(sigma_next - sigma) / np.linalg.norm(sigma))
        trace.append((it, delta, _pseudo_loglik_reference(sigma_next, constraints,
                                                          ridge)))
        sigma = sigma_next
        if delta < tol:
            break
    return sigma, trace


def _impute_reference(model, matrix, passes=None):
    constraints = row_constraints(matrix, model.marginals)
    latent = np.zeros(matrix.values.shape)
    for i, con in enumerate(constraints):
        if con.missing:
            latent[i], _ = _e_step_reference(model.sigma, con, passes=passes)
    values = matrix.values.copy()
    for j, marginal in enumerate(model.marginals):
        rows = np.flatnonzero(~matrix.mask[:, j])
        values[rows, j] = marginal.from_latent(latent[rows, j])
    return values


def _assert_em_and_impute_match_reference(masked, max_iters):
    passes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = em_fit(masked, max_iters=max_iters)
        sigma, trace = _em_reference(masked, max_iters, passes=passes)
    assert same_bits(model.sigma, sigma)
    assert model.em_trace == trace
    assert all(same_bits(a, b) for a, b in zip(model.em_trace, trace))
    assert same_bits(impute(model, masked).values,
                     _impute_reference(model, masked, passes))
    return model, passes


def ordinal_benchmark_panel(seed=11, rows=150, continuous=12, ordinal=4):
    """A 150x16 copula panel with 4 four-level ordinal columns, mask 0.2."""
    rng = rng_for(seed, "ordinal-benchmark-panel")
    q = continuous + ordinal
    a = rng.normal(size=(q, q))
    sigma = a @ a.T + 0.5 * np.eye(q)
    d = np.sqrt(np.diag(sigma))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * continuous
             + [MarginalSpec("ordinal", levels=(1.0, 2.0, 3.0, 4.0),
                             probs=(0.25,) * 4)] * ordinal)
    full = gen_copula_sample(sigma / np.outer(d, d), specs, rows, seed)
    return apply_mask(full, 0.2, seed + 1)[0]


def mixed_edge_panel():
    """Mixed 40x6 panel (2 continuous, 2 binary and 2 four-level ordinal
    columns) whose first rows are edge cases: row 0 fully missing, row 1
    fully observed, row 2 holding one ordinal cell and nothing else, row 3
    holding only the two binary cells, at their upper level."""
    rng = rng_for(9, "mixed-edge-panel")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(6, 12))) + np.eye(6))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * 2
             + [MarginalSpec("ordinal", levels=(0.0, 1.0), probs=(0.5, 0.5))] * 2
             + [MarginalSpec("ordinal", levels=(1.0, 2.0, 3.0, 4.0),
                             probs=(0.25,) * 4)] * 2)
    full = gen_copula_sample(sigma, specs, 40, 9)
    masked, _ = apply_mask(full, 0.25, 10)
    keep = np.zeros((4, 6), dtype=bool)
    keep[1] = True
    keep[2, 4] = True
    keep[3, 2:4] = True
    masked.mask[:4] = keep
    masked.values[:4] = np.where(keep, full.values[:4], np.nan)
    masked.values[3, 2:4] = 1.0
    return masked


def test_em_and_impute_equal_scalar_reference_on_default_panel():
    masked, _ = apply_mask(gen_seasonal_load(seed=11), 0.1, 11)
    model, _ = _assert_em_and_impute_match_reference(masked, 100)
    assert model.converged and len(model.em_trace) > 3


def test_em_and_impute_equal_scalar_reference_on_ordinal_panel():
    masked = ordinal_benchmark_panel()
    assert masked.values.shape == (150, 16)
    _, passes = _assert_em_and_impute_match_reference(masked, 4)
    # Rows stop after different numbers of passes, so a shared stopping
    # rule would show.
    assert len(set(passes)) > 3


def test_em_impute_and_e_step_equal_scalar_reference_on_mixed_edge_panel():
    masked = mixed_edge_panel()
    model, _ = _assert_em_and_impute_match_reference(masked, 12)
    constraints = row_constraints(masked, model.marginals)
    assert not constraints[0].observed and not constraints[1].missing
    assert list(constraints[2].intervals) == [4] and not constraints[2].exact
    # At a strongly correlated sigma, row 3's two upper-level binary cells
    # need far more than max_inner passes; the other rows stop early.
    strong = np.full((6, 6), 0.99) + 0.01 * np.eye(6)
    passes = []
    ref = _estep_sum_reference(strong, constraints, 1e-8, passes)
    assert same_bits(_estep_sum(strong, _Plan(constraints, 6), 1e-8), ref)
    assert max(passes) == 50 and min(passes) < 50
    assert same_bits(pseudo_loglik(strong, constraints),
                     _pseudo_loglik_reference(strong, constraints))
    strong_model = CopulaModel(sigma=strong, marginals=model.marginals)
    assert same_bits(impute(strong_model, masked).values,
                     _impute_reference(strong_model, masked))
    for sigma in (model.sigma, strong):
        for con in constraints:
            for max_inner, tol in ((50, 1e-6), (2, 1e-12), (0, 1e-6)):
                got = e_step(sigma, con, max_inner=max_inner, inner_tol=tol)
                want = _e_step_reference(sigma, con, max_inner=max_inner,
                                         inner_tol=tol)
                assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("panel, max_iters", [
    (lambda: apply_mask(gen_seasonal_load(seed=11), 0.1, 11)[0], 100),
    (mixed_edge_panel, 12),
], ids=["continuous", "ordinal_with_empty_row"])
def test_complete_equals_em_fit_then_impute_bit_for_bit(panel, max_iters):
    masked = panel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model, completed = complete(masked, max_iters=max_iters)
        want_model = em_fit(masked, max_iters=max_iters)
    want = impute(want_model, masked)
    assert same_bits(model.sigma, want_model.sigma)
    assert model.em_trace == want_model.em_trace
    assert all(same_bits(a, b) for a, b in zip(model.em_trace, want_model.em_trace))
    assert model.converged == want_model.converged
    assert same_bits(completed.values, want.values) and completed.mask.all()
    assert completed.metadata == want.metadata
    assert completed.metadata.get("degenerate_rows") == (
        [0] if panel is mixed_edge_panel else None)


def test_complete_fills_with_the_fit_ridge():
    masked = apply_mask(gen_seasonal_load(seed=11), 0.1, 11)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model, completed = complete(masked, ridge=1e-2)
        want_model = em_fit(masked, ridge=1e-2)
    assert same_bits(model.sigma, want_model.sigma)
    plan = _Plan(row_constraints(masked, want_model.marginals), masked.n_cols)
    want = _fill(want_model, masked, plan, 1e-2)
    assert same_bits(completed.values, want.values)
    # impute keeps the fixed 1e-8, so it fills the same fit differently.
    assert not np.array_equal(completed.values,
                              impute(want_model, masked).values)


def test_truncated_moments_array_kernel_equals_scalar_reference_bit_for_bit():
    bounds = (-np.inf, -9.0, -3.0, -0.5, 0.0, 0.7, 2.5, 8.5, 40.0, np.inf)
    grid = [(lo, hi, mean, sd) for lo in bounds for hi in bounds if hi > lo
            for mean in (0.0, -1.3, 2.2) for sd in (1.0, 0.4, 2.5)]
    assert len(grid) == 405
    mu, var = _truncated_moments(*(np.array(col) for col in zip(*grid)))
    collapsed = 0
    for i, case in enumerate(grid):
        want = _truncated_normal_moments_reference(*case)
        assert same_bits((mu[i], var[i]), want), case
        assert same_bits(truncated_normal_moments(*case), want), case
        collapsed += want[1] == 0.0 and want[0] in case[:2]
    assert collapsed > 0          # the underflow collapse is in the grid


def test_kernel_errors_match_scalar_reference():
    con = RowConstraint(exact={0: 0.3}, intervals={1: (0.0, np.inf)}, missing=(2,))
    not_pd = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for fn in (e_step, _e_step_reference):
        with pytest.raises(FitError):
            fn(not_pd, con)
    with pytest.raises(FitError):
        _estep_sum(not_pd, _Plan([con], 3), 1e-8)
    with_nan = np.eye(3)
    with_nan[0, 1] = with_nan[1, 0] = np.nan
    for fn in (e_step, _e_step_reference):
        with pytest.raises(ValueError):
            fn(with_nan, con)
    exact = RowConstraint(exact={0: 0.3, 1: -0.2}, intervals={}, missing=(2,))
    for fn in (pseudo_loglik, _pseudo_loglik_reference):
        with pytest.raises(ValueError):
            fn(with_nan, [exact])
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.warns(UserWarning, match="ridge repair"):
        got = pseudo_loglik(singular, [exact, exact])
    with pytest.warns(UserWarning, match="ridge repair"):
        want = _pseudo_loglik_reference(singular, [exact, exact])
    assert same_bits(got, want) and np.isfinite(got)
