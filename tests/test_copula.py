"""Tests for the Gaussian-copula completion module."""

import datetime
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from copulacast import copula
from copulacast._normal import ndtr
from copulacast.copula import (
    CopulaModel,
    MarginalTransform,
    RowConstraint,
    _Conditioning,
    _estep_sum,
    _fill,
    _constraint_cells,
    _latent_cells,
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
    write_json,
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


def test_fit_marginals_rejects_values_too_far_apart_to_interpolate():
    other = [2.0, 1.0, 3.0, 5.0]
    for column in ([1e308, -1e308, 3.0, 4.0],     # max - min overflows
                   [1e308, -7e307, 4.0, 5.0]):    # only a slope overflows
        m = continuous_matrix(np.column_stack([column, other]))
        with pytest.raises(FitError, match=r"^column 'c0': observed values "
                           r"too far apart to interpolate in float64$"):
            fit_marginals(m)
    # Slopes of 5e307 stay finite, and so does every fill.
    m = continuous_matrix(np.column_stack([[1e307, -1e307, 4.0, 5.0], other]))
    tr = fit_marginals(m)[0]
    assert np.isfinite(tr.from_latent(np.linspace(-9.0, 9.0, 101))).all()


def test_marginal_transform_json_round_trip(tmp_path):
    m = continuous_matrix(np.array([[10.0], [20.0], [30.0], [40.0]]))
    tr = fit_marginals(m)[0]
    path = os.path.join(tmp_path, "marginal.json")
    write_json(tr.to_json(), path)
    with open(path) as fh:
        assert json.load(fh) == tr.to_json()


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
    """truncated_normal_moments written as the scipy.stats formula, with the
    package's normal CDF in place of norm.cdf and, above the mean, the mass
    of the mirror interval."""
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a)
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
                     np.interp(ndtr(z), cont.cum_probs, cont.support))
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
    batched = _estep_sum(sigma, _Plan(*_constraint_cells(cons, 5)), 1e-8)
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


ORDINAL_MARGINAL = MarginalTransform(kind=ORDINAL, support=np.array([1.0, 2.0]),
                                     cum_probs=np.array([0.5]))
CONTINUOUS_MARGINAL = MarginalTransform(kind=CONTINUOUS, support=np.array([1.0, 2.0]),
                                        cum_probs=np.array([1 / 3, 2 / 3]))
CORRELATED = np.array([[1.0, 0.5], [0.5, 1.0]])
NAN_OUTSIDE_BLOCKS = np.eye(3)
NAN_OUTSIDE_BLOCKS[1, 2] = math.nan  # only in the missing block of row {0}


@pytest.mark.parametrize("call, message", [
    (lambda: ORDINAL_MARGINAL.to_latent(1.0),
     "to_latent applies to continuous columns only"),
    (lambda: CONTINUOUS_MARGINAL.to_interval(1.0),
     "to_interval applies to ordinal columns only"),
    (lambda: truncated_normal_moments(0.0, 1.0, sd=0.0), "need sd > 0"),
    (lambda: e_step(np.eye(3), RowConstraint(exact={0: 0.1}, intervals={},
                                             missing=(1,))),
     "constraint arity does not match sigma"),
    (lambda: project_correlation(np.ones((2, 3))), "input must be square"),
    (lambda: CopulaModel(sigma=np.eye(2), marginals=[CONTINUOUS_MARGINAL]),
     "sigma and marginals disagree on dimension"),
    (lambda: CopulaModel(sigma=[[1.0, 0.5], [0.2, 1.0]],
                         marginals=[CONTINUOUS_MARGINAL] * 2),
     "sigma must be symmetric"),
    (lambda: CopulaModel(sigma=[[2.0, 0.0], [0.0, 1.0]],
                         marginals=[CONTINUOUS_MARGINAL] * 2),
     "sigma must have a unit diagonal"),
    (lambda: CopulaModel(sigma=[[1.0, 1.2], [1.2, 1.0]],
                         marginals=[CONTINUOUS_MARGINAL] * 2),
     "sigma must be positive semidefinite"),
    (lambda: em_fit(continuous_matrix([[1.0, 2.0], [3.0, 5.0], [4.0, 4.0]]),
                    max_iters=0),
     "max_iters must be >= 1"),
    (lambda: impute(CopulaModel(sigma=np.eye(3), marginals=[CONTINUOUS_MARGINAL] * 3),
                    continuous_matrix([[1.0, 2.0], [3.0, 5.0], [4.0, 4.0]])),
     "model and matrix disagree on column count"),
    (lambda: _latent_cells(continuous_matrix([[1.0, 2.0], [3.0, 5.0]]),
                           [CONTINUOUS_MARGINAL]),
     "marginal count does not match column count"),
    (lambda: e_step(np.eye(2), RowConstraint(exact={}, intervals={0: (0.5, 0.5)},
                                             missing=(1,))),
     "need hi > lo"),
    (lambda: pseudo_loglik(np.eye(2), [RowConstraint(exact={0: math.inf},
                                                     intervals={}, missing=(1,))]),
     "array must not contain infs or NaNs"),
    # e_step and pseudo_loglik reject the same bad cells with one message
    (lambda: e_step(CORRELATED, RowConstraint(exact={0: math.nan}, intervals={},
                                              missing=(1,))),
     "array must not contain infs or NaNs"),
    (lambda: e_step(CORRELATED, RowConstraint(exact={0: math.inf}, intervals={},
                                              missing=(1,))),
     "array must not contain infs or NaNs"),
    (lambda: pseudo_loglik(CORRELATED, [RowConstraint(exact={},
                                                      intervals={0: (math.nan, 1.0)},
                                                      missing=(1,))]),
     "need hi > lo"),
    # one sigma check for the kernel and the log-likelihood: a non-finite
    # entry anywhere, or an infinite ridge, is rejected by both
    (lambda: pseudo_loglik([[1.0, math.nan], [math.nan, 1.0]],
                           [RowConstraint(exact={}, intervals={0: (0.0, 1.0)},
                                          missing=(1,))]),
     "array must not contain infs or NaNs"),
    (lambda: e_step(NAN_OUTSIDE_BLOCKS, RowConstraint(exact={0: 0.3}, intervals={},
                                                      missing=(1, 2))),
     "array must not contain infs or NaNs"),
    (lambda: pseudo_loglik(np.eye(2), [RowConstraint(exact={0: 0.3}, intervals={},
                                                     missing=(1,))], ridge=math.inf),
     "array must not contain infs or NaNs"),
], ids=["to_latent_ordinal", "to_interval_continuous", "moments_zero_sd",
        "e_step_arity", "projection_not_square", "model_dimension",
        "model_asymmetric", "model_diagonal", "model_not_psd", "em_no_iterations",
        "impute_column_count", "latent_cells_marginal_count", "e_step_empty_interval",
        "loglik_infinite_exact", "e_step_nan_exact", "e_step_infinite_exact",
        "loglik_nan_interval", "loglik_nan_sigma_interval_row",
        "e_step_nan_in_missing_block", "loglik_infinite_ridge"])
def test_copula_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    # Imputations must correlate with the truth on the erased cells.
    cells = record.erased_cells
    truth = np.array([full.values[r, c] for r, c in cells])
    est = np.array([completed.values[r, c] for r, c in cells])
    assert np.corrcoef(truth, est)[0, 1] > 0.5


def test_impute_fills_a_fully_missing_row_with_column_medians():
    values = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0],
                       [np.nan, np.nan]])
    m = continuous_matrix(values)
    model = em_fit(m, max_iters=30)
    completed = impute(model, m)
    assert completed.mask[4].all()
    # Median fallback: the empirical median of each column.
    assert 1.0 <= completed.values[4, 0] <= 4.0
    assert 10.0 <= completed.values[4, 1] <= 40.0


def test_copula_model_save_load_round_trip(tmp_path):
    sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0))] * 2
    full = gen_copula_sample(sigma, specs, 100, seed=71)
    model = em_fit(full, max_iters=20, ridge=1e-3)
    path = os.path.join(tmp_path, "model.json")
    model.save(path)
    with open(path) as fh:
        back = json.load(fh)
    assert back == model.to_json()
    assert back["ridge"] == model.ridge == 1e-3
    assert len(back["marginals"]) == 2


# ----------------------------------------------- scalar reference kernel
# The per-row conditioning code the batched kernel replaced, kept here as
# the reference it must match bit for bit: e_step's scalar mean-field loop,
# _estep_sum's per-row pass and pseudo_loglik's per-row terms.  Each
# factor is np.linalg.cholesky's, which is the package's LAPACK potrf bit
# for bit.  The E-step's solves are scipy's cho_solve, whose potrs gives
# the package's bits; the log-likelihood's are np.linalg.solve of one
# row's factor, as the package's stacked solve, and its terms are added by
# math.fsum.  The normal CDF is the package's.

def _cho_factor(block):
    """cho_factor(block, lower=True), factored by np.linalg.cholesky."""
    return np.linalg.cholesky(block), True


def _truncated_normal_moments_reference(lo, hi, mean=0.0, sd=1.0):
    if not hi > lo:
        raise ValueError("need hi > lo")
    if sd <= 0:
        raise ValueError("need sd > 0")
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    mass = ndtr(-a) - ndtr(-b) if a > 0 else ndtr(b) - ndtr(a)
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
    from scipy.linalg import cho_solve
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
            factor = _cho_factor(block)
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
    """Each row's e_step E[z z^T] added in row order, then sigma once per
    row with no observed cell."""
    q = sigma.shape[0]
    total = np.zeros((q, q))
    for con in constraints:
        if con.observed:
            total += _e_step_reference(sigma, con, ridge=ridge, passes=passes)[1]
    for con in constraints:
        if not con.observed:
            total += sigma
    return 0.5 * (total + total.T)


def _estep_sum_grouped(sigma, constraints, ridge):
    """The E-step sum in grouped form, an oracle for the per-row kernel
    that shares none of its order of additions: exact-only rows summed per
    pattern (z^T z over the pattern's rows plus their count times the
    conditional covariance), then the interval rows one at a time."""
    from scipy.linalg import cho_solve
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
        factor = _cho_factor(block)
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
        total += _e_step_reference(sigma, constraints[i], ridge=ridge)[1]
    return 0.5 * (total + total.T)


def _pseudo_loglik_reference(sigma, constraints, ridge=1e-8):
    terms = []
    for con in constraints:
        cols = sorted(con.exact)
        if cols:
            block = sigma[np.ix_(cols, cols)]
            if not np.isfinite(block).all():  # cho_factor's check
                raise ValueError("array must not contain infs or NaNs")
            try:
                factor = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                warnings.warn("singular observed block in pseudo_loglik; "
                              "applying ridge repair")
                factor = np.linalg.cholesky(block + ridge * np.eye(len(cols)))
            logdet = 2.0 * np.sum(np.log(np.diag(factor)))
            y = np.linalg.solve(factor, np.array([con.exact[j] for j in cols]))
            terms.append(-0.5 * (len(cols) * np.log(2.0 * np.pi) + logdet
                                 + float(np.sum(y * y))))
        for j in sorted(con.intervals):
            lo, hi = con.intervals[j]
            mass = ndtr(-lo) - ndtr(-hi) if lo > 0 else ndtr(hi) - ndtr(lo)
            terms.append(float(np.log(max(mass, 1e-300))))
    return math.fsum(terms)


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
    plan = _Plan(*_constraint_cells(constraints, 6))
    assert same_bits(_estep_sum(strong, plan, 1e-8), ref)
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


# The per-row sum and the grouped sum differ only in how their products
# are added up: over the panels and sigmas below the largest entry
# difference measured was 8.2e-16 of the sum's largest entry; the bound
# leaves over a hundred times that.
GROUPED_RTOL = 1e-13


@pytest.mark.parametrize("panel", [
    lambda: apply_mask(gen_seasonal_load(seed=11), 0.1, 11)[0],
    lambda: apply_mask(gen_seasonal_load(seed=1011), 0.1, 1011)[0],
    lambda: apply_mask(gen_seasonal_load(seed=5011), 0.1, 5011)[0],
    mixed_edge_panel,
], ids=["seed_11", "seed_1011", "seed_5011", "mixed_edge"])
def test_estep_sum_equals_the_grouped_per_pattern_sum(panel):
    masked = panel()
    marginals = fit_marginals(masked)
    constraints = row_constraints(masked, marginals)
    plan = _Plan(masked.mask, *_latent_cells(masked, marginals))
    rng = rng_for(7, "grouped-estep")
    q = masked.n_cols
    for sigma in (np.eye(q),
                  project_correlation(np.corrcoef(rng.normal(size=(q, 2 * q))) + np.eye(q))):
        got = _estep_sum(sigma, plan, 1e-8)
        want = _estep_sum_grouped(sigma, constraints, 1e-8)
        assert np.abs(got - want).max() <= GROUPED_RTOL * np.abs(want).max()


def test_conditioning_makes_one_potrs_call_per_distinct_pattern(monkeypatch):
    masked = mixed_edge_panel()
    # Rows 4-11 lose their ordinal cells, so the rows the fill conditions
    # have blocks whose interval rows and exact-only rows share a size.
    masked.mask[4:12, 2:] = False
    masked.values[4:12, 2:] = np.nan
    marginals = fit_marginals(masked)
    cells = _latent_cells(masked, marginals)
    plan = _Plan(masked.mask, *cells)
    assert any(start < mid < stop <= plan.partial for _, start, mid, stop, *_ in plan.blocks)
    # the rows with a missing cell lead the order, the fully observed follow
    assert not masked.mask[plan.rows[:plan.partial]].all(axis=1).any()
    assert masked.mask[plan.rows[plan.partial:]].all()
    rng = rng_for(4, "potrs-calls")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(6, 12))) + np.eye(6))
    calls = []
    potrs = copula.potrs
    monkeypatch.setattr(copula, "potrs", lambda c, b: calls.append(b.shape) or potrs(c, b))
    counts = []
    for stop in (plan.rows.size, plan.partial):
        calls.clear()
        _Conditioning(sigma, plan, 1e-8, stop)
        # a row needs a solve if it has a missing or an interval cell
        rows = plan.rows[:stop]
        rows = rows[~masked.mask[rows].all(axis=1) | cells[3][rows].any(axis=1)]
        counts.append(len(calls))
        assert len(calls) == np.unique(masked.mask[rows], axis=0).shape[0] > 0
    # the fully observed interval rows' pattern is solved by the E-step only
    assert counts[0] == counts[1] + 1
    model = CopulaModel(sigma=sigma, marginals=marginals)
    assert same_bits(_fill(model, masked, plan).values,
                     _impute_reference(model, masked))


def test_fill_factors_no_fully_observed_row(monkeypatch):
    # At a rank-one sigma and ridge 0 only one-cell observed blocks are
    # positive definite.  The fill conditions the rows with a missing cell,
    # each observing one cell here, and factors no fully observed row, so it
    # fills where the E-step over every row fails.
    values = np.array([[1.0, 1.0], [2.0, np.nan], [np.nan, 2.0],
                       [3.0, 3.0], [4.0, np.nan], [np.nan, 1.0]])
    masked = ObservationMatrix(
        values=values, mask=~np.isnan(values), column_kinds=(CONTINUOUS, ORDINAL),
        column_names=("a", "g"), time_index=monthly_index(datetime.date(2013, 1, 1), 6),
        ordinal_levels={1: (1.0, 2.0, 3.0)})
    model = CopulaModel(sigma=np.ones((2, 2)), marginals=fit_marginals(masked), ridge=0.0)
    plan = _Plan(masked.mask, *_latent_cells(masked, model.marginals))
    with pytest.raises(FitError):
        _estep_sum(model.sigma, plan, 0.0)
    sizes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: sizes.append(a.shape[-1]) or cholesky(a))
    completed = impute(model, masked)
    assert sizes and set(sizes) == {1}
    assert completed.mask.all() and np.isfinite(completed.values).all()
    assert same_bits(completed.values[masked.mask], values[masked.mask])


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
    if panel is mixed_edge_panel:
        # Row 0 has no observed cell, and the fill still observes it.
        assert not masked.mask[0].any()
        assert np.isfinite(completed.values[0]).all()


def test_complete_fills_with_the_fit_ridge():
    masked = apply_mask(gen_seasonal_load(seed=11), 0.1, 11)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model, completed = complete(masked, ridge=1e-2)
        want_model = em_fit(masked, ridge=1e-2)
    assert same_bits(model.sigma, want_model.sigma)
    assert model.ridge == want_model.ridge == 1e-2
    plan = _Plan(masked.mask, *_latent_cells(masked, want_model.marginals))
    want = _fill(want_model, masked, plan)
    assert same_bits(completed.values, want.values)
    # impute fills at the ridge the model records, so it equals complete.
    assert same_bits(completed.values, impute(want_model, masked).values)


@pytest.mark.parametrize("setting", [{"ridge": -1e-9}, {"ridge": float("nan")},
                                     {"tol": float("nan")}],
                         ids=["ridge_negative", "ridge_nan", "tol_nan"])
def test_em_fit_rejects_settings_that_break_the_fit(setting):
    masked = apply_mask(gen_seasonal_load(seed=11), 0.1, 11)[0]
    name = next(iter(setting))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        em_fit(masked, **setting)


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
        _estep_sum(not_pd, _Plan(*_constraint_cells([con], 3)), 1e-8)
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
