"""Property tests: impute passes every observed cell through unchanged, bit
for bit, on random mixed continuous/ordinal panels and masks; em_fit then
impute equals complete bit for bit at any ridge; the array plan of a
panel's latent cells runs the E-step, log-likelihood and fill of the scalar
reference bit for bit; one potrs against stacked right-hand sides equals
the separate solves bit for bit; truncated normal moments are mirror-symmetric;
complete is invariant to increasing maps of a column and to row and column
permutations, within stated roundoff bounds."""

import datetime
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from copulacast._lapack import potrs
from copulacast.copula import (CopulaModel, _constraint_cells, _estep_sum, _fill,
                               _latent_cells, _Layout, _loglik, _Plan, complete,
                               em_fit, fit_marginals, impute, project_correlation,
                               row_constraints, truncated_normal_moments)
from copulacast.dataset import (CONTINUOUS, ORDINAL, MarginalSpec, ObservationMatrix,
                                apply_mask, gen_copula_sample, gen_seasonal_load,
                                monthly_index)
from copulacast.errors import FitError
from copulacast.rng import rng_for
from test_copula import (_estep_sum_reference, _impute_reference,
                         _pseudo_loglik_reference)


def mixed_panel(seed, rows, continuous, ordinal, levels, fraction):
    """A masked copula sample with lognormal and ordinal columns."""
    q = continuous + ordinal
    rng = rng_for(seed, "impute-property")
    sigma = project_correlation(np.corrcoef(rng.normal(size=(q, 3 * q))))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * continuous
             + [MarginalSpec("ordinal", levels=tuple(float(v) for v in range(levels)),
                             probs=(1.0 / levels,) * levels)] * ordinal)
    return apply_mask(gen_copula_sample(sigma, specs, rows, seed), fraction,
                      seed + 1)[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(12, 40),
       continuous=st.integers(0, 3), ordinal=st.integers(0, 3),
       levels=st.integers(2, 5), fraction=st.floats(0.0, 0.5))
def test_impute_passes_observed_cells_through_bit_for_bit(
        seed, rows, continuous, ordinal, levels, fraction):
    assume(continuous + ordinal >= 2)
    masked = mixed_panel(seed, rows, continuous, ordinal, levels, fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model = em_fit(masked, max_iters=3)
        except FitError:          # a column left constant or empty by the mask
            assume(False)
    completed = impute(model, masked)
    seen = masked.mask
    assert completed.mask.all()
    assert np.array_equal(completed.values[seen].view(np.int64),
                          masked.values[seen].view(np.int64))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(12, 30),
       continuous=st.integers(1, 3), ordinal=st.integers(0, 2),
       fraction=st.floats(0.05, 0.4), ridge=st.floats(0.0, 0.1))
@example(seed=5, rows=20, continuous=2, ordinal=1, fraction=0.2, ridge=0.0)
@example(seed=5, rows=20, continuous=2, ordinal=1, fraction=0.2, ridge=1e-8)
@example(seed=5, rows=20, continuous=2, ordinal=1, fraction=0.2, ridge=1e-4)
@example(seed=5, rows=20, continuous=2, ordinal=1, fraction=0.2, ridge=1e-2)
def test_em_fit_then_impute_is_complete_at_every_ridge(
        seed, rows, continuous, ordinal, fraction, ridge):
    assume(continuous + ordinal >= 2)
    masked = mixed_panel(seed, rows, continuous, ordinal, 3, fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model, completed = complete(masked, max_iters=3, ridge=ridge)
        except FitError:          # a column left constant or empty by the mask
            assume(False)
        fitted = em_fit(masked, max_iters=3, ridge=ridge)
    filled = impute(fitted, masked)
    assert model.ridge == fitted.ridge == ridge
    assert same_bits(model.sigma, fitted.sigma)
    assert model.em_trace == fitted.em_trace
    assert model.converged == fitted.converged
    assert same_bits(completed.values, filled.values)
    assert np.array_equal(completed.mask, filled.mask)


@st.composite
def edge_panels(draw):
    """A small mixed panel, its marginals and a latent correlation.

    The mask holds an all-missing row and a fully observed row.  The
    marginals are fitted on the unmasked panel, whose first two rows differ
    in every column, so every observed level is one the marginals saw.
    """
    rows, q = draw(st.integers(2, 12)), draw(st.integers(2, 5))
    ordinal = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    empty, full = draw(st.permutations(range(rows)))[:2]
    rng = rng_for(draw(st.integers(0, 10_000)), "edge-panel")
    mask = rng.random((rows, q)) < draw(st.floats(0.2, 0.9))
    mask[empty], mask[full] = False, True
    levels = {j: tuple(float(v) for v in range(draw(st.integers(2, 4))))
              for j in range(q) if ordinal[j]}
    values = rng.normal(size=(rows, q))
    for j, lv in levels.items():
        values[:, j] = rng.integers(0, len(lv), size=rows)
        values[:2, j] = (0.0, 1.0)
    kinds = tuple(ORDINAL if o else CONTINUOUS for o in ordinal)
    names = tuple(f"c{j}" for j in range(q))
    index = monthly_index(datetime.date(2013, 1, 1), rows)
    marginals = fit_marginals(ObservationMatrix(
        values=values, mask=np.ones_like(mask), column_kinds=kinds,
        column_names=names, time_index=index, ordinal_levels=levels))
    masked = ObservationMatrix(
        values=np.where(mask, values, np.nan), mask=mask, column_kinds=kinds,
        column_names=names, time_index=index, ordinal_levels=levels)
    sigma = project_correlation(np.corrcoef(rng.normal(size=(q, q + 2))) + np.eye(q))
    return masked, marginals, sigma


def plan_state(value):
    """A plan's fields as comparable values: arrays by dtype, shape and bits."""
    if isinstance(value, _Plan):
        return {k: plan_state(v) for k, v in vars(value).items()}
    if isinstance(value, _Layout):
        return plan_state(value.rows)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [plan_state(v) for v in value]
    return repr(value)


@settings(max_examples=60, deadline=None)
@given(edge_panels())
def test_array_plan_runs_the_scalar_reference_bit_for_bit(case):
    masked, marginals, sigma = case
    plan = _Plan(masked.mask, *_latent_cells(masked, marginals))
    constraints = row_constraints(masked, marginals)
    assert plan_state(plan) == plan_state(
        _Plan(*_constraint_cells(constraints, masked.n_cols)))
    assert same_bits(_estep_sum(sigma, plan, 1e-8),
                     _estep_sum_reference(sigma, constraints, 1e-8))
    assert same_bits(_loglik(sigma, plan, 1e-8),
                     _pseudo_loglik_reference(sigma, constraints, 1e-8))
    model = CopulaModel(sigma=sigma, marginals=marginals)
    assert same_bits(_fill(model, masked, plan).values,
                     _impute_reference(model, masked))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 16), extra=st.integers(0, 6))
def test_one_potrs_against_stacked_right_sides_equals_separate_solves(seed, n, extra):
    """The conditioning solves a pattern once against [I | Sigma_OM^T] and
    slices the precision and the gain from it, which holds because potrs
    solves each right-hand-side column on its own."""
    rng = rng_for(seed, "stacked-potrs")
    a = rng.normal(size=(n, n))
    block = project_correlation(a @ a.T + 0.1 * np.eye(n)) + 1e-8 * np.eye(n)
    c = np.linalg.cholesky(block).T.copy()  # L column by column
    cross = rng.uniform(-1.0, 1.0, size=(extra, n))

    def solved(rows):
        rows = rows.copy()
        assert potrs(c, rows) == 0
        return rows

    both = solved(np.concatenate((np.eye(n), cross)))
    assert same_bits(both[:n], solved(np.eye(n)))
    if extra:
        assert same_bits(both[n:], solved(cross))


# Intervals narrower than 0.01 are left out: there the variance is a
# difference of order-one terms, and rounding alone exceeds 1e-9 of it.
@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-12.0, 12.0), hi=st.floats(-12.0, 12.0))
@example(lo=9.0, hi=10.0)
@example(lo=8.5, hi=math.inf)
def test_truncated_moments_are_mirror_symmetric(lo, hi):
    assume(hi - lo >= 0.01)
    mean, var = truncated_normal_moments(lo, hi)
    mirror_mean, mirror_var = truncated_normal_moments(-hi, -lo)
    assert math.isclose(mean, -mirror_mean, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(var, mirror_var, rel_tol=1e-9)


# A Gaussian copula sees each column only through its ranks and depends on
# neither the row nor the column order.  Each case completes a panel with a
# 20% mask in 20 EM iterations.  Over seeds 0-99, 1011 and 5011 the largest
# roundoff measured was 3.1e-16 (affine fill, relative), 8.7e-15 (sigma
# under a permutation, absolute) and 9.6e-14 (fill under a permutation,
# relative); the bounds below leave ten times that or more.
SIGMA_ATOL = 1e-13
FILL_RTOL = 1e-12
AFFINE_RTOL = 1e-14


def invariance_panels(seed):
    """The default seasonal panel and a 60x6 lognormal copula sample."""
    return (apply_mask(gen_seasonal_load(seed=seed), 0.2, seed + 1)[0],
            mixed_panel(seed, 60, 6, 0, 2, 0.2))


def rebuilt(panel, values, mask, cols=None):
    """panel with new cells; cols lists the old index of each new column."""
    cols = list(range(panel.n_cols)) if cols is None else [int(j) for j in cols]
    return ObservationMatrix(
        values=values, mask=mask, column_kinds=[panel.column_kinds[j] for j in cols],
        column_names=[panel.column_names[j] for j in cols],
        time_index=panel.time_index,
        ordinal_levels={k: panel.ordinal_levels[j] for k, j in enumerate(cols)
                        if j in panel.ordinal_levels})


def completed(panel):
    """(sigma, filled values) of complete at 20 EM iterations."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # 20 iterations may not converge
        model, full = complete(panel, max_iters=20)
    return model.sigma, full.values


def mapped_column(panel, j, fn):
    values = panel.values.copy()
    values[:, j] = fn(values[:, j])
    return rebuilt(panel, values, panel.mask)


def invariance_property(test):
    """Run test at seeds 11, 1011 and 5011 and at two drawn seeds."""
    for seed in (11, 1011, 5011):
        test = example(seed=seed)(test)
    return settings(max_examples=2, deadline=None)(
        given(seed=st.integers(0, 10_000))(test))


@invariance_property
def test_increasing_map_of_a_column_leaves_sigma_bit_identical(seed):
    for panel in invariance_panels(seed):
        j = seed % panel.n_cols
        sigma, _ = completed(panel)
        moved, _ = completed(mapped_column(panel, j, lambda v: np.exp(v / 50) + 3))
        assert same_bits(moved, sigma)


@invariance_property
def test_increasing_affine_map_carries_the_columns_fill(seed):
    for panel in invariance_panels(seed):
        j = seed % panel.n_cols
        missing = ~panel.mask[:, j]
        _, fill = completed(panel)
        _, moved = completed(mapped_column(panel, j, lambda v: 2.5 * v + 7))
        np.testing.assert_allclose(moved[missing, j], 2.5 * fill[missing, j] + 7,
                                   rtol=AFFINE_RTOL, atol=0)


@invariance_property
def test_row_permutation_moves_neither_sigma_nor_fill(seed):
    for panel in invariance_panels(seed):
        rows = rng_for(seed, "row-permutation").permutation(panel.n_rows)
        sigma, fill = completed(panel)
        moved_sigma, moved = completed(
            rebuilt(panel, panel.values[rows], panel.mask[rows]))
        np.testing.assert_allclose(moved_sigma, sigma, rtol=0, atol=SIGMA_ATOL)
        np.testing.assert_allclose(moved, fill[rows], rtol=FILL_RTOL, atol=0)


def assert_column_permutation_invariant(panel, seed):
    cols = rng_for(seed, "column-permutation").permutation(panel.n_cols)
    sigma, fill = completed(panel)
    moved_sigma, moved = completed(
        rebuilt(panel, panel.values[:, cols], panel.mask[:, cols], cols))
    np.testing.assert_allclose(moved_sigma, sigma[np.ix_(cols, cols)],
                               rtol=0, atol=SIGMA_ATOL)
    np.testing.assert_allclose(moved, fill[:, cols], rtol=FILL_RTOL, atol=0)


@invariance_property
def test_column_permutation_moves_neither_sigma_nor_fill(seed):
    for panel in invariance_panels(seed):
        assert_column_permutation_invariant(panel, seed)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the mean-field E-step "
                   "sweeps a row's ordinal cells in column order and stops at "
                   "inner_tol, so its fixed point depends on that order")
def test_column_permutation_of_an_ordinal_panel_moves_neither():
    for seed in (11, 1011, 5011):
        assert_column_permutation_invariant(mixed_panel(seed, 60, 6, 3, 4, 0.2),
                                            seed)
