"""Tests for the comparison statistics: MAPE, Win/Loss, F-rank, Wilcoxon.

REFERENCE_GRID is a fixed 12-period, 6-model MAPE grid whose derived
statistics (win/loss counts, Friedman ranks, exact Wilcoxon p-values) are
known; it doubles as the oracle for the report builders.
"""

import itertools
import json
import math
import os
import re

import numpy as np
import pytest

from copulacast import evaluation
from copulacast.errors import EvaluationError
from copulacast.evaluation import (
    EvaluationReport,
    _average_ranks,
    build_report,
    friedman_rank,
    mape,
    mean_std_mape,
    report_from_grid,
    wilcoxon_signed_rank,
    win_loss,
)
from copulacast.rng import rng_for

REFERENCE_GRID = np.array([
    [6.47, 2.11, 5.37, 7.39, 14.63, 2.08],
    [38.22, 5.78, 2.40, 13.31, 36.09, 2.40],
    [11.18, 11.95, 14.22, 3.42, 9.65, 3.42],
    [7.88, 1.97, 2.21, 5.97, 3.05, 2.10],
    [8.10, 5.09, 0.76, 4.57, 2.08, 0.76],
    [9.80, 0.32, 1.43, 3.32, 5.03, 0.32],
    [24.50, 13.77, 14.27, 10.37, 5.51, 5.54],
    [4.18, 13.93, 9.40, 14.94, 19.16, 4.18],
    [0.33, 9.93, 1.69, 19.66, 8.18, 0.33],
    [2.68, 1.93, 0.87, 10.68, 0.67, 0.67],
    [6.61, 3.53, 1.93, 8.38, 0.01, 0.01],
    [6.09, 5.30, 3.90, 1.66, 3.67, 3.75],
])
REFERENCE_NAMES = ("cnn", "lstm", "tcn", "trmf", "xgb", "mix")
REFERENCE_WIN_LOSS = {"cnn": (12, 0), "lstm": (11, 1), "tcn": (12, 0),
                   "trmf": (11, 1), "xgb": (10, 2)}
REFERENCE_F_RANK = {"cnn": 4.7500, "lstm": 3.6250, "tcn": 3.2500,
                 "trmf": 4.2083, "xgb": 3.5000, "mix": 1.6667}


def enumerate_wilcoxon(diffs):
    """Brute-force exact two-sided p over all sign assignments."""
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    absd = np.abs(np.asarray(diffs, dtype=float))
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    sorted_abs = absd[order]
    pos = 1
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        avg = (pos + (pos + j - i)) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        pos += j - i + 1
        i = j + 1
    w_obs = min(sum(r for d, r in zip(diffs, ranks) if d > 0),
                sum(r for d, r in zip(diffs, ranks) if d < 0))
    # Counting min(W+, W-) <= w already covers both tails, so the count is
    # itself the two-sided tail mass (no further doubling).
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w_minus = sum(r for s, r in zip(signs, ranks) if s < 0)
        w = min(w_minus, sum(ranks) - w_minus)
        if w <= w_obs + 1e-12:
            count += 1
    return min(1.0, count / 2 ** n)


# -------------------------------------------------------------------- mape

def test_mape_oracle():
    assert mape(np.array([100.0, 200.0]), np.array([110.0, 180.0])) == 10.0


def test_mape_scores_each_row_of_a_stack():
    actual = np.array([100.0, 200.0])
    stack = np.array([[110.0, 180.0], [100.0, 200.0], [50.0, 300.0]])
    assert np.array_equal(mape(actual, stack), [10.0, 0.0, 50.0])
    assert mape(actual, stack[None]).shape == (1, 3)
    with pytest.raises(EvaluationError, match="end in an axis of its length"):
        mape(actual, stack.T)


def test_mape_rejects_zero_actual_and_mismatch():
    with pytest.raises(EvaluationError, match="zero"):
        mape(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(EvaluationError):
        mape(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(EvaluationError):
        mape(np.array([]), np.array([]))


def test_mean_std_mape_uses_population_std():
    mean, std = mean_std_mape(np.array([1.0, 2.0, 3.0]))
    assert mean == 2.0
    assert abs(std - math.sqrt(2.0 / 3.0)) < 1e-15
    with pytest.raises(EvaluationError):
        mean_std_mape(np.array([1.0]))


# ---------------------------------------------------------------- win/loss

def test_win_loss_counts_ties_as_wins():
    wins, losses = win_loss(np.array([1.0, 2.0, 3.0]),
                            np.array([1.0, 3.0, 2.0]))
    assert (wins, losses) == (2, 1)
    assert win_loss(np.array([5.0]), np.array([5.0])) == (1, 0)


# ------------------------------------------------------------ average ranks

@pytest.mark.parametrize("values", [
    [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0],
    [7.0, 7.0, 7.0, 7.0],
    [42.0],
    [-2.5, 0.0, -7.0, 3.0, -2.5, -0.0],
    [1, 1, 2],
], ids=["ties", "all_equal", "single", "negative", "integers"])
def test_average_ranks_match_scipy_rankdata(values):
    from scipy.stats import rankdata
    ours = _average_ranks(np.asarray(values))
    ref = rankdata(values, method="average")
    assert ours.dtype == ref.dtype
    assert np.array_equal(ours, ref)


def test_average_ranks_propagate_nan_like_scipy():
    from scipy.stats import rankdata
    ref = rankdata([1.0, np.nan, 2.0], method="average")
    ours = _average_ranks(np.array([1.0, np.nan, 2.0]))
    assert np.isnan(ours).all() and np.isnan(ref).all()


def with_scipy_kernels(monkeypatch, fn, *args):
    """fn(*args) with evaluation's rank and normal-CDF kernels taken from scipy.stats."""
    from scipy.stats import norm, rankdata
    with monkeypatch.context() as m:
        m.setattr(evaluation, "_average_ranks",
                  lambda x: rankdata(x, method="average"))
        m.setattr(evaluation, "ndtr", norm.cdf)
        return fn(*args)


def test_rank_statistics_unchanged_against_scipy_kernels(monkeypatch):
    rng = rng_for(18, "rank-kernels")
    grid = np.round(rng.uniform(0.0, 3.0, size=(30, 6)), 0)   # heavy ties
    ours = friedman_rank(grid)
    assert np.array_equal(ours, with_scipy_kernels(monkeypatch, friedman_rank, grid))
    effective = []
    for n in (8, 25, 40, 60):
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        d = np.abs(a - b)
        assert len(np.unique(d[d != 0])) < np.count_nonzero(d)   # tied |d|
        effective.append(np.count_nonzero(d))
        ours = wilcoxon_signed_rank(a, b)
        ref = with_scipy_kernels(monkeypatch, wilcoxon_signed_rank, a, b)
        assert ours == ref
    # Both the exact (n <= 25) and the normal-approximation branch ran.
    assert min(effective) <= 25 < max(effective)


# ----------------------------------------------------------------- friedman

def test_friedman_rank_simple_and_tied():
    ranks = friedman_rank(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    assert np.allclose(ranks, [1.0, 2.0, 3.0])
    tied = friedman_rank(np.array([[1.0, 1.0, 2.0]]))
    assert np.allclose(tied, [1.5, 1.5, 3.0])


def test_friedman_rank_rejects_bad_grid():
    with pytest.raises(EvaluationError):
        friedman_rank(np.array([[1.0], [2.0]]))
    with pytest.raises(EvaluationError):
        friedman_rank(np.array([[1.0, np.nan]]))


# ----------------------------------------------------------------- wilcoxon

def test_wilcoxon_three_positive_differences():
    res = wilcoxon_signed_rank(np.array([2.0, 3.0, 4.0]),
                               np.array([1.0, 1.0, 1.0]))
    assert res.statistic == 0.0
    assert res.p_value == 0.25
    assert not res.all_zero


def test_wilcoxon_twelve_positive_distinct_differences():
    a = np.arange(1.0, 13.0) * 2.0
    b = np.arange(1.0, 13.0)
    res = wilcoxon_signed_rank(a, b)
    assert res.p_value == 2.0 / 4096.0


def test_wilcoxon_all_zero_differences_flagged():
    a = np.array([1.0, 2.0, 3.0])
    res = wilcoxon_signed_rank(a, a)
    assert res.all_zero
    assert res.p_value == 1.0


def test_wilcoxon_drops_zero_differences():
    # One zero difference reduces n from 4 to 3.
    a = np.array([2.0, 3.0, 4.0, 7.0])
    b = np.array([1.0, 1.0, 1.0, 7.0])
    res = wilcoxon_signed_rank(a, b)
    assert res.p_value == 0.25


def test_wilcoxon_symmetry_in_arguments():
    rng = rng_for(15, "wilcoxon-sym")
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    assert wilcoxon_signed_rank(a, b).p_value == \
        wilcoxon_signed_rank(b, a).p_value


def test_wilcoxon_matches_enumeration_randomized():
    rng = rng_for(16, "wilcoxon-enum")
    for _ in range(30):
        n = int(rng.integers(3, 11))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        if np.all(a - b == 0.0):
            continue
        res = wilcoxon_signed_rank(a, b)
        expected = enumerate_wilcoxon(a - b)
        assert abs(res.p_value - expected) < 1e-12


def test_wilcoxon_normal_approximation_for_large_n():
    rng = rng_for(17, "wilcoxon-large")
    a = rng.normal(size=40) + 0.8
    b = rng.normal(size=40)
    res = wilcoxon_signed_rank(a, b)
    assert 0.0 < res.p_value <= 1.0
    assert res.p_value < 0.05


# ------------------------------------------------------------------ report

def test_report_from_grid_reproduces_table2_statistics():
    rep = report_from_grid(REFERENCE_GRID, REFERENCE_NAMES, "mix")
    assert rep.win_loss == REFERENCE_WIN_LOSS
    for name, expected in REFERENCE_F_RANK.items():
        assert abs(rep.f_rank[name] - expected) < 1e-4
    assert round(rep.mean_mape["mix"], 2) == 2.13
    assert round(rep.std_mape["mix"], 2) == 1.71
    assert round(rep.mean_mape["cnn"], 2) == 10.50
    # Two-sided exact p-values on this grid (zeros dropped where tied).
    assert rep.p_value["cnn"] == 8.0 / 4096.0
    assert rep.p_value["lstm"] == 12.0 / 4096.0
    assert rep.p_value["xgb"] == 40.0 / 4096.0


def test_build_report_matches_grid_route():
    actuals = np.array([100.0, 110.0, 120.0, 130.0])
    forecasts = {
        "alpha": np.array([101.0, 108.0, 123.0, 126.0]),
        "ensemble": np.array([100.5, 110.5, 119.0, 131.0]),
    }
    rep = build_report(actuals, forecasts)
    grid = np.empty((4, 2))
    for j, name in enumerate(("alpha", "ensemble")):
        grid[:, j] = 100.0 * np.abs(forecasts[name] - actuals) / actuals
    twin = report_from_grid(grid, ("alpha", "ensemble"), "ensemble")
    assert np.allclose(rep.per_period_mape, twin.per_period_mape)
    assert rep.win_loss == twin.win_loss
    assert rep.mean_mape == twin.mean_mape


def test_build_report_rejects_zero_actuals_and_missing_ensemble():
    with pytest.raises(EvaluationError):
        build_report(np.array([1.0, 0.0]),
                     {"ensemble": np.array([1.0, 1.0])})
    with pytest.raises(EvaluationError):
        build_report(np.array([1.0, 2.0]), {"alpha": np.array([1.0, 1.0])})
    # The grid route checks its own shape and labels.
    grid = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.5]])
    for bad in (grid[:, :1], grid[:, 0]):
        with pytest.raises(EvaluationError):
            report_from_grid(bad, ("alpha", "ensemble"), "ensemble")
    with pytest.raises(EvaluationError):
        report_from_grid(grid, ("alpha", "ensemble"), "ensemble",
                         period_labels=["2021-01"])


def test_report_json_round_trip(tmp_path):
    rep = report_from_grid(REFERENCE_GRID, REFERENCE_NAMES, "mix")
    path = os.path.join(tmp_path, "report.json")
    rep.save_json(path)
    obj = json.loads(open(path).read())
    assert obj["ensemble_name"] == "mix"
    assert obj["win_loss"]["cnn"] == [12, 0]
    assert abs(obj["f_rank"]["mix"] - 5.0 / 3.0) < 1e-9
    assert len(obj["per_period_mape"]) == 12


def test_report_csv_summary_rows(tmp_path):
    rep = report_from_grid(REFERENCE_GRID, REFERENCE_NAMES, "mix")
    path = os.path.join(tmp_path, "report.csv")
    rep.to_csv(path)
    lines = open(path).read().splitlines()
    assert lines[0].split(",")[0] == "period"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["win_loss"][1] == "12/0"
    assert rows["win_loss"][6] == "-"
    assert rows["f_rank"][1] == "4.7500"
    assert rows["p_value"][6] == "-"
    assert len(lines) == 1 + 12 + 5


@pytest.mark.parametrize("call, message", [
    (lambda: win_loss([1.0, 2.0], [1.0]),
     "per-period inputs must be 1-d of equal length"),
    (lambda: wilcoxon_signed_rank([], []),
     "samples must be 1-d of equal positive length"),
    (lambda: build_report([100.0, 100.0], {"ensemble": [90.0, 95.0], "a": [90.0]}),
     "column 'a' is not aligned with actuals"),
    (lambda: report_from_grid(np.ones((3, 2)), ("a", "b"), "ensemble"),
     "grid lacks the ensemble column 'ensemble'"),
], ids=["win_loss_lengths", "wilcoxon_empty", "report_misaligned_column",
        "grid_without_ensemble"])
def test_evaluation_input_checks_name_the_fault(call, message):
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        call()
