"""Forecast-accuracy statistics: MAPE summaries, win/loss counts, Friedman
average ranks, and the exact Wilcoxon signed-rank test.

The report mirrors a monthly comparison table: a periods x models grid of
absolute percentage errors, per-model mean and population std, per-baseline
win/loss counts and Wilcoxon p-values against the ensemble column, and
Friedman average ranks over all columns.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .dataset import write_json
from .errors import EvaluationError


def _ape(actual, predicted, labels=None):
    """Per-period absolute percentage errors, as fractions; mape's checks.
    predicted is (..., n) for n actuals, made C-contiguous so each row
    rounds as a 1-d call would.  A zero actual is named by its label, or by
    its index without labels."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.ascontiguousarray(predicted, dtype=float)
    if actual.ndim != 1 or predicted.shape[-1:] != actual.shape:
        raise EvaluationError("actual must be 1-d and predicted must end "
                              "in an axis of its length")
    if actual.size < 1:
        raise EvaluationError("need at least one period")
    zeros = np.flatnonzero(actual == 0)
    if zeros.size:
        i = int(zeros[0])
        where = f"at index {i}" if labels is None else f"for period {labels[i]}"
        raise EvaluationError(f"actual value {where} is zero; MAPE is undefined")
    return np.abs((actual - predicted) / actual)


def mape(actual, predicted):
    """Mean absolute percentage error, in percent.

    Args:
        actual: true values, none of them zero.
        predicted: forecasts of equal length, or a stack of them (..., n);
            each row is scored as a 1-d call would score it, bit for bit.

    Returns:
        A float, or an array of predicted's leading shape for a stack.

    Raises:
        EvaluationError: length mismatch, empty input, or a zero actual
            (named by index; zeros are never silently excluded).
    """
    errors = np.mean(_ape(actual, predicted), axis=-1) * 100.0
    return float(errors) if errors.ndim == 0 else errors


def mean_std_mape(per_period):
    """Mean and population standard deviation of per-period percentages."""
    values = np.asarray(per_period, dtype=float)
    if values.size < 2:
        raise EvaluationError("need at least 2 periods for a mean/std summary")
    return float(values.mean()), float(values.std())


def win_loss(ensemble_mape, baseline_mape):
    """Periods the ensemble matches-or-beats vs loses to a baseline.

    Ties count as ensemble wins.
    """
    a = np.asarray(ensemble_mape, dtype=float)
    b = np.asarray(baseline_mape, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError("per-period inputs must be 1-d of equal length")
    wins = int(np.sum(a <= b))
    return wins, int(a.size - wins)


def _average_ranks(x):
    """Ranks 1..n of a 1-d array, ties sharing the mean of their ranks.

    Matches scipy.stats.rankdata(x, method="average"): float64 ranks, exact
    because each tie group's mean rank is a half-integer; any NaN makes every
    rank NaN.
    """
    x = np.asarray(x)
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    return ranks


def friedman_rank(mape_grid):
    """Per-model average rank of per-period errors (rank 1 = most accurate).

    Ties within a period receive the average of the tied ranks.

    Args:
        mape_grid: periods x models array of finite percentages.
    """
    grid = np.asarray(mape_grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 2:
        raise EvaluationError("grid must be periods x models with >= 2 models")
    if np.any(~np.isfinite(grid)):
        raise EvaluationError("grid contains non-finite values")
    ranks = np.vstack([_average_ranks(row) for row in grid])
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    all_zero: bool = False


def _exact_tail(doubled_ranks, w_doubled):
    """P(W+ <= w) with W+ accumulated over doubled (integer) ranks.

    Dynamic program over the distribution of the doubled positive-rank sum
    across all 2^n sign assignments: each rank r shifts the counts by r and
    adds them.  The int64 counts stay exact (at most 2^25 for n <= 25).
    """
    total = sum(doubled_ranks)
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        counts[r:] += counts[:-r].copy()
    favored = int(counts[:min(w_doubled, total) + 1].sum())
    return favored / float(2 ** len(doubled_ranks))


def wilcoxon_signed_rank(a, b):
    """Two-sided Wilcoxon signed-rank test of paired samples.

    Zero differences are dropped; absolute differences are ranked with
    average ties; W = min(W+, W-).  For n <= 25 effective pairs the p-value
    is exact (equivalent to enumerating all 2^n sign assignments); above
    that a normal approximation with tie correction and continuity
    correction is used.

    Returns:
        WilcoxonResult(statistic, p_value, all_zero).  All-zero differences
        set the flag and report p = 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise EvaluationError("samples must be 1-d of equal positive length")
    d = a - b
    d = d[d != 0]
    if d.size == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, all_zero=True)
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    n = d.size
    if n <= 25:
        doubled = [int(round(2 * r)) for r in ranks]
        w_doubled = int(round(2 * w))
        p = min(1.0, 2.0 * _exact_tail(doubled, w_doubled))
        return WilcoxonResult(statistic=w, p_value=p)
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * float(ndtr(z)))
    return WilcoxonResult(statistic=w, p_value=p)


@dataclass
class EvaluationReport:
    """Full comparison table of the bank plus the ensemble column.

    per_period_mape columns follow model_names; win_loss and p_value cover
    every non-ensemble column.
    """

    model_names: tuple
    ensemble_name: str
    period_labels: tuple
    per_period_mape: np.ndarray
    mean_mape: dict
    std_mape: dict
    win_loss: dict
    f_rank: dict
    p_value: dict
    wilcoxon_all_zero: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "model_names": list(self.model_names),
            "ensemble_name": self.ensemble_name,
            "period_labels": list(self.period_labels),
            "per_period_mape": [[float(v) for v in row]
                                for row in self.per_period_mape],
            "mean_mape": {k: float(v) for k, v in self.mean_mape.items()},
            "std_mape": {k: float(v) for k, v in self.std_mape.items()},
            "win_loss": {k: [int(w), int(l)]
                         for k, (w, l) in self.win_loss.items()},
            "f_rank": {k: float(v) for k, v in self.f_rank.items()},
            "p_value": {k: float(v) for k, v in self.p_value.items()},
            "wilcoxon_all_zero": {k: bool(v)
                                  for k, v in self.wilcoxon_all_zero.items()},
        }

    def save_json(self, path):
        write_json(self.to_json(), path)

    def to_csv(self, path):
        """Write the table: one row per period, summary rows appended."""
        names = self.model_names
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["period"] + list(names))
            for i, label in enumerate(self.period_labels):
                writer.writerow([label] + [f"{v:.4f}"
                                           for v in self.per_period_mape[i]])
            writer.writerow(["mean_mape"] + [f"{self.mean_mape[n]:.4f}"
                                             for n in names])
            writer.writerow(["std_mape"] + [f"{self.std_mape[n]:.4f}"
                                            for n in names])
            writer.writerow(["win_loss"]
                            + [("-" if n == self.ensemble_name else
                                "{}/{}".format(*self.win_loss[n])) for n in names])
            writer.writerow(["f_rank"] + [f"{self.f_rank[n]:.4f}" for n in names])
            writer.writerow(["p_value"]
                            + [("-" if n == self.ensemble_name else
                                f"{self.p_value[n]:.6f}") for n in names])


def build_report(actuals, forecasts, ensemble_name="ensemble",
                 period_labels=None):
    """Assemble the full statistics table from aligned forecast series.

    Args:
        actuals: true values per period, none zero.
        forecasts: mapping model name -> per-period forecast series; must
            include ensemble_name.
        ensemble_name: column every baseline is compared against.
        period_labels: optional row labels, which also name a zero actual;
            defaults to p01, p02, ...

    Returns:
        EvaluationReport.
    """
    actuals = np.asarray(actuals, dtype=float)
    if ensemble_name not in forecasts:
        raise EvaluationError(f"forecasts must include the ensemble column "
                              f"{ensemble_name!r}")
    names = tuple(forecasts)
    n = actuals.size
    for name, series in forecasts.items():
        if np.asarray(series).size != n:
            raise EvaluationError(f"column {name!r} is not aligned with actuals")
    if period_labels is not None:
        period_labels = _period_labels(period_labels, n)

    grid = np.empty((n, len(names)))
    for j, name in enumerate(names):
        grid[:, j] = _ape(actuals, forecasts[name], period_labels) * 100.0

    return report_from_grid(grid, names, ensemble_name, period_labels)


def _period_labels(period_labels, n):
    """The labels as strings, checked to number n; p01, p02, ... for None."""
    if period_labels is None:
        return tuple(f"p{i + 1:02d}" for i in range(n))
    period_labels = tuple(str(p) for p in period_labels)
    if len(period_labels) != n:
        raise EvaluationError(f"{len(period_labels)} period labels for {n} periods")
    return period_labels


def report_from_grid(grid, model_names, ensemble_name, period_labels=None):
    """Assemble the statistics table directly from a per-period MAPE grid.

    The grid holds one row per period and one column per model name;
    period_labels, one per period, default to p01, p02, ...
    """
    grid = np.asarray(grid, dtype=float)
    names = tuple(model_names)
    if grid.ndim != 2 or grid.shape[1] != len(names):
        raise EvaluationError(f"grid of shape {grid.shape} does not hold one "
                              f"column per model name ({len(names)})")
    if ensemble_name not in names:
        raise EvaluationError(f"grid lacks the ensemble column {ensemble_name!r}")
    n = grid.shape[0]
    period_labels = _period_labels(period_labels, n)
    ens_idx = names.index(ensemble_name)
    ens_col = grid[:, ens_idx]

    mean_col, std_col, wl, fr, pv, flags = {}, {}, {}, {}, {}, {}
    rank_values = friedman_rank(grid) if len(names) >= 2 else np.ones(1)
    for j, name in enumerate(names):
        mean_col[name], std_col[name] = mean_std_mape(grid[:, j])
        fr[name] = float(rank_values[j])
        if name == ensemble_name:
            continue
        wl[name] = win_loss(ens_col, grid[:, j])
        result = wilcoxon_signed_rank(grid[:, j], ens_col)
        pv[name] = result.p_value
        flags[name] = result.all_zero
    return EvaluationReport(model_names=names, ensemble_name=ensemble_name,
                            period_labels=period_labels,
                            per_period_mape=grid, mean_mape=mean_col,
                            std_mape=std_col, win_loss=wl, f_rank=fr,
                            p_value=pv, wilcoxon_all_zero=flags)
