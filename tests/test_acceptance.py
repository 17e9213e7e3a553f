"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every test measures exactly the stated property at the stated tolerance and
prints a single machine-greppable line before asserting.  Criterion 6 pins
compute_lambda(100) within 1e-5 to the documented lambda formula
sqrt(1 / ln R) at R = 100, written out by hand as
1 / sqrt(2 ln 10) = 0.465990601784656, so a drift of the implementation
away from the formula fails against a value it did not compute itself.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from copulacast.cli import main
from copulacast.copula import em_fit, impute
from copulacast.dataset import MarginalSpec, apply_mask, gen_copula_sample
from copulacast.ensemble import compute_lambda, update_weights
from copulacast.evaluation import report_from_grid, wilcoxon_signed_rank
from copulacast.forecasters.gbt import fit_gbt_arrays
from copulacast.forecasters.tcn import (_anticausal_index, _forward,
                                        _init_params, _loss_and_flat_grad,
                                        _unflatten)
from copulacast.forecasters.trmf import fit_trmf
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
EXPECTED_WIN_LOSS = {"cnn": (12, 0), "lstm": (11, 1), "tcn": (12, 0),
                     "trmf": (11, 1), "xgb": (10, 2)}
EXPECTED_F_RANK = (4.7500, 3.6250, 3.2500, 4.2083, 3.5000, 1.6667)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail})")
    return ok


def random_correlation(rng, q):
    a = rng.normal(size=(q, q))
    sigma = a @ a.T + 0.5 * np.eye(q)
    d = np.sqrt(np.diag(sigma))
    return sigma / np.outer(d, d)


def test_criterion_01_derived_statistics_reproduction():
    t0 = time.perf_counter()
    rep = report_from_grid(REFERENCE_GRID, REFERENCE_NAMES, "mix")
    elapsed = time.perf_counter() - t0
    wl_ok = all(rep.win_loss[name] == EXPECTED_WIN_LOSS[name]
                for name in EXPECTED_WIN_LOSS)
    rank_dev = max(abs(rep.f_rank[name] - EXPECTED_F_RANK[j])
                   for j, name in enumerate(REFERENCE_NAMES))
    ok = wl_ok and rank_dev <= 1e-4 and elapsed < 1.0
    report(1, "derived-statistics reproduction", ok,
           f"win/loss {'exact' if wl_ok else 'WRONG'}, f-rank max dev "
           f"{rank_dev:.1e} (tol 1e-4), {elapsed:.3f}s (limit 1s)")
    assert ok


def test_criterion_02_copula_correlation_recovery():
    rng = rng_for(2024, "crit2")
    q = 5
    sigma_true = random_correlation(rng, q)
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0)) for _ in range(q)]
    sample = gen_copula_sample(sigma_true, specs, 2000, seed=77)
    masked, _ = apply_mask(sample, 0.10, seed=78)
    t0 = time.perf_counter()
    model = em_fit(masked, max_iters=50, tol=1e-6)
    elapsed = time.perf_counter() - t0
    rel = (np.linalg.norm(model.sigma - sigma_true, "fro")
           / np.linalg.norm(sigma_true, "fro"))
    ok = rel < 0.15 and elapsed < 30.0
    report(2, "copula correlation recovery", ok,
           f"rel Frobenius {rel:.4f} (tol 0.15), q=5 n=2000 10% masked, "
           f"{elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_03_imputation_beats_column_mean():
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    specs = [MarginalSpec(kind="normal", params=(0.0, 1.0)) for _ in range(2)]
    sample = gen_copula_sample(sigma, specs, 2000, seed=101)
    masked, record = apply_mask(sample, 0.10, seed=102)
    t0 = time.perf_counter()
    model = em_fit(masked, max_iters=50, tol=1e-6)
    completed = impute(model, masked)
    elapsed = time.perf_counter() - t0
    col_mean = [np.nanmean(masked.values[:, c]) for c in range(2)]
    err_copula, err_mean = [], []
    for r, c in record.erased_cells:
        err_copula.append(abs(completed.values[r, c] - sample.values[r, c]))
        err_mean.append(abs(col_mean[c] - sample.values[r, c]))
    ratio = float(np.mean(err_copula)) / float(np.mean(err_mean))
    ok = ratio <= 0.8 and elapsed < 30.0
    report(3, "imputation beats the mean", ok,
           f"copula MAE / mean MAE = {ratio:.3f} (tol 0.8), rho=0.8 n=2000 "
           f"10% masked, {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_04_em_monotonicity():
    kinds = ("normal", "lognormal", "uniform")
    worst = 0.0
    for i in range(20):
        rng = rng_for(4000 + i, "crit4")
        q = int(rng.integers(2, 6))
        n = int(rng.integers(40, 160))
        sigma = random_correlation(rng, q)
        specs = [MarginalSpec(kind=kinds[int(rng.integers(0, 3))],
                              params=(0.0, 1.0)) for _ in range(q)]
        sample = gen_copula_sample(sigma, specs, n, seed=9000 + i)
        masked, _ = apply_mask(sample, float(rng.uniform(0.05, 0.25)),
                               seed=9500 + i)
        with warnings.catch_warnings():
            # tol 1e-12 deliberately runs EM to the iteration cap so the
            # trace is as long as possible; the cap warning is expected.
            warnings.simplefilter("ignore", UserWarning)
            trace = em_fit(masked, max_iters=40, tol=1e-12).em_trace
        logliks = [row[2] for row in trace]
        for prev, cur in zip(logliks, logliks[1:]):
            worst = max(worst, prev - cur)
    ok = worst <= 1e-8
    report(4, "EM monotonicity", ok,
           f"worst pseudo-log-likelihood drop {worst:.3e} over 20 datasets "
           f"(tol 1e-8)")
    assert ok


def test_criterion_05_ensemble_math_oracle():
    uniform = update_weights(np.array([3.0, 3.0, 3.0]), np.full(3, 0.8))
    dev_uniform = float(np.max(np.abs(uniform - 1.0 / 3.0)))
    hand_case = update_weights(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    dev_hand = float(np.max(np.abs(hand_case - np.array([0.73106, 0.26894]))))
    rng = rng_for(2025, "crit5")
    worst_simplex, argmax_ok = 0.0, True
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        ce = rng.uniform(0.0, 50.0, size=k)
        lam = float(rng.uniform(0.2, 2.0))
        w = update_weights(ce, np.full(k, lam))
        worst_simplex = max(worst_simplex,
                            abs(float(w.sum()) - 1.0),
                            max(0.0, -float(w.min())))
        if int(np.argmax(w)) != int(np.argmin(ce)):
            argmax_ok = False
    ok = (dev_uniform <= 1e-5 and dev_hand <= 1e-5
          and worst_simplex <= 1e-12 and argmax_ok)
    report(5, "ensemble math oracle", ok,
           f"uniform dev {dev_uniform:.1e}, hand-case dev {dev_hand:.1e} (tol 1e-5), "
           f"simplex dev {worst_simplex:.1e} (tol 1e-12), argmax=argmin "
           f"{'holds' if argmax_ok else 'VIOLATED'} on 1000 cases")
    assert ok


def test_criterion_06_lambda_formula():
    value = compute_lambda(100)
    # Formula route: the implementation is exactly sqrt(1 / ln R).
    assert abs(value - math.sqrt(1.0 / math.log(100.0))) < 1e-12
    with pytest.raises(ValueError):
        compute_lambda(1)
    # Pinned by hand: ln 100 = 2 ln 10 = 4.605170185988092, its square root
    # is 2.145966026289347, and 1 / 2.145966026289347 = 0.465990601784656.
    pinned = 0.465990601784656
    gap = abs(value - pinned)
    ok = gap <= 1e-5
    report(6, "lambda formula", ok,
           f"compute_lambda(100) = {value:.8f} vs pinned {pinned} "
           f"(1/sqrt(2 ln 10)) +/- 1e-5, gap {gap:.2e}; "
           f"compute_lambda(1) raises")
    assert ok, (
        f"compute_lambda(100) = {value!r} is {gap:.2e} away from "
        f"sqrt(1 / ln 100) = 1 / sqrt(2 ln 10) = {pinned}, pinned by hand; "
        f"the lambda factor no longer follows the documented formula.")


def test_criterion_07_end_to_end_benchmark(tmp_path):
    t0 = time.perf_counter()
    run_dir = os.path.join(tmp_path, "run")
    ablate_dir = os.path.join(tmp_path, "ablate")
    assert main(["run", "--out", run_dir]) == 0
    assert main(["ablate", "--out", ablate_dir]) == 0
    elapsed = time.perf_counter() - t0
    with open(os.path.join(run_dir, "report.json")) as fh:
        rep = json.load(fh)
    singles = {k: v for k, v in rep["mean_mape"].items() if k != "ensemble"}
    ens = rep["mean_mape"]["ensemble"]
    worst, best = max(singles.values()), min(singles.values())
    rows = open(os.path.join(ablate_dir, "ablation.csv")).read().splitlines()
    first_mape = float(rows[1].split(",")[2])
    last_mape = float(rows[-1].split(",")[2])
    ok = (ens <= worst and ens <= 1.25 * best and last_mape <= first_mape
          and elapsed < 300.0)
    report(7, "end-to-end benchmark", ok,
           f"ensemble {ens:.3f} vs worst {worst:.3f} and 1.25*best "
           f"{1.25 * best:.3f}; ablation {first_mape:.3f} -> {last_mape:.3f}; "
           f"{elapsed:.1f}s (limit 300s)")
    assert ok


def enumerate_wilcoxon_p(diffs):
    """Exact two-sided p by brute force over all 2^n sign assignments."""
    diffs = np.asarray([d for d in diffs if d != 0.0], dtype=float)
    n = diffs.size
    if n == 0:
        return 1.0
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and absd[order[j + 1]] == absd[order[i]]:
            j += 1
        avg = (2 * i + j - i) / 2.0 + 1.0
        ranks[order[i:j + 1]] = avg
        i = j + 1
    w_minus_obs = float(ranks[diffs < 0].sum())
    w_obs = min(w_minus_obs, float(ranks.sum()) - w_minus_obs)
    # Sign patterns as a 2^n x n bit matrix; counting assignments with
    # min(W+, W-) <= w_obs already covers both tails, so the count itself
    # is the two-sided tail mass.
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    w_minus = bits @ ranks
    w = np.minimum(w_minus, float(ranks.sum()) - w_minus)
    count = int(np.sum(w <= w_obs + 1e-9))
    return min(1.0, count / 2.0 ** n)


def test_criterion_08_wilcoxon_oracle_equivalence():
    rng = rng_for(2025, "crit8")
    max_dev, cases = 0.0, 0
    for case in range(200):
        n = int(rng.integers(1, 11))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if case % 3 == 0:
            a, b = np.round(a, 1), np.round(b, 1)
        result = wilcoxon_signed_rank(a, b)
        max_dev = max(max_dev, abs(result.p_value - enumerate_wilcoxon_p(a - b)))
        cases += 1
    exact = wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0]),
                                 np.zeros(3)).p_value
    ok = max_dev <= 1e-12 and exact == 0.25
    report(8, "Wilcoxon oracle equivalence", ok,
           f"max |p - enumeration| {max_dev:.1e} over {cases} cases n<=10 "
           f"(tol 1e-12); n=3 all-positive p = {exact}")
    assert ok


def test_criterion_09_forecaster_properties():
    # TCN causality on every supported layer configuration.
    causal_ok = True
    n = 40
    for layer_shapes in (((2, 1),), ((3, 1), (3, 2)),
                         ((3, 1), (3, 2), (3, 4)),
                         ((2, 1), (2, 2), (2, 4))):
        rng = rng_for(31, "crit9-causal")
        x = rng.normal(size=n)
        dilations = [d for _, d in layer_shapes]
        params = _init_params(layer_shapes, seed=3)
        _, base = _forward(params, x, dilations)
        for pos in (0, 7, 23, n - 1):
            bumped = x.copy()
            bumped[pos] += 1.0
            _, preds = _forward(params, bumped, dilations)
            if not np.array_equal(preds[:pos], base[:pos]):
                causal_ok = False

    # TCN analytic gradients against central finite differences.
    rng = rng_for(32, "crit9-fd")
    layer_shapes = ((3, 1), (3, 2))
    dilations = [d for _, d in layer_shapes]
    params = _init_params(layer_shapes, seed=5)
    x = rng.normal(size=30)
    index = _anticausal_index(x.size, layer_shapes)
    # Every tap, bias and head parameter, laid out as _unflatten reads them.
    theta = np.concatenate(params["kernels"] + [
        params["biases"], [params["head_w"], params["head_b"]]])

    def loss_and_grad(t):
        return _loss_and_flat_grad(_unflatten(t, layer_shapes), x, dilations,
                                   index)

    _, grad = loss_and_grad(theta)
    eps = 1e-6
    grad_dev = 0.0
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        est = (loss_and_grad(up)[0] - loss_and_grad(down)[0]) / (2 * eps)
        grad_dev = max(grad_dev, abs(est - grad[j]) / max(1.0, abs(est)))

    # GBT training loss monotone per round.
    rng = rng_for(33, "crit9-gbt")
    xg = rng.normal(size=(80, 4))
    yg = xg[:, 0] * 2.0 + np.sin(xg[:, 1]) + 0.1 * rng.normal(size=80)
    losses = fit_gbt_arrays(xg, yg, n_rounds=40, max_depth=3,
                            learn_rate=0.3).train_losses
    gbt_ok = all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))

    # TRMF noiseless recovery and monotone objective.
    rng = rng_for(34, "crit9-trmf")
    x1 = np.outer(rng.uniform(1.0, 2.0, size=6), rng.uniform(1.0, 2.0, size=40))
    m1 = fit_trmf(x1, k=1, lags=(1,), lambda_reg=1e-9, kappa_reg=0.0,
                  sweeps=60, seed=0)
    rel1 = (np.linalg.norm(m1.loadings @ m1.factors - x1)
            / np.linalg.norm(x1))
    x2 = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 40))
    m2 = fit_trmf(x2, k=2, lags=(1,), lambda_reg=1e-9, kappa_reg=0.0,
                  sweeps=80, seed=0)
    rel2 = (np.linalg.norm(m2.loadings @ m2.factors - x2)
            / np.linalg.norm(x2))
    x3 = rng.normal(size=(8, 50)) + 5.0
    obj = fit_trmf(x3, k=3, lags=(1, 12), lambda_reg=0.1, kappa_reg=0.1,
                   sweeps=30, seed=2).objective_trace
    trmf_mono = all(b <= a + 1e-8 for a, b in zip(obj, obj[1:]))

    ok = (causal_ok and grad_dev <= 1e-4 and gbt_ok
          and rel1 < 1e-6 and rel2 < 1e-6 and trmf_mono)
    report(9, "forecaster properties", ok,
           f"causality {'holds' if causal_ok else 'VIOLATED'} on 4 configs; "
           f"TCN grad rel dev {grad_dev:.1e} (tol 1e-4); GBT loss "
           f"{'monotone' if gbt_ok else 'NOT monotone'}; TRMF rel "
           f"{rel1:.1e}/{rel2:.1e} (tol 1e-6), objective "
           f"{'monotone' if trmf_mono else 'NOT monotone'}")
    assert ok


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_10_determinism(tmp_path):
    first_dir = os.path.join(tmp_path, "first")
    second_dir = os.path.join(tmp_path, "second")
    assert main(["run", "--out", first_dir]) == 0
    first = read_tree(first_dir)
    assert main(["run", "--out", first_dir]) == 0
    rerun_ok = read_tree(first_dir) == first
    assert main(["run", "--out", second_dir]) == 0
    # Only config.json may differ: it records the output directory.
    fresh_ok = ({k: v for k, v in first.items() if k != "config.json"}
                == {k: v for k, v in read_tree(second_dir).items()
                    if k != "config.json"})
    ok = rerun_ok and fresh_ok
    report(10, "determinism", ok,
           f"rerun into the same directory byte-identical {rerun_ok}; "
           f"run into a fresh directory byte-identical {fresh_ok} "
           f"({len(first)} files compared)")
    assert ok
