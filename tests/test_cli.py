"""End-to-end tests of the argparse CLI and its artifacts."""

import csv
import datetime
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import copulacast
from copulacast import copula
from copulacast.cli import DEFAULT_CONFIG, _fit_roster, _mean, main, resolve_config
from copulacast.dataset import (CONTINUOUS, MarginalSpec, Schema,
                                gen_copula_sample, gen_seasonal_load, load_csv,
                                monthly_index, save_csv)
from copulacast.errors import ConfigError, DataError, FitError
from copulacast.forecasters import FORECASTERS
from copulacast.rng import rng_for


def read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def write_config(tmp_path, obj, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# ------------------------------------------------------------------ config

def test_resolve_config_defaults_and_overrides(tmp_path):
    config = resolve_config(None)
    assert config["seed"] == DEFAULT_CONFIG["seed"]
    # Taken from complete's and gen_seasonal_load's keyword defaults.
    assert config["copula"] == {"max_iters": 100, "tol": 1e-4, "ridge": 1e-8}
    assert config["data"]["synthetic"] == {
        "n_periods": 108, "base": 100.0, "trend": 0.5, "seasonal_amp": 20.0,
        "noise_sd": 2.0, "n_features": 12}
    path = write_config(tmp_path, {"seed": 3, "mask": {"fraction": 0.2}})
    config = resolve_config(path, out="elsewhere")
    assert config["seed"] == 3
    assert config["mask"]["fraction"] == 0.2
    assert config["out"] == "elsewhere"
    # Untouched defaults survive the merge.
    assert config["task"]["horizon"] == 12
    roster = [{"name": "gbt", "lags": [1, 12]},
              {"name": "tcn", "layer_shapes": [[2, 1], [2, 2]]}]
    path = write_config(tmp_path, {"roster": roster}, name="roster.json")
    assert resolve_config(path)["roster"] == roster


def csv_source(path):
    columns = {"load": CONTINUOUS,
               **{f"feat_{j:02d}": CONTINUOUS for j in range(1, 13)}}
    return {"csv": {"path": path, "columns": columns}}


def test_resolve_config_csv_source_displaces_synthetic(tmp_path):
    path = write_config(tmp_path, {"data": csv_source("x.csv")})
    config = resolve_config(path)
    assert "synthetic" not in config["data"]
    assert config["data"]["csv"]["path"] == "x.csv"


def test_resolve_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(write_config(tmp_path, {"mask": {"fraction": 1.5}}))
    with pytest.raises(ConfigError):
        resolve_config(write_config(tmp_path, {"roster": [{"name": "prophet"}]},
                                    name="b.json"))
    with pytest.raises(ConfigError):
        resolve_config(os.path.join(tmp_path, "missing.json"))
    with pytest.raises(ConfigError):
        resolve_config(write_config(tmp_path, {"roster": [{"name": ["gbt"]}]},
                                    name="c.json"))


@pytest.mark.parametrize("override", [
    {"mask": 0.2},
    {"copula": 3},
    {"roster": ["gbt"]},
    {"task": []},
    {"data": {"synthetic": 5}},
    {"data": {"csv": "panel.csv"}},
    {"data": 5},
], ids=["mask", "copula", "roster_entry", "task", "data_synthetic",
        "data_csv", "data"])
def test_config_section_of_wrong_type_reports_config_error(tmp_path, capsys,
                                                           override):
    cfg = write_config(tmp_path, override)
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: ") and "must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, override", [
    ("seed", {"seed": "abc"}),
    # jobs is a retired setting: whatever its value, it fails as an unknown key.
    ("jobs", {"jobs": None}),
    ("jobs", {"jobs": True}),
    ("jobs", {"jobs": 0}),
    ("jobs", {"jobs": -2}),
    ("mask.fraction", {"mask": {"fraction": None}}),
    ("copula.max_iters", {"copula": {"max_iters": "x"}}),
    ("copula.max_iters", {"copula": {"max_iters": 2.7}}),
    ("copula.tol", {"copula": {"tol": None}}),
    ("copula.ridge", {"copula": {"ridge": [1e-8]}}),
    ("task.horizon", {"task": {"horizon": None}}),
    ("task.validation_periods", {"task": {"validation_periods": "twelve"}}),
    ("task.features", {"task": {"features": 5}}),
    ("task.features", {"task": {"features": "none"}}),
    ("task.features", {"task": {"features": ["feat_01", 2]}}),
    ("data.csv.path", {"data": {"csv": {"columns": {"load": CONTINUOUS}}}}),
    ("data.csv.path", {"data": {"csv": {"path": 3, "columns": {}}}}),
    ("data.csv.columns", {"data": {"csv": {"path": "x.csv"}}}),
    ("data.csv.columns", {"data": {"csv": {"path": "x.csv", "columns": []}}}),
    ("data.csv.ordinal_levels", {"data": {"csv": {
        "path": "x.csv", "columns": {}, "ordinal_levels": [1, 2]}}}),
    ("roster.tcn.epochs", {"roster": [{"name": "tcn", "epochs": "x"}]}),
    ("roster.tcn.epochs", {"roster": [{"name": "tcn", "epochs": True}]}),
    ("roster.gbt.learn_rate", {"roster": [{"name": "gbt", "learn_rate": None}]}),
    ("roster.ridge_ar.use_features", {"roster": [
        {"name": "ridge_ar", "use_features": 1}]}),
    ("data.synthetic.foo", {"data": {"synthetic": {"foo": 1}}}),
    ("data.synthetic.seed", {"data": {"synthetic": {"seed": 3}}}),
    ("data.synthetic.n_periods", {"data": {"synthetic": {"n_periods": 108.5}}}),
    ("data.synthetic.noise_sd", {"data": {"synthetic": {"noise_sd": "2"}}}),
    ("roster.gbt.lags", {"roster": [{"name": "ridge_ar"}, {"name": "gbt", "lags": 3}]}),
    ("roster.gbt.lags", {"roster": [{"name": "gbt", "lags": "x"}]}),
    ("roster.ridge_ar.lags", {"roster": [{"name": "ridge_ar", "lags": []}]}),
    ("roster.trmf.lags", {"roster": [{"name": "trmf", "lags": [1, 0]}]}),
    ("roster.trmf.lags", {"roster": [{"name": "trmf", "lags": [1, True]}]}),
    ("roster.ridge_ar.lags", {"roster": [{"name": "ridge_ar", "lags": [1.5]}]}),
    ("roster.tcn.layer_shapes", {"roster": [{"name": "tcn", "layer_shapes": [3, 1]}]}),
    ("roster.tcn.layer_shapes", {"roster": [{"name": "tcn", "layer_shapes": []}]}),
    ("roster.tcn.layer_shapes", {"roster": [
        {"name": "tcn", "layer_shapes": [[3, 1, 2]]}]}),
    ("roster.tcn.layer_shapes", {"roster": [
        {"name": "tcn", "layer_shapes": [[3, 1], [3, 0]]}]}),
    ("sede", {"sede": 3}),
    ("mask.fractoin", {"mask": {"fractoin": 0.5}}),
    ("copula.max_iter", {"copula": {"max_iter": 2}}),
    ("task.horizn", {"task": {"horizn": 6}}),
    ("data.sythetic", {"data": {"sythetic": {}}}),
    ("data.csv.pth", {"data": {"csv": {"path": "x.csv", "columns": {},
                                       "pth": "y.csv"}}}),
    ("mask.fractoin", {"copula": {"max_iter": 2}, "mask": {"fractoin": 0.5},
                       "sede": 3}),
    ("data", {"data": {"csv": {"path": "x.csv", "columns": {}},
                       "synthetic": {"n_periods": 48}}}),
    ("seed", {"seed": "5"}),
    ("mask.fraction", {"mask": {"fraction": "0.3"}}),
    ("copula.max_iters", {"copula": {"max_iters": 3.0}}),
    ("task.target", {"task": {"target": 3}}),
    # json.load reads NaN and Infinity; a number setting must be finite.
    ("copula.tol", {"copula": {"tol": float("nan")}}),
    ("copula.ridge", {"copula": {"ridge": float("inf")}}),
    ("data.synthetic.noise_sd", {"data": {"synthetic": {"noise_sd": float("nan")}}}),
    ("roster.gbt.learn_rate", {"roster": [{"name": "gbt", "learn_rate": float("-inf")}]}),
    # A model's name labels its forecasts.csv column and its report entry.
    ("roster names", {"roster": [{"name": "naive_seasonal"}, {"name": "ridge_ar"},
                                 {"name": "gbt", "n_rounds": 3},
                                 {"name": "gbt", "n_rounds": 30}]}),
], ids=["seed", "jobs_null", "jobs_bool", "jobs_zero", "jobs_negative",
        "mask_fraction", "copula_max_iters", "copula_max_iters_fraction",
        "copula_tol", "copula_ridge", "task_horizon", "task_validation",
        "task_features_int", "task_features_string", "task_features_mixed",
        "data_csv_no_path", "data_csv_path_int", "data_csv_no_columns",
        "data_csv_columns_list", "data_csv_ordinal_levels_list",
        "roster_epochs_string", "roster_epochs_bool", "roster_learn_rate_null",
        "roster_use_features_int", "synthetic_unknown_key", "synthetic_seed",
        "synthetic_n_periods_fraction", "synthetic_noise_sd_string",
        "roster_lags_int", "roster_lags_string", "roster_lags_empty",
        "roster_lags_zero", "roster_lags_bool", "roster_lags_float",
        "roster_layer_shapes_flat", "roster_layer_shapes_empty",
        "roster_layer_shapes_triple", "roster_layer_shapes_zero",
        "unknown_top", "unknown_mask", "unknown_copula", "unknown_task",
        "unknown_data", "unknown_data_csv", "first_of_three_unknown",
        "data_csv_and_synthetic",
        "seed_numeric_string", "mask_fraction_numeric_string",
        "copula_max_iters_integral_float", "task_target_int",
        "copula_tol_nan", "copula_ridge_inf", "synthetic_noise_sd_nan",
        "roster_learn_rate_neg_inf", "roster_duplicate_name"])
def test_config_scalar_of_wrong_type_reports_config_error(tmp_path, capsys,
                                                          key, override):
    cfg = write_config(tmp_path, override)
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {key} must be ")
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_config_out_of_wrong_type_reports_config_error(tmp_path, capsys,
                                                      monkeypatch):
    cfg = write_config(tmp_path, {"out": 5})
    monkeypatch.chdir(tmp_path)
    assert main(["impute", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: out must be a string, got 5")
    assert os.listdir(tmp_path) == ["config.json"]


def test_cli_seed_reaches_exactly_the_fitters_that_take_one(tmp_path,
                                                            monkeypatch):
    calls = []

    def seeded(task, matrix, seed=0):
        calls.append(("seeded", seed))

    def unseeded(task, matrix, period=12):
        calls.append(("unseeded", period))

    monkeypatch.setitem(FORECASTERS, "seeded", seeded)
    monkeypatch.setitem(FORECASTERS, "reseeded", seeded)
    monkeypatch.setitem(FORECASTERS, "unseeded", unseeded)
    cfg = write_config(tmp_path, {"roster": [
        {"name": "seeded"}, {"name": "reseeded", "seed": 3}, {"name": "unseeded"}]})
    _fit_roster(resolve_config(cfg, seed=7), None, None)
    assert calls == [("seeded", 7), ("seeded", 3), ("unseeded", 12)]


@pytest.mark.parametrize("entry, key", [
    ({"name": "gbt", "foo": 1}, "foo"),
    ({"name": "naive_seasonal", "lags": [1, 2]}, "lags"),
    ({"name": "tcn", "task": 1}, "task"),
], ids=["gbt_foo", "naive_seasonal_lags", "tcn_task"])
def test_roster_unknown_hyperparameter_reports_config_error(tmp_path, capsys,
                                                            entry, key):
    cfg = write_config(tmp_path, {"roster": [{"name": "ridge_ar"}, entry]})
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: roster entry {entry['name']!r} "
                          f"has unknown key {key!r}")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("levels", [3, None, [1, [2], 3], "123", [True, 2, 3],
                                    [1, float("nan"), 3], [1, 10 ** 400]],
                         ids=["int", "null", "nested", "string", "bool", "nan",
                              "huge"])
def test_csv_ordinal_levels_are_checked_before_any_output(tmp_path, capsys,
                                                          levels):
    source = {"path": os.path.join(tmp_path, "panel.csv"),
              "columns": {"load": CONTINUOUS, "g": "ordinal"},
              "ordinal_levels": {"g": levels}}
    with pytest.raises(DataError, match="levels must be a list of at least "
                       "two finite numbers"):
        Schema(columns=source["columns"], ordinal_levels=source["ordinal_levels"])
    cfg = write_config(tmp_path, {"data": {"csv": source}})
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[config]: data.csv: column 'g': levels must "
                          "be a list of at least two finite numbers, got ")
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_csv_ordinal_inf_without_levels_reports_data_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "panel.csv")
    with open(path, "w") as fh:
        fh.write("time,load,g\n2021-01-01,1.0,1\n2021-02-01,2.0,inf\n"
                 "2021-03-01,3.0,2\n2021-04-01,4.0,1\n")
    cfg = write_config(tmp_path, {"data": {"csv": {
        "path": path, "columns": {"load": CONTINUOUS, "g": "ordinal"}}}})
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error[data]: {path}: row 3, column 'g': 'inf' is not a finite number\n")
    assert os.listdir(out) == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second of import time and a third of
    # the peak memory; the package uses only scipy.linalg and scipy.special.
    src = os.path.dirname(os.path.dirname(copulacast.__file__))
    code = ("import sys, copulacast.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------------- synth

def test_synth_writes_masked_panel_and_truth(tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("synth:")
    schema = Schema(columns={"load": CONTINUOUS,
                             **{f"feat_{j:02d}": CONTINUOUS
                                for j in range(1, 13)}})
    masked = load_csv(os.path.join(out, "data.csv"), schema)
    truth = load_csv(os.path.join(out, "truth.csv"), schema)
    assert masked.values.shape == (108, 13)
    assert truth.mask.all()
    # Default mask erases 10% of 1404 cells, rounded half up.
    assert int((~masked.mask).sum()) == 140
    record = read_json(out, "mask.json")
    assert len(record["erased_cells"]) == 140


def test_main_parses_with_the_parser_built_at_import(tmp_path, monkeypatch):
    # main reuses one parser; build_parser stays for callers that want one.
    from copulacast import cli

    def fail():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", fail)
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--out", out]) == 0
    assert main(["synth", "--seed", "5", "--out", out + "5"]) == 0
    assert os.path.isfile(os.path.join(out + "5", "data.csv"))


def test_synth_requires_a_synthetic_source(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": csv_source("input.csv")})
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[config]: synth requires a synthetic data source\n")
    assert os.listdir(out) == []


def test_synth_honors_config_geometry(tmp_path):
    cfg = write_config(tmp_path, {
        "data": {"synthetic": {"n_periods": 36, "n_features": 3}},
        "mask": {"fraction": 0.0},
    })
    out = os.path.join(tmp_path, "out")
    assert main(["synth", "--config", cfg, "--out", out]) == 0
    schema = Schema(columns={"load": CONTINUOUS, "feat_01": CONTINUOUS,
                             "feat_02": CONTINUOUS, "feat_03": CONTINUOUS})
    panel = load_csv(os.path.join(out, "data.csv"), schema)
    assert panel.values.shape == (36, 4)
    assert panel.mask.all()
    assert not os.path.exists(os.path.join(out, "mask.json"))


# ------------------------------------------------------------------ impute

def test_impute_completes_panel_and_reports_recovery(tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--out", out]) == 0
    lines = capsys.readouterr().out
    assert "copula MAE" in lines
    schema = Schema(columns={"load": CONTINUOUS,
                             **{f"feat_{j:02d}": CONTINUOUS
                                for j in range(1, 13)}})
    completed = load_csv(os.path.join(out, "completed.csv"), schema)
    assert completed.mask.all()
    recovery = read_json(out, "recovery.json")
    assert recovery["cells"] == 140
    assert recovery["copula_mae"] < recovery["mean_imputation_mae"]
    assert os.path.exists(os.path.join(out, "copula_model.json"))
    # Both MAEs equal the per-cell loop over the erased cells.
    truth = gen_seasonal_load(seed=DEFAULT_CONFIG["seed"],
                              **DEFAULT_CONFIG["data"]["synthetic"]).values
    masked = load_csv(os.path.join(out, "data.csv"), schema)
    means = [masked.values[masked.mask[:, j], j].mean() for j in range(13)]
    cells = read_json(out, "mask.json")["erased_cells"]
    assert recovery["copula_mae"] == float(np.mean(
        [abs(completed.values[r, c] - truth[r, c]) for r, c in cells]))
    assert recovery["mean_imputation_mae"] == float(np.mean(
        [abs(means[c] - truth[r, c]) for r, c in cells]))


def test_impute_csv_round_trip(tmp_path):
    # First synthesize a masked panel, then impute it from the CSV source.
    synth_out = os.path.join(tmp_path, "synth")
    assert main(["synth", "--out", synth_out]) == 0
    cfg = write_config(tmp_path, {
        "data": csv_source(os.path.join(synth_out, "data.csv")),
        "mask": {"fraction": 0.0},
    })
    out = os.path.join(tmp_path, "imp")
    assert main(["impute", "--config", cfg, "--out", out]) == 0
    schema = Schema(columns={"load": CONTINUOUS,
                             **{f"feat_{j:02d}": CONTINUOUS
                                for j in range(1, 13)}})
    completed = load_csv(os.path.join(out, "completed.csv"), schema)
    assert completed.mask.all()


def test_a_warning_is_one_stderr_line(tmp_path):
    cfg = write_config(tmp_path, {"copula": {"max_iters": 1}})
    # In process: the warning still reaches a recorder, and Python's
    # formatter is back once the command returns.
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["impute", "--config", cfg,
                     "--out", os.path.join(tmp_path, "in")]) == 0
    assert warnings.formatwarning is formatwarning
    assert [type(w.message) for w in caught] == [UserWarning]
    # A fresh interpreter prints it as the console script would.
    src = os.path.dirname(os.path.dirname(copulacast.__file__))
    done = subprocess.run([sys.executable, "-m", "copulacast.cli", "impute",
                           "--config", cfg, "--out", os.path.join(tmp_path, "sub")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert re.fullmatch(r"warning: copula EM did not converge within 1 "
                        r"iterations [^\n]*\n", done.stderr), done.stderr


def test_recovery_mean_is_finite_near_the_float_limit():
    x = 1.7e308 - 1e306 * np.arange(20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mean(x)
    assert got == 1.7e308 * np.mean(x / 1.7e308) and 1.5e308 < got < 1.7e308
    # A sum that stays finite keeps the plain mean's bits.
    y = rng_for(3, "recovery-mean").normal(size=50) * 1e300
    assert _mean(y) == y.mean()


def test_impute_near_the_float_limit_reports_finite_recovery(tmp_path):
    panel = os.path.join(tmp_path, "panel.csv")
    with open(panel, "w") as fh:
        fh.write("time,a,b\n" + "".join(
            f"{2020 + i // 12}-{i % 12 + 1:02d}-01,{1.7e308 - i * 1e306!r},{i % 7 + 1}\n"
            for i in range(20)))
    cfg = write_config(tmp_path, {"data": {"csv": {"path": panel, "columns": AB}},
                                  "mask": {"fraction": 0.2}})
    out = os.path.join(tmp_path, "out")
    src = os.path.dirname(os.path.dirname(copulacast.__file__))
    done = subprocess.run([sys.executable, "-m", "copulacast.cli", "impute", "--seed",
                           "11", "--config", cfg, "--out", out],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    with open(os.path.join(out, "recovery.json")) as fh:
        recovery = json.load(fh, parse_constant=lambda name: pytest.fail(name))
    assert recovery["cells"] == 8
    assert 0 < recovery["copula_mae"] < 1.7e308
    assert 0 < recovery["mean_imputation_mae"] < 1.7e308
    line = done.stdout.splitlines()[0]
    assert len(line) < 120
    printed = re.fullmatch(r"impute: copula MAE (\S+) vs mean-imputation MAE "
                           r"(\S+) over 8 erased cells", line)
    for text, key in zip(printed.groups(), ("copula_mae", "mean_imputation_mae")):
        assert float(text) == pytest.approx(recovery[key], rel=1e-5)


@pytest.mark.parametrize("command", ["impute", "run"])
def test_a_panel_with_nothing_missing_is_not_fitted(tmp_path, command):
    cfg = write_config(tmp_path, {"mask": {"fraction": 0.0}})
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    written = set(os.listdir(out))
    assert not {"copula_model.json", "mask.json", "recovery.json"} & written
    assert read_bytes(out, "completed.csv") == read_bytes(out, "data.csv")


def ordinal_csv_config(tmp_path):
    """A copula panel with ordinal columns written to CSV, and its config.

    Built like the benchmark's impute_ordinal input (equiprobable ordinal
    levels, lognormal(0, 0.5) continuous columns) at a smaller size.
    """
    q, n_ordinal, levels = 8, 3, (1.0, 2.0, 3.0, 4.0)
    a = rng_for(23, "ordinal-csv").normal(size=(q, q))
    sigma = a @ a.T + 0.5 * np.eye(q)
    d = np.sqrt(np.diag(sigma))
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * (q - n_ordinal)
             + [MarginalSpec("ordinal", levels=levels, probs=(0.25,) * 4)]
             * n_ordinal)
    panel = gen_copula_sample(sigma / np.outer(d, d), specs, 60, seed=23)
    csv_path = os.path.join(tmp_path, "input.csv")
    save_csv(panel, csv_path)
    return write_config(tmp_path, {
        "data": {"csv": {
            "path": csv_path,
            "columns": dict(zip(panel.column_names, panel.column_kinds)),
            "ordinal_levels": {panel.column_names[j]: list(lv)
                               for j, lv in panel.ordinal_levels.items()}}},
        "mask": {"fraction": 0.2},
        "copula": {"max_iters": 5}})


def read_tree(root):
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


@pytest.mark.filterwarnings("ignore:copula EM did not converge")
def test_impute_interval_path_is_byte_deterministic(tmp_path, monkeypatch):
    # Two runs from different working directories with the same relative
    # --out, so even config.json must match.
    cfg = ordinal_csv_config(tmp_path)
    trees = []
    for run in ("first", "second"):
        os.makedirs(os.path.join(tmp_path, run))
        monkeypatch.chdir(os.path.join(tmp_path, run))
        assert main(["impute", "--config", cfg, "--out", "out"]) == 0
        trees.append(read_tree("out"))
    assert trees[0] == trees[1]
    assert {"completed.csv", "copula_model.json", "recovery.json"} <= set(trees[0])
    model = json.loads(trees[0]["copula_model.json"])
    assert any(m["kind"] == "ordinal" for m in model["marginals"])


def test_cli_completion_builds_one_plan(tmp_path, monkeypatch):
    # EM and the fill share the row constraints' plan: one build per command.
    built = []

    class CountingPlan(copula._Plan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(copula, "_Plan", CountingPlan)
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"},
                                             {"name": "ridge_ar"}]})
    for command in ("impute", "run"):
        built.clear()
        assert main([command, "--config", cfg,
                     "--out", os.path.join(tmp_path, command)]) == 0
        assert len(built) == 1, command


@pytest.mark.filterwarnings("ignore:copula EM did not converge")
def test_artifacts_keep_the_stdlib_formats(tmp_path):
    # Every JSON file is the stdlib's indent=2, sort_keys=True text of its
    # own content plus a newline; every float field of a CSV table is its
    # repr.  report.csv is the fixed-decimal summary table and is exempt.
    outs = {"run": os.path.join(tmp_path, "run"),
            "impute": os.path.join(tmp_path, "impute")}
    assert main(["run", "--seed", "11", "--out", outs["run"]]) == 0
    assert main(["impute", "--config", ordinal_csv_config(tmp_path),
                 "--seed", "11", "--out", outs["impute"]]) == 0
    checked = []
    for command, out in outs.items():
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), newline="") as fh:
                text = fh.read()
            if name.endswith(".json"):
                want = json.dumps(json.loads(text), indent=2, sort_keys=True)
                assert text == want + "\n", name
            elif name != "report.csv":
                rows = list(csv.reader(io.StringIO(text)))
                assert len(rows) > 1, name
                for row in rows[1:]:
                    for field in row[1:]:
                        assert field == "" or repr(float(field)) == field, (name, field)
            checked.append(f"{command}/{name}")
    assert checked == [
        "run/completed.csv", "run/config.json", "run/convergence_trace.csv",
        "run/copula_model.json", "run/data.csv", "run/forecasts.csv",
        "run/mask.json", "run/models.json", "run/recovery.json",
        "run/report.csv", "run/report.json", "run/truth.csv",
        "impute/completed.csv", "impute/config.json",
        "impute/copula_model.json", "impute/data.csv", "impute/mask.json",
        "impute/recovery.json"]


# --------------------------------------------------------------------- run

def test_run_writes_full_artifact_set(tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--out", out]) == 0
    assert "ensemble Mean-MAPE" in capsys.readouterr().out
    report = read_json(out, "report.json")
    assert set(report["model_names"]) == {"naive_seasonal", "ridge_ar", "trmf",
                                          "gbt", "tcn", "ensemble"}
    assert len(report["per_period_mape"]) == 12
    for name in ("naive_seasonal", "ridge_ar", "trmf", "gbt", "tcn"):
        assert name in report["win_loss"]
        assert name in report["p_value"]
    lines = open(os.path.join(out, "forecasts.csv")).read().splitlines()
    assert lines[0] == ("time,actual,naive_seasonal,ridge_ar,trmf,gbt,tcn,"
                        "ensemble")
    assert len(lines) == 13
    models = read_json(out, "models.json")
    assert len(models) == 5
    trace = open(os.path.join(out, "convergence_trace.csv")).read().splitlines()
    assert trace[0].startswith("round,err_naive_seasonal,")
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_run_seed_changes_and_reruns_reproduce(tmp_path):
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    out_c = os.path.join(tmp_path, "c")
    assert main(["run", "--out", out_a, "--seed", "5"]) == 0
    assert main(["run", "--out", out_b, "--seed", "5"]) == 0
    assert main(["run", "--out", out_c, "--seed", "6"]) == 0
    fc_a = open(os.path.join(out_a, "forecasts.csv")).read()
    fc_b = open(os.path.join(out_b, "forecasts.csv")).read()
    fc_c = open(os.path.join(out_c, "forecasts.csv")).read()
    assert fc_a == fc_b
    assert fc_a != fc_c


def test_impute_and_run_share_the_completion_stage(tmp_path):
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"},
                                             {"name": "ridge_ar"}]})
    outs = {}
    for command in ("synth", "impute", "run"):
        outs[command] = os.path.join(tmp_path, command)
        assert main([command, "--config", cfg, "--seed", "5",
                     "--out", outs[command]]) == 0
    for name in ("data.csv", "completed.csv", "copula_model.json", "mask.json",
                 "recovery.json", "truth.csv"):
        assert read_bytes(outs["run"], name) == read_bytes(outs["impute"], name), name
    assert read_bytes(outs["synth"], "truth.csv") == read_bytes(outs["run"],
                                                                "truth.csv")


def test_each_command_writes_the_previous_commands_files(tmp_path, capsys):
    outs = {}
    for command in ("synth", "impute", "run", "ablate"):
        outs[command] = os.path.join(tmp_path, command)
        assert main([command, "--seed", "11", "--out", outs[command]]) == 0
    capsys.readouterr()
    chain = list(outs.values())
    for before, after in zip(chain, chain[1:]):
        names = set(os.listdir(before)) - {"config.json"}
        assert names < set(os.listdir(after)), after
        for name in names:
            assert read_bytes(after, name) == read_bytes(before, name), name
    assert sorted(os.listdir(outs["synth"])) == ["config.json", "data.csv",
                                                "mask.json", "truth.csv"]


def test_copula_ridge_below_zero_fails_before_any_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"copula": {"ridge": -1e-9}})
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == "error[value]: ridge must be >= 0\n"
    assert os.listdir(out) == []


# ------------------------------------------------------------------ ablate

def test_ablate_writes_merit_ordered_prefixes(tmp_path):
    out = os.path.join(tmp_path, "out")
    assert main(["ablate", "--out", out]) == 0
    lines = open(os.path.join(out, "ablation.csv")).read().splitlines()
    assert lines[0] == "prefix_size,models,mape"
    assert len(lines) == 6
    sizes = [int(line.split(",")[0]) for line in lines[1:]]
    assert sizes == [1, 2, 3, 4, 5]
    names = lines[5].split(",")[1].split("+")
    assert sorted(names) == ["gbt", "naive_seasonal", "ridge_ar", "tcn", "trmf"]


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("task, prefix", [
    ({"target": "nope"}, "error[data]: task.target: no column named 'nope'"),
    ({"features": ["nope"]}, "error[data]: task.features: no column named 'nope'"),
    ({"horizon": 200}, "error[config]: "),
    ({"features": ["load"]}, "error[config]: "),
    ({"features": ["feat_01", "feat_01"]}, "error[config]: "),
], ids=["unknown_target", "unknown_feature", "horizon_too_long",
        "target_among_features", "repeated_feature"])
def test_task_errors_before_any_artifact_is_written(tmp_path, capsys, command,
                                                    task, prefix):
    cfg = write_config(tmp_path, {"task": task})
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(prefix)
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("entry", [
    {"name": "gbt", "max_depth": 0},
    {"name": "trmf", "k": 100},
    {"name": "ridge_ar", "ridge": -1},
    {"name": "gbt", "learn_rate": -0.3},
    {"name": "gbt", "reg_alpha": -2.0},
    {"name": "tcn", "learn_rate": -0.05},
    {"name": "tcn", "learn_rate": 0.0},
], ids=["gbt_max_depth", "trmf_k", "ridge_ar_ridge", "gbt_learn_rate",
        "gbt_reg_alpha", "tcn_learn_rate", "tcn_learn_rate_zero"])
def test_a_failing_fit_writes_nothing(tmp_path, capsys, command, entry):
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"}, entry]})
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error\[value\]: roster\.{entry['name']}: [^\n]+\n",
                        err), err
    assert os.listdir(out) == []


@pytest.mark.parametrize("entry", [
    {"name": "tcn", "learn_rate": 1000.0},
    {"name": "gbt", "learn_rate": 1e308},
], ids=["tcn", "gbt"])
def test_a_diverging_fit_prints_one_error_line(tmp_path, entry):
    # A fresh interpreter, so that any RuntimeWarning reaches stderr as it
    # would from the console script.
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"}, entry]})
    out = os.path.join(tmp_path, "out")
    src = os.path.dirname(os.path.dirname(copulacast.__file__))
    done = subprocess.run([sys.executable, "-m", "copulacast.cli", "run",
                           "--config", cfg, "--out", out],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(r"error\[fit\]: roster\.(tcn|gbt): (tcn|gbt) training "
                        r"diverged; lower learn_rate\n", done.stderr), done.stderr
    assert os.listdir(out) == []


def test_a_fitter_error_names_its_roster_entry(tmp_path, capsys):
    # Two continuous columns leave TRMF no room for its default rank.
    path = os.path.join(tmp_path, "narrow.csv")
    with open(path, "w") as fh:
        fh.write("time,load,x\n")
        for i, day in enumerate(monthly_index(datetime.date(2015, 1, 1), 60)):
            fh.write(f"{day},{100 + i + 10 * np.sin(i):.3f},{50 + 7 * i % 11}\n")
    cfg = write_config(tmp_path, {"data": {"csv": {
        "path": path, "columns": {"load": CONTINUOUS, "x": CONTINUOUS}}}})
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[value]: roster.trmf: k must lie in [1, min(q, m)] = [1, 2]\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("error, kind", [
    (FitError("no admissible split"), FitError),
    (np.linalg.LinAlgError("no admissible split"), ValueError),
], ids=["fit_error", "value_error_subclass"])
def test_a_fitter_error_keeps_its_category(tmp_path, monkeypatch, error, kind):
    def failing(task, matrix):
        raise error

    monkeypatch.setitem(FORECASTERS, "failing", failing)
    cfg = write_config(tmp_path, {"roster": [{"name": "failing"}]})
    with pytest.raises(kind) as raised:
        _fit_roster(resolve_config(cfg), None, None)
    assert type(raised.value) is kind
    assert str(raised.value) == "roster.failing: no admissible split"


def test_listed_task_features_are_the_only_features(tmp_path):
    cfg = write_config(tmp_path, {
        "task": {"features": ["feat_01", "feat_03"]},
        "roster": [{"name": "naive_seasonal"}, {"name": "ridge_ar"}]})
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    ridge_ar = read_json(out, "models.json")[1]
    assert ridge_ar["name"] == "ridge_ar"
    # Lags 1, 2, 3 and 12, then the two listed features.
    assert len(ridge_ar["params"]["coef"]) == 6


def test_ablate_is_run_plus_its_ablation(tmp_path, capsys):
    outs = {command: os.path.join(tmp_path, command)
            for command in ("run", "ablate")}
    stdout = {}
    for command, out in outs.items():
        assert main([command, "--seed", "11", "--out", out]) == 0
        stdout[command] = capsys.readouterr().out
    written = sorted(os.listdir(outs["run"]))
    assert sorted(os.listdir(outs["ablate"])) == sorted(written + ["ablation.csv"])
    for name in written:
        if name != "config.json":
            assert read_bytes(outs["ablate"], name) == read_bytes(outs["run"], name), name
    configs = {command: read_json(out, "config.json") for command, out in outs.items()}
    assert configs["ablate"] == dict(configs["run"], out=outs["ablate"])
    run_line, ablate_line = stdout["ablate"].splitlines()
    assert run_line == stdout["run"].strip().replace(outs["run"], outs["ablate"])
    assert ablate_line.startswith("ablate: 5 prefixes; ")


def test_ablate_rejects_single_model_roster(tmp_path, capsys):
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"}]})
    out = os.path.join(tmp_path, "out")
    assert main(["ablate", "--config", cfg, "--out", out]) == 1
    assert "error[config]" in capsys.readouterr().err


# --------------------------------------------------------- holdout actuals

def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def seasonal_csv_config(tmp_path, blank=(), zero=()):
    """The default synthetic panel at seed 11 as a CSV source, with the load
    cell of each period labelled in blank left empty and of each labelled in
    zero set to 0."""
    panel = gen_seasonal_load(seed=11)
    labels = [t.isoformat() for t in panel.time_index]
    for label in blank:
        i = labels.index(label)
        panel.mask[i, 0] = False
        panel.values[i, 0] = np.nan
    for label in zero:
        panel.values[labels.index(label), 0] = 0.0
    path = os.path.join(tmp_path, "panel.csv")
    save_csv(panel, path)
    return write_config(tmp_path, {"data": csv_source(path)}, name="csv.json")


def forecast_rows(out):
    with open(os.path.join(out, "forecasts.csv"), newline="") as fh:
        return {row["time"]: row for row in csv.DictReader(fh)}


def test_csv_run_scores_the_input_not_its_imputations(tmp_path):
    # At seed 11 the default mask erases the load of 2021-01 and 2021-04.
    # The holdout is scored against the input's values all the same, so a
    # CSV copy of the synthetic panel reports what the synthetic run does.
    cfg = seasonal_csv_config(tmp_path)
    outs = {name: os.path.join(tmp_path, name) for name in ("synthetic", "csv")}
    assert main(["run", "--seed", "11", "--out", outs["synthetic"]]) == 0
    assert main(["run", "--config", cfg, "--seed", "11",
                 "--out", outs["csv"]]) == 0
    for name in ("forecasts.csv", "report.json", "report.csv"):
        assert read_bytes(outs["csv"], name) == read_bytes(outs["synthetic"], name)
    rows = forecast_rows(outs["csv"])
    assert float(rows["2021-01-01"]["actual"]) == pytest.approx(144.55, abs=5e-3)
    assert float(rows["2021-04-01"]["actual"]) == pytest.approx(170.37, abs=5e-3)


BLANK = ("2021-03-01", "2021-06-01")


def test_periods_without_an_actual_are_not_scored(tmp_path, capsys):
    cfg = seasonal_csv_config(tmp_path, blank=BLANK)
    out = os.path.join(tmp_path, "run")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert " over 10 periods; 2 periods without an actual not scored; " in \
        capsys.readouterr().out
    rows = forecast_rows(out)
    assert len(rows) == 12
    assert [t for t, row in rows.items() if row["actual"] == ""] == list(BLANK)
    report = read_json(out, "report.json")
    assert report["period_labels"] == [t for t in rows if t not in BLANK]
    assert len(report["per_period_mape"]) == 10

    out = os.path.join(tmp_path, "ablate")
    assert main(["ablate", "--config", cfg, "--out", out]) == 0
    assert "; 2 periods without an actual not scored; wrote " in \
        capsys.readouterr().out
    with open(os.path.join(out, "ablation.csv"), newline="") as fh:
        scores = [float(row["mape"]) for row in csv.DictReader(fh)]
    assert len(scores) == 5 and np.all(np.isfinite(scores))


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_fewer_than_two_scored_periods_fail_before_any_artifact(
        tmp_path, capsys, command):
    labels = [f"2021-{month:02d}-01" for month in range(1, 13)]
    cfg = seasonal_csv_config(tmp_path, blank=labels[1:])
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error[evaluation]: 1 of 12 holdout periods have an actual; ")
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_zero_actual_is_named_by_its_period(tmp_path, capsys, command):
    # 2021-03 is the holdout's third period but the second scored one.
    cfg = seasonal_csv_config(tmp_path, blank=["2021-01-01"], zero=["2021-03-01"])
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[evaluation]: actual value for period 2021-03-01 is zero; "
        "MAPE is undefined\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("blank", [(), BLANK], ids=["synthetic", "csv_blanks"])
def test_eval_of_a_runs_forecasts_writes_its_report(tmp_path, capsys, blank):
    # The actuals file is `cut -d, -f1,2` of the run's forecasts.csv.
    argv = ["--config", seasonal_csv_config(tmp_path, blank)] if blank else []
    run_out, eval_out = os.path.join(tmp_path, "run"), os.path.join(tmp_path, "eval")
    assert main(["run", "--seed", "11", "--out", run_out] + argv) == 0
    forecasts = os.path.join(run_out, "forecasts.csv")
    actuals = os.path.join(tmp_path, "actuals.csv")
    with open(forecasts) as src, open(actuals, "w") as dst:
        dst.writelines(",".join(line.rstrip("\n").split(",")[:2]) + "\n"
                       for line in src)
    capsys.readouterr()
    assert main(["eval", forecasts, actuals, "--out", eval_out]) == 0
    for name in ("report.json", "report.csv"):
        assert read_bytes(eval_out, name) == read_bytes(run_out, name)
    note = "; 2 periods without an actual not scored;" if blank else "columns; "
    assert note in capsys.readouterr().out


# -------------------------------------------------------------------- eval

def eval_fixtures(tmp_path):
    forecasts = os.path.join(tmp_path, "forecasts.csv")
    actuals = os.path.join(tmp_path, "actuals.csv")
    with open(forecasts, "w") as fh:
        fh.write("time,alpha,ensemble\n")
        fh.write("2021-01,104.0,101.0\n")
        fh.write("2021-02,106.0,99.0\n")
        fh.write("2021-03,109.0,102.0\n")
    with open(actuals, "w") as fh:
        fh.write("time,load\n")
        fh.write("2021-01,100.0\n")
        fh.write("2021-02,100.0\n")
        fh.write("2021-03,100.0\n")
    return forecasts, actuals


def test_eval_recomputes_report_from_files(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 0
    assert "Mean-MAPE" in capsys.readouterr().out
    report = read_json(out, "report.json")
    assert report["win_loss"]["alpha"] == [3, 0]
    assert report["period_labels"] == ["2021-01", "2021-02", "2021-03"]


def test_eval_rejects_misaligned_periods(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(actuals, "w") as fh:
        fh.write("time,load\n2021-01,100.0\n2021-06,100.0\n2021-03,100.0\n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert "error[data]" in capsys.readouterr().err


def test_eval_table_errors_name_file_lines(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(actuals, "w") as fh:
        fh.write("time,load\n2021-01,100.0\n\n2021-02\n2021-03,100.0\n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error[data]: {actuals}: row 4: expected 2 fields, got 1\n")


def test_eval_needs_two_periods_with_an_actual(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(actuals, "w") as fh:
        fh.write("time,load\n2021-01,\n2021-02,100.0\n2021-03, \n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[evaluation]: 1 of 3 holdout periods have an actual; "
        "scoring needs at least 2\n")


def test_eval_names_a_zero_actual_by_its_period(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(forecasts, "a") as fh:
        fh.write("2021-04,104.0,101.0\n")
    with open(actuals, "w") as fh:
        fh.write("time,load\n2021-01,100.0\n2021-02,\n2021-03,100.0\n2021-04,0\n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[evaluation]: actual value for period 2021-04 is zero; "
        "MAPE is undefined\n")
    assert os.listdir(out) == []


def test_eval_rejects_a_repeated_column(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(forecasts, "w") as fh:
        fh.write("time,actual,a,a,ensemble\n2021-01,,104.0,1.0,101.0\n"
                 "2021-02,,106.0,1.0,99.0\n2021-03,,109.0,1.0,102.0\n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error[data]: {forecasts}: column 'a' appears more than once\n")
    assert os.listdir(out) == []


def test_eval_requires_ensemble_column(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    with open(forecasts, "w") as fh:
        fh.write("time,alpha,omega\n2021-01,104.0,101.0\n"
                 "2021-02,106.0,99.0\n2021-03,109.0,102.0\n")
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error[data]: forecasts file lacks an 'ensemble' column\n")


@pytest.mark.parametrize("which, text, error", [
    ("actuals", "time\n2021-01\n2021-02\n2021-03\n",
     "{actuals}: need a time column and a value column"),
    ("actuals", "time,load\n2021-01,100.0\n2021-02,abc\n2021-03,100.0\n",
     "{actuals}: non-numeric value column"),
    ("forecasts", "time,alpha,ensemble\n2021-01,104.0,101.0\n"
     "2021-02,high,99.0\n2021-03,109.0,102.0\n",
     "{forecasts}: non-numeric column 'alpha'"),
    ("actuals", "time,load\n2021-01,100.0\n2021-02,inf\n2021-03,100.0\n",
     "{actuals}: row 3, column 'load': 'inf' is not a finite number"),
    ("actuals", "time,load\n2021-01,100.0\n2021-02,100.0\n2021-03, +nan\n",
     "{actuals}: row 4, column 'load': '+nan' is not a finite number"),
    ("forecasts", "time,alpha,ensemble\n2021-01,104.0,101.0\n\n"
     "2021-02,106.0,-inf\n2021-03,109.0,102.0\n",
     "{forecasts}: row 4, column 'ensemble': '-inf' is not a finite number"),
    ("forecasts", "time,alpha,ensemble\n2021-01,1e999,101.0\n"
     "2021-02,106.0,99.0\n2021-03,109.0,102.0\n",
     "{forecasts}: row 2, column 'alpha': '1e999' is not a finite number"),
], ids=["one_column_actuals", "non_numeric_actual", "non_numeric_forecast",
        "inf_actual", "nan_actual", "inf_forecast", "overflowing_forecast"])
def test_eval_rejects_unreadable_values(tmp_path, capsys, which, text, error):
    paths = dict(zip(("forecasts", "actuals"), eval_fixtures(tmp_path)))
    with open(paths[which], "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "out")
    assert main(["eval", paths["forecasts"], paths["actuals"], "--out", out]) == 1
    assert capsys.readouterr().err == f"error[data]: {error.format(**paths)}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("token", ["NA", "NaN", "nan", " NA "])
def test_eval_reads_missing_tokens_as_an_empty_actual(tmp_path, capsys, token):
    forecasts, actuals = eval_fixtures(tmp_path)
    reports = {}
    for field in ("", token):
        with open(actuals, "w") as fh:
            fh.write(f"time,load\n2021-01,100.0\n2021-02,{field}\n"
                     "2021-03,100.0\n")
        out = os.path.join(tmp_path, f"out{len(reports)}")
        assert main(["eval", forecasts, actuals, "--out", out]) == 0
        assert "; 1 periods without an actual not scored; " in \
            capsys.readouterr().out
        reports[field] = [read_bytes(out, name)
                          for name in ("report.json", "report.csv")]
    assert reports[token] == reports[""]
    assert read_json(out, "report.json")["period_labels"] == ["2021-01", "2021-03"]


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--config", "c.json"],
                                  ["--ensemble-col", "ensemble"]],
                         ids=["seed", "config", "ensemble_col"])
def test_eval_takes_only_out(tmp_path, capsys, flag):
    forecasts, actuals = eval_fixtures(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", forecasts, actuals, "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# ------------------------------------------------------------------ errors

def test_missing_csv_input_reports_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"data": csv_source("nope.csv")})
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[")


def test_invalid_config_json_reports_config_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    out = os.path.join(tmp_path, "out")
    assert main(["run", "--config", path, "--out", out]) == 1
    assert "error[config]" in capsys.readouterr().err


def panel_source(columns, levels=None):
    """A data.csv config over the test's panel.csv, named "PANEL" until the
    test knows its path."""
    csv_spec = {"path": "PANEL", "columns": columns}
    if levels is not None:
        csv_spec["ordinal_levels"] = levels
    return {"data": {"csv": csv_spec}}


AB = {"a": CONTINUOUS, "b": CONTINUOUS}


@pytest.mark.parametrize("config, text, line", [
    ([], None, "error[config]: config root must be a JSON object"),
    ({"task": {"horizon": 0}}, None,
     "error[config]: task.horizon and task.validation_periods must be >= 1"),
    ({"roster": []}, None, "error[config]: roster must be a non-empty list"),
    (panel_source({}), None,
     "error[config]: data.csv: schema declares no data columns"),
    (panel_source({"a": CONTINUOUS, "b": "nominal"}), None,
     "error[config]: data.csv: column 'b': unknown kind 'nominal'"),
    (panel_source(AB, levels={"b": [1, 2]}), None,
     "error[config]: data.csv: levels declared for non-ordinal column 'b'"),
    (panel_source({"a": CONTINUOUS, "b": "ordinal"}, levels={"b": [2, 1]}), None,
     "error[config]: data.csv: column 'b': levels must be strictly increasing"),
    (panel_source(AB), "time,a,b\n2020-11-01,1,2\n2020-13-01,1,2\n2021-01-01,1,2\n",
     "error[data]: PANEL: row 3: bad date '2020-13-01'"),
    (panel_source(AB), "time,a,b\n2020-11-01,1,2\n2020-12-01,abc,2\n2021-01-01,1,2\n",
     "error[data]: PANEL: row 3, column 'a': cannot parse 'abc'"),
    (panel_source(AB), "time\n2020-11-01\n",
     "error[data]: PANEL: header must list a time column and data columns"),
    (panel_source({"a": CONTINUOUS, "g": "ordinal"}),
     "time,a,g\n2020-11-01,1,\n2020-12-01,2,\n2021-01-01,3,\n",
     "error[data]: PANEL: ordinal column 'g' has no observed cells"),
    (panel_source(AB), "time,a,b\n2020-11-01,1,\n2020-12-01,2,\n2021-01-01,3,\n",
     "error[fit]: column 'b' has no observed cells"),
    (panel_source({"a": CONTINUOUS, "g": "ordinal"}, levels={"g": [1, 2, 3]}),
     "time,a,g\n2020-01-01,1,2\n2020-02-01,2,5\n2020-03-01,3,1\n",
     "error[data]: PANEL: ordinal column 'g' at 2020-02-01: value 5.0 is "
     "outside the declared level set"),
    (panel_source(AB), "time,a,b\n2020-01-01,1,2\n2020-03-01,2,5\n2020-02-01,3,1\n",
     "error[data]: PANEL: time index must be strictly increasing"),
    (panel_source(AB), "time,a,b\n2020-01-01,1,2\n2020-02-01,inf,5\n2020-03-01,3,1\n",
     "error[data]: PANEL: row 3, column 'a': 'inf' is not a finite number"),
    (panel_source(AB),
     "time,a,b\n2020-01-01,1e308,2\n2020-02-01,-1e308,1\n2020-03-01,3,3\n"
     "2020-04-01,4,5\n",
     "error[fit]: column 'a': observed values too far apart to interpolate "
     "in float64"),
], ids=["root_list", "horizon_zero", "roster_empty", "csv_no_columns",
        "csv_unknown_kind", "csv_levels_non_ordinal", "csv_levels_decreasing",
        "csv_bad_date", "csv_bad_token", "csv_time_only", "csv_ordinal_empty",
        "csv_continuous_empty", "csv_out_of_level", "csv_dates_not_increasing",
        "csv_infinite_cell", "csv_range_overflows"])
def test_each_input_error_is_one_stderr_line(tmp_path, capsys, config, text,
                                             line):
    # Exit 1 with exactly the one line; nothing is written after a config
    # error, and the output directory stays empty after a data or fit error.
    panel = os.path.join(tmp_path, "panel.csv")
    if text is not None:
        with open(panel, "w") as fh:
            fh.write(text)
    cfg = write_config(tmp_path, json.loads(
        json.dumps(config).replace('"PANEL"', json.dumps(panel))))
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == line.replace("PANEL", panel) + "\n"
    if line.startswith("error[config]"):
        assert not os.path.exists(out)
    else:
        assert os.listdir(out) == []
