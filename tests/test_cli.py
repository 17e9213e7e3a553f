"""End-to-end tests of the argparse CLI and its artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import copulacast
from copulacast.cli import DEFAULT_CONFIG, main, resolve_config
from copulacast.dataset import (CONTINUOUS, MarginalSpec, Schema,
                                gen_copula_sample, load_csv, save_csv)
from copulacast.errors import ConfigError
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
    path = write_config(tmp_path, {"seed": 3, "mask": {"fraction": 0.2}})
    config = resolve_config(path, out="elsewhere")
    assert config["seed"] == 3
    assert config["mask"]["fraction"] == 0.2
    assert config["out"] == "elsewhere"
    # Untouched defaults survive the merge.
    assert config["task"]["horizon"] == 12


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
], ids=["seed", "jobs_null", "jobs_bool", "jobs_zero", "jobs_negative",
        "mask_fraction", "copula_max_iters", "copula_max_iters_fraction",
        "copula_tol", "copula_ridge", "task_horizon", "task_validation",
        "task_features_int", "task_features_string", "task_features_mixed",
        "data_csv_no_path", "data_csv_path_int", "data_csv_no_columns",
        "data_csv_columns_list", "data_csv_ordinal_levels_list",
        "roster_epochs_string", "roster_epochs_bool", "roster_learn_rate_null",
        "roster_use_features_int", "synthetic_unknown_key", "synthetic_seed",
        "synthetic_n_periods_fraction", "synthetic_noise_sd_string"])
def test_config_scalar_of_wrong_type_reports_config_error(tmp_path, capsys,
                                                          key, override):
    cfg = write_config(tmp_path, override)
    out = os.path.join(tmp_path, "out")
    assert main(["impute", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {key} must be ")
    assert "Traceback" not in err
    assert not os.path.exists(out)


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
    for command in ("impute", "run"):
        outs[command] = os.path.join(tmp_path, command)
        assert main([command, "--config", cfg, "--seed", "5",
                     "--out", outs[command]]) == 0
    for name in ("data.csv", "completed.csv", "copula_model.json", "mask.json",
                 "recovery.json"):
        with open(os.path.join(outs["impute"], name), "rb") as fh:
            written_by_impute = fh.read()
        with open(os.path.join(outs["run"], name), "rb") as fh:
            assert fh.read() == written_by_impute, name
    assert os.path.exists(os.path.join(outs["run"], "truth.csv"))
    assert not os.path.exists(os.path.join(outs["impute"], "truth.csv"))


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


def test_ablate_rejects_single_model_roster(tmp_path, capsys):
    cfg = write_config(tmp_path, {"roster": [{"name": "naive_seasonal"}]})
    out = os.path.join(tmp_path, "out")
    assert main(["ablate", "--config", cfg, "--out", out]) == 1
    assert "error[config]" in capsys.readouterr().err


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


def test_eval_requires_ensemble_column(tmp_path, capsys):
    forecasts, actuals = eval_fixtures(tmp_path)
    out = os.path.join(tmp_path, "out")
    assert main(["eval", forecasts, actuals, "--out", out,
                 "--ensemble-col", "omega"]) == 1
    assert "error[data]" in capsys.readouterr().err


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
