"""End-to-end tests of the argparse CLI and its artifacts."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import copulacast
from copulacast import copula
from copulacast.cli import DEFAULT_CONFIG, _fit_roster, main, resolve_config
from copulacast.dataset import (CONTINUOUS, MarginalSpec, Schema,
                                gen_copula_sample, gen_seasonal_load, load_csv,
                                save_csv)
from copulacast.errors import ConfigError
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
        "copula_max_iters_integral_float", "task_target_int"])
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
    monkeypatch.setitem(FORECASTERS, "unseeded", unseeded)
    cfg = write_config(tmp_path, {"roster": [
        {"name": "seeded"}, {"name": "seeded", "seed": 3}, {"name": "unseeded"}]})
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


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("task, category", [
    ({"target": "nope"}, "data"),
    ({"horizon": 200}, "config"),
], ids=["unknown_target", "horizon_too_long"])
def test_task_errors_before_any_artifact_is_written(tmp_path, capsys, command,
                                                    task, category):
    cfg = write_config(tmp_path, {"task": task})
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error[{category}]: ")
    assert os.listdir(out) == []


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
