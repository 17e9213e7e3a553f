"""Command-line driver for end-to-end experiments.

Subcommands: synth (write a synthetic panel), impute (complete a sparse
panel), run (full pipeline through the ensemble and report), ablate (run
plus the prefix-ablation path), eval (recompute statistics from stored
forecast files).  Every command is a pure function of its resolved config
and input files; reruns write byte-identical artifacts.
"""

import argparse
import concurrent.futures
import copy
import csv
import inspect
import json
import os
import sys

import numpy as np

from . import __version__
from .copula import em_fit, impute
from .dataset import (Schema, apply_mask, gen_seasonal_load, load_csv,
                      mask_record_to_file, save_csv, write_json)
from .ensemble import ablation, ablation_to_csv, run_ensemble
from .errors import ConfigError, CopulacastError, DataError
from .evaluation import build_report
from .forecasters import FORECASTERS, ForecastTask

DEFAULT_CONFIG = {
    "seed": 11,
    "jobs": 1,
    "out": "out",
    "data": {
        "synthetic": {
            "n_periods": 108,
            "base": 100.0,
            "trend": 0.5,
            "seasonal_amp": 20.0,
            "noise_sd": 2.0,
            "n_features": 12,
        },
    },
    "mask": {"fraction": 0.1},
    "copula": {"max_iters": 100, "tol": 1e-4, "ridge": 1e-8},
    "task": {
        "target": "load",
        "horizon": 12,
        "validation_periods": 12,
        "features": "all",
    },
    "roster": [
        {"name": "naive_seasonal"},
        {"name": "ridge_ar"},
        {"name": "trmf"},
        {"name": "gbt"},
        {"name": "tcn"},
    ],
}


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(path, seed=None, out=None):
    """Merge the default config with a JSON file and flag overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        if isinstance(loaded.get("data"), dict) and "csv" in loaded["data"]:
            config["data"].pop("synthetic", None)
        config = _deep_merge(config, loaded)
    if seed is not None:
        config["seed"] = int(seed)
    if out is not None:
        config["out"] = str(out)
    _validate_config(config)
    return config


def _require_object(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {json.dumps(value)}")


def _require_number(value, name, kind):
    """value as kind (int or float, never truncated); else ConfigError."""
    what = "an integer" if kind is int else "a number"
    if not isinstance(value, bool):
        try:
            number = kind(value)
            if not (kind is int and isinstance(value, float) and number != value):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _require_like(value, default, name):
    """value of the JSON type of a keyword default: an int default takes an
    integer (not a boolean), a float default a number, a bool default a
    boolean.  Other defaults (tuples, None) are not checked."""
    if isinstance(default, bool):
        ok, what = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, what = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, what = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        return
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _validate_config(config):
    for section in ("mask", "copula", "task", "data"):
        _require_object(config.get(section, {}), section)
    for source in ("synthetic", "csv"):
        if source in config["data"]:
            _require_object(config["data"][source], f"data.{source}")
    _require_number(config.get("seed"), "seed", int)
    jobs = _require_number(config.get("jobs", 1), "jobs", int)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    for key, kind in (("max_iters", int), ("tol", float), ("ridge", float)):
        if key in config.get("copula", {}):
            _require_number(config["copula"][key], f"copula.{key}", kind)
    mask = config.get("mask", {})
    fraction = _require_number(mask.get("fraction", 0.0), "mask.fraction", float)
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"mask.fraction must lie in [0, 1], got {fraction}")
    roster = config.get("roster", [])
    if not isinstance(roster, list) or not roster:
        raise ConfigError("roster must be a non-empty list")
    for entry in roster:
        _require_object(entry, "each roster entry")
        name = entry.get("name")
        if name not in FORECASTERS:
            raise ConfigError(f"unknown forecaster {name!r}; known: "
                              f"{sorted(FORECASTERS)}")
        # Every fitter takes (task, matrix, **hyperparameters).
        params = inspect.signature(FORECASTERS[name]).parameters
        accepted = list(params)[2:]
        for key, value in entry.items():
            if key == "name":
                continue
            if key not in accepted:
                raise ConfigError(f"roster entry {name!r} has unknown key "
                                  f"{key!r}; accepted: {accepted}")
            _require_like(value, params[key].default, f"roster.{name}.{key}")
    task = config.get("task", {})
    horizon = _require_number(task.get("horizon", 0), "task.horizon", int)
    n_val = _require_number(task.get("validation_periods", 0),
                            "task.validation_periods", int)
    if horizon < 1 or n_val < 1:
        raise ConfigError("task.horizon and task.validation_periods must be >= 1")
    features = task.get("features", "all")
    if features != "all" and not (isinstance(features, list) and
                                  all(isinstance(f, str) for f in features)):
        raise ConfigError('task.features must be "all" or a list of column '
                          f"names, got {json.dumps(features)}")
    data = config.get("data", {})
    if "csv" not in data and "synthetic" not in data:
        raise ConfigError("data must configure either a csv source or the "
                          "synthetic generator")
    if "synthetic" in data:
        # The CLI passes its own seed; every other keyword is configurable.
        params = inspect.signature(gen_seasonal_load).parameters
        accepted = [key for key in params if key != "seed"]
        for key, value in data["synthetic"].items():
            if key not in accepted:
                raise ConfigError(f"data.synthetic.{key} must be a generator "
                                  f"parameter; accepted: {accepted}")
            _require_like(value, params[key].default, f"data.synthetic.{key}")
    if "csv" in data:
        path = data["csv"].get("path")
        if not isinstance(path, str):
            raise ConfigError(f"data.csv.path must be a string, got "
                              f"{json.dumps(path)}")
        _require_object(data["csv"].get("columns"), "data.csv.columns")
        _require_object(data["csv"].get("ordinal_levels", {}),
                        "data.csv.ordinal_levels")


def _load_input(config):
    """Materialize the input panel; returns (matrix, truth or None)."""
    data = config["data"]
    if "csv" in data:
        source = data["csv"]
        schema = Schema(columns=dict(source["columns"]),
                        ordinal_levels={k: tuple(v) for k, v in
                                        source.get("ordinal_levels", {}).items()})
        return load_csv(source["path"], schema), None
    params = dict(data["synthetic"])
    truth = gen_seasonal_load(seed=int(config["seed"]), **params)
    return truth.copy(), truth


def _mask_stage(config, matrix):
    fraction = float(config.get("mask", {}).get("fraction", 0.0))
    if fraction <= 0.0:
        return matrix, None
    return apply_mask(matrix, fraction, int(config["seed"]))


def _impute_stage(config, matrix):
    """Complete the panel; returns (completed, model or None)."""
    if matrix.mask.all():
        completed = matrix.copy()
        completed.metadata["imputed"] = False
        return completed, None
    copula_cfg = config.get("copula", {})
    model = em_fit(matrix,
                   max_iters=int(copula_cfg.get("max_iters", 100)),
                   tol=float(copula_cfg.get("tol", 1e-4)),
                   ridge=float(copula_cfg.get("ridge", 1e-8)))
    return impute(model, matrix), model


def _build_task(config, matrix):
    task_cfg = config["task"]
    target = task_cfg["target"]
    target_idx = matrix.column_index(target)
    horizon = int(task_cfg["horizon"])
    n_val = int(task_cfg["validation_periods"])
    n = matrix.n_rows
    train_stop = n - horizon - n_val
    if train_stop < 2:
        raise ConfigError("panel too short for the configured horizon and "
                          "validation span")
    features = task_cfg.get("features", "all")
    if features == "all":
        feature_idx = tuple(j for j in range(matrix.n_cols) if j != target_idx)
    else:
        feature_idx = tuple(matrix.column_index(f) for f in features)
    return ForecastTask(target_column=target_idx, horizon=horizon,
                        train_range=(0, train_stop),
                        validation_range=(train_stop, train_stop + n_val),
                        feature_columns=feature_idx)


def _fit_roster(config, task, completed):
    """Fit every roster entry, fanning out across jobs when configured.

    Results are joined in roster order, so the outputs do not depend on
    completion timing.
    """
    roster = config["roster"]
    seed = int(config["seed"])
    jobs = int(config.get("jobs", 1))

    def fit_one(entry):
        hyper = {k: v for k, v in entry.items() if k != "name"}
        fit = FORECASTERS[entry["name"]]
        if entry["name"] in ("tcn", "trmf") and "seed" not in hyper:
            hyper["seed"] = seed
        hyper = {k: (tuple(v) if isinstance(v, list) else v)
                 for k, v in hyper.items()}
        return fit(task, completed, **hyper)

    if jobs == 1:
        return [fit_one(entry) for entry in roster]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fit_one, entry) for entry in roster]
        return [f.result() for f in futures]


def _holdout_actuals(task, completed, truth):
    source = truth if truth is not None else completed
    lo = task.validation_stop
    return source.values[lo:lo + task.horizon, task.target_column]


def _recovery_report(truth_values, masked, completed, record):
    """MAE over the erased cells: copula reconstruction vs column means."""
    cells = record.erased_cells
    if not cells:
        return None
    col_means = np.array([
        masked.values[masked.mask[:, j], j].mean() if masked.mask[:, j].any()
        else np.nan
        for j in range(masked.n_cols)])
    err_copula, err_mean = [], []
    for r, c in cells:
        true_value = truth_values[r, c]
        err_copula.append(abs(completed.values[r, c] - true_value))
        err_mean.append(abs(col_means[c] - true_value))
    return {"cells": len(cells),
            "copula_mae": float(np.mean(err_copula)),
            "mean_imputation_mae": float(np.mean(err_mean))}


def _write_forecasts(out_dir, task, completed, actuals, models, ensemble_path):
    labels = [completed.time_index[t].isoformat() for t in task.holdout_indices]
    with open(os.path.join(out_dir, "forecasts.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "actual"] + [m.name for m in models]
                        + ["ensemble"])
        for i, label in enumerate(labels):
            row = [label, repr(float(actuals[i]))]
            row.extend(repr(float(m.holdout_forecast[i])) for m in models)
            row.append(repr(float(ensemble_path[i])))
            writer.writerow(row)
    return labels


def _complete(config, out_dir):
    """Load, mask and complete the panel; write its artifacts and recovery.

    Returns (truth, completed, recovery): the synthetic truth panel (None
    for a CSV source), the completed panel, and the recovery report (None
    when no cell was erased).
    """
    matrix, truth = _load_input(config)
    masked, record = _mask_stage(config, matrix)
    completed, model = _impute_stage(config, masked)
    save_csv(masked, os.path.join(out_dir, "data.csv"))
    save_csv(completed, os.path.join(out_dir, "completed.csv"))
    if model is not None:
        model.save(os.path.join(out_dir, "copula_model.json"))
    recovery = None
    if record is not None:
        mask_record_to_file(record, os.path.join(out_dir, "mask.json"))
        recovery = _recovery_report(matrix.values, masked, completed, record)
        if recovery is not None:
            write_json(recovery, os.path.join(out_dir, "recovery.json"))
    return truth, completed, recovery


def _pipeline(config, out_dir):
    """Shared stages of run/ablate: complete, write truth, fit, ensemble."""
    truth, completed, _ = _complete(config, out_dir)
    if truth is not None:
        save_csv(truth, os.path.join(out_dir, "truth.csv"))
    task = _build_task(config, completed)
    models = _fit_roster(config, task, completed)
    forecasts, _, trace = run_ensemble(models, task)
    actuals = _holdout_actuals(task, completed, truth)
    return {"completed": completed, "task": task, "models": models,
            "forecasts": forecasts, "trace": trace, "actuals": actuals}


def cmd_synth(config, out_dir):
    """Write the synthetic panel (and its masked variant when configured)."""
    if "synthetic" not in config["data"]:
        raise ConfigError("synth requires a synthetic data source")
    matrix, truth = _load_input(config)
    masked, record = _mask_stage(config, matrix)
    save_csv(truth, os.path.join(out_dir, "truth.csv"))
    save_csv(masked, os.path.join(out_dir, "data.csv"))
    if record is not None:
        mask_record_to_file(record, os.path.join(out_dir, "mask.json"))
    write_json(config, os.path.join(out_dir, "config.json"))
    print(f"synth: wrote {masked.n_rows}x{masked.n_cols} panel to {out_dir} "
          f"({masked.observed_count()} observed cells)")
    return 0


def cmd_impute(config, out_dir):
    """Complete a sparse panel and report recovery quality when truth exists."""
    _, _, recovery = _complete(config, out_dir)
    if recovery is not None:
        print(f"impute: copula MAE {recovery['copula_mae']:.4f} vs "
              f"mean-imputation MAE {recovery['mean_imputation_mae']:.4f} "
              f"over {recovery['cells']} erased cells")
    write_json(config, os.path.join(out_dir, "config.json"))
    print(f"impute: wrote completed panel to {out_dir}")
    return 0


def cmd_run(config, out_dir):
    """Full pipeline: complete, fit the bank, ensemble, evaluate."""
    result = _pipeline(config, out_dir)
    task, models = result["task"], result["models"]
    actuals = result["actuals"]
    labels = _write_forecasts(out_dir, task, result["completed"], actuals,
                              models, result["forecasts"])
    result["trace"].to_csv(os.path.join(out_dir, "convergence_trace.csv"))
    write_json([m.to_json() for m in models],
               os.path.join(out_dir, "models.json"))
    columns = {m.name: m.holdout_forecast for m in models}
    columns["ensemble"] = result["forecasts"]
    report = build_report(actuals, columns, ensemble_name="ensemble",
                          period_labels=labels)
    report.save_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    write_json(config, os.path.join(out_dir, "config.json"))
    ens_mean = report.mean_mape["ensemble"]
    ens_std = report.std_mape["ensemble"]
    print(f"run: ensemble Mean-MAPE {ens_mean:.2f}% +/-{ens_std:.2f}% over "
          f"{len(labels)} periods; artifacts in {out_dir}")
    return 0


def cmd_ablate(config, out_dir):
    """Run the pipeline, then score every merit-ordered ensemble prefix."""
    if len(config["roster"]) < 2:
        raise ConfigError("ablate needs a roster of at least 2 models")
    result = _pipeline(config, out_dir)
    rows = ablation(result["models"], result["task"], result["actuals"])
    ablation_to_csv(rows, os.path.join(out_dir, "ablation.csv"))
    write_json(config, os.path.join(out_dir, "config.json"))
    first, last = rows[0][2], rows[-1][2]
    print(f"ablate: {len(rows)} prefixes; MAPE first {first:.3f}% -> "
          f"last {last:.3f}%; wrote {out_dir}/ablation.csv")
    return 0


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise DataError(f"{path}: need a header and at least one data row")
    header = [c.strip() for c in rows[0]]
    body = [r for r in rows[1:] if r]
    for r in body:
        if len(r) != len(header):
            raise DataError(f"{path}: ragged row with {len(r)} fields")
    return header, body


def cmd_eval(forecasts_path, actuals_path, out_dir, ensemble_col="ensemble"):
    """Recompute the statistics table from stored forecast/actual files."""
    f_header, f_body = _read_table(forecasts_path)
    a_header, a_body = _read_table(actuals_path)
    if len(a_header) < 2:
        raise DataError(f"{actuals_path}: need a time column and a value column")
    f_times = [r[0] for r in f_body]
    a_times = [r[0] for r in a_body]
    if f_times != a_times:
        raise DataError("forecast and actual files disagree on periods")
    try:
        actuals = np.array([float(r[1]) for r in a_body])
    except ValueError:
        raise DataError(f"{actuals_path}: non-numeric value column") from None
    model_cols = [c for c in f_header[1:] if c != "actual"]
    if ensemble_col not in model_cols:
        raise DataError(f"forecasts file lacks an {ensemble_col!r} column")
    forecasts = {}
    for name in model_cols:
        j = f_header.index(name)
        try:
            forecasts[name] = np.array([float(r[j]) for r in f_body])
        except ValueError:
            raise DataError(f"{forecasts_path}: non-numeric column {name!r}") from None
    report = build_report(actuals, forecasts, ensemble_name=ensemble_col,
                          period_labels=f_times)
    report.save_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    ens = report.mean_mape[ensemble_col]
    print(f"eval: {len(f_times)} periods, {len(model_cols)} columns; "
          f"{ensemble_col} Mean-MAPE {ens:.2f}%; report in {out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copulacast",
        description="Sparse multivariate time-series forecasting: copula "
                    "completion, forecaster bank, adaptive ensemble.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="root seed override")

    common(sub.add_parser("synth", help="write a synthetic benchmark panel"))
    common(sub.add_parser("impute", help="complete a sparse panel"))
    common(sub.add_parser("run", help="full pipeline through the report"))
    common(sub.add_parser("ablate", help="pipeline plus prefix ablation"))
    p_eval = sub.add_parser("eval", help="recompute statistics from files")
    p_eval.add_argument("forecasts", help="CSV of per-model forecasts")
    p_eval.add_argument("actuals", help="CSV of actual values")
    p_eval.add_argument("--ensemble-col", default="ensemble",
                        help="name of the ensemble column")
    common(p_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            out_dir = args.out if args.out is not None else "out"
            os.makedirs(out_dir, exist_ok=True)
            return cmd_eval(args.forecasts, args.actuals, out_dir,
                            ensemble_col=args.ensemble_col)
        config = resolve_config(args.config, seed=args.seed, out=args.out)
        out_dir = config["out"]
        os.makedirs(out_dir, exist_ok=True)
        handler = {"synth": cmd_synth, "impute": cmd_impute,
                   "run": cmd_run, "ablate": cmd_ablate}[args.command]
        return handler(config, out_dir)
    except CopulacastError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[value]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
