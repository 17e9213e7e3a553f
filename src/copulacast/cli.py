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
from .copula import complete
from .dataset import (Schema, apply_mask, gen_seasonal_load, load_csv,
                      mask_record_to_file, save_csv, write_float_csv,
                      write_json)
from .ensemble import ablation, ablation_to_csv, run_ensemble
from .errors import ConfigError, CopulacastError, DataError
from .evaluation import build_report
from .forecasters import FORECASTERS, ForecastTask


def _keywords(fn):
    """fn's keyword defaults by name, in signature order."""
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


# The schema of the config: every key a run accepts, with its default.
# The copula section is complete's keywords and the synthetic source is
# the generator's, less the seed, which the CLI passes itself.
DEFAULT_CONFIG = {
    "seed": 11,
    "jobs": 1,
    "out": "out",
    "data": {
        "synthetic": {key: value for key, value
                      in _keywords(gen_seasonal_load).items() if key != "seed"},
    },
    "mask": {"fraction": 0.1},
    "copula": _keywords(complete),
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


# None marks a setting that _validate_config checks by its own code.
_SCHEMA = _deep_merge(DEFAULT_CONFIG, {
    "data": {"csv": {"path": None, "columns": None, "ordinal_levels": None}},
    "task": {"features": None},
    "roster": None,
})


def resolve_config(path, seed=None, out=None):
    """Merge the default config with a JSON file and flag overrides.

    Raises ConfigError unless every key is a known setting holding a value
    of its default's JSON type, and the few ranged or free-form settings
    (jobs, mask.fraction, the task span and features, data.csv, roster)
    pass their own checks.
    """
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


def _is_positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _require_like(value, default, name):
    """value of the JSON shape of its default.

    A dict default takes an object holding only the dict's keys, each
    checked against its own default.  An int default takes an integer (not
    a boolean), a float default a number, a bool default a boolean, a str
    default a string, a tuple of ints (lags) a non-empty list of positive
    integers and a tuple of pairs (layer shapes) a non-empty list of
    [int, int] pairs of positive integers.  A None default is not checked.
    """
    if isinstance(default, dict):
        _require_object(value, name)
        for key, item in value.items():
            dotted = f"{name}.{key}" if name else key
            if key not in default:
                raise ConfigError(f"{dotted} must be a known setting; "
                                  f"accepted: {list(default)}")
            _require_like(item, default[key], dotted)
        return
    if isinstance(default, bool):
        ok, what = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, what = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, what = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif isinstance(default, str):
        ok, what = isinstance(value, str), "a string"
    elif isinstance(default, tuple) and all(isinstance(d, tuple) for d in default):
        ok = (isinstance(value, list) and bool(value)
              and all(isinstance(pair, list) and len(pair) == 2
                      and all(map(_is_positive_int, pair)) for pair in value))
        what = "a non-empty list of [int, int] pairs of positive integers"
    elif isinstance(default, tuple):
        ok = (isinstance(value, list) and bool(value)
              and all(map(_is_positive_int, value)))
        what = "a non-empty list of positive integers"
    else:
        return
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _validate_config(config):
    _require_like(config, _SCHEMA, "")
    if config["jobs"] < 1:
        raise ConfigError(f"jobs must be >= 1, got {config['jobs']}")
    fraction = config["mask"]["fraction"]
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"mask.fraction must lie in [0, 1], got {fraction}")
    task = config["task"]
    if task["horizon"] < 1 or task["validation_periods"] < 1:
        raise ConfigError("task.horizon and task.validation_periods must be >= 1")
    features = task["features"]
    if features != "all" and not (isinstance(features, list) and
                                  all(isinstance(f, str) for f in features)):
        raise ConfigError('task.features must be "all" or a list of column '
                          f"names, got {json.dumps(features)}")
    roster = config["roster"]
    if not isinstance(roster, list) or not roster:
        raise ConfigError("roster must be a non-empty list")
    for entry in roster:
        _require_object(entry, "each roster entry")
        name = entry.get("name")
        if not isinstance(name, str) or name not in FORECASTERS:
            raise ConfigError(f"unknown forecaster {name!r}; known: "
                              f"{sorted(FORECASTERS)}")
        # Every fitter takes (task, matrix, **hyperparameters).
        params = _keywords(FORECASTERS[name])
        for key, value in entry.items():
            if key == "name":
                continue
            if key not in params:
                raise ConfigError(f"roster entry {name!r} has unknown key "
                                  f"{key!r}; accepted: {list(params)}")
            _require_like(value, params[key], f"roster.{name}.{key}")
    if "csv" in config["data"]:
        if "synthetic" in config["data"]:
            raise ConfigError("data must be either a csv source or the "
                              "synthetic generator, not both")
        source = config["data"]["csv"]
        path = source.get("path")
        if not isinstance(path, str):
            raise ConfigError(f"data.csv.path must be a string, got "
                              f"{json.dumps(path)}")
        _require_object(source.get("columns"), "data.csv.columns")
        _require_object(source.get("ordinal_levels", {}),
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
    truth = gen_seasonal_load(seed=config["seed"], **data["synthetic"])
    return truth.copy(), truth


def _mask_stage(config, matrix):
    fraction = config["mask"]["fraction"]
    if fraction <= 0.0:
        return matrix, None
    return apply_mask(matrix, fraction, config["seed"])


def _impute_stage(config, matrix):
    """Complete the panel; returns (completed, model or None)."""
    if matrix.mask.all():
        completed = matrix.copy()
        completed.metadata["imputed"] = False
        return completed, None
    model, completed = complete(matrix, **config["copula"])
    return completed, model


def _build_task(config, matrix):
    task_cfg = config["task"]
    target = task_cfg["target"]
    target_idx = matrix.column_index(target)
    horizon = task_cfg["horizon"]
    n_val = task_cfg["validation_periods"]
    n = matrix.n_rows
    train_stop = n - horizon - n_val
    if train_stop < 2:
        raise ConfigError("panel too short for the configured horizon and "
                          "validation span")
    features = task_cfg["features"]
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

    def fit_one(entry):
        fit = FORECASTERS[entry["name"]]
        hyper = {k: v for k, v in entry.items() if k != "name"}
        if "seed" in _keywords(fit):
            hyper.setdefault("seed", config["seed"])
        return fit(task, completed, **hyper)

    if config["jobs"] == 1:
        return [fit_one(entry) for entry in roster]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config["jobs"]) as pool:
        futures = [pool.submit(fit_one, entry) for entry in roster]
        return [f.result() for f in futures]


def _holdout_actuals(task, completed, truth):
    source = truth if truth is not None else completed
    lo = task.validation_stop
    return source.values[lo:lo + task.horizon, task.target_column]


def _recovery_report(truth_values, masked, completed, record):
    """MAE over the erased cells: copula reconstruction vs column means."""
    if not record.erased_cells:
        return None
    col_means = np.array([
        masked.values[masked.mask[:, j], j].mean() if masked.mask[:, j].any()
        else np.nan
        for j in range(masked.n_cols)])
    rows, cols = np.array(record.erased_cells).T
    true_values = truth_values[rows, cols]
    return {"cells": len(record.erased_cells),
            "copula_mae": float(np.mean(np.abs(completed.values[rows, cols]
                                               - true_values))),
            "mean_imputation_mae": float(np.mean(np.abs(col_means[cols]
                                                        - true_values)))}


def _write_forecasts(out_dir, task, completed, actuals, models, ensemble_path):
    labels = [completed.time_index[t].isoformat() for t in task.holdout_indices]
    write_float_csv(os.path.join(out_dir, "forecasts.csv"),
                    ["time", "actual"] + [m.name for m in models] + ["ensemble"],
                    labels,
                    np.column_stack([actuals]
                                    + [m.holdout_forecast for m in models]
                                    + [ensemble_path]))
    return labels


def _complete(config, out_dir, matrix):
    """Mask and complete the loaded panel; write its artifacts and recovery.

    Returns (completed, recovery): the completed panel and the recovery
    report (None when no cell was erased).
    """
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
    return completed, recovery


def _pipeline(config, out_dir):
    """Shared stages of run/ablate: load, build the task, complete, write
    truth, fit, ensemble."""
    matrix, truth = _load_input(config)
    # Completion keeps the panel's rows and columns, so the task built from
    # the loaded panel is the completed one's, and a bad task fails before
    # any artifact is written.
    task = _build_task(config, matrix)
    completed, _ = _complete(config, out_dir, matrix)
    if truth is not None:
        save_csv(truth, os.path.join(out_dir, "truth.csv"))
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
    print(f"synth: wrote {masked.n_rows}x{masked.n_cols} panel to {out_dir} "
          f"({masked.observed_count()} observed cells)")


def cmd_impute(config, out_dir):
    """Complete a sparse panel and report recovery quality when truth exists."""
    _, recovery = _complete(config, out_dir, _load_input(config)[0])
    if recovery is not None:
        print(f"impute: copula MAE {recovery['copula_mae']:.4f} vs "
              f"mean-imputation MAE {recovery['mean_imputation_mae']:.4f} "
              f"over {recovery['cells']} erased cells")
    print(f"impute: wrote completed panel to {out_dir}")


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
    ens_mean = report.mean_mape["ensemble"]
    ens_std = report.std_mape["ensemble"]
    print(f"run: ensemble Mean-MAPE {ens_mean:.2f}% +/-{ens_std:.2f}% over "
          f"{len(labels)} periods; artifacts in {out_dir}")


def cmd_ablate(config, out_dir):
    """Run the pipeline, then score every merit-ordered ensemble prefix."""
    if len(config["roster"]) < 2:
        raise ConfigError("ablate needs a roster of at least 2 models")
    result = _pipeline(config, out_dir)
    rows = ablation(result["models"], result["task"], result["actuals"])
    ablation_to_csv(rows, os.path.join(out_dir, "ablation.csv"))
    first, last = rows[0][2], rows[-1][2]
    print(f"ablate: {len(rows)} prefixes; MAPE first {first:.3f}% -> "
          f"last {last:.3f}%; wrote {out_dir}/ablation.csv")


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
        handler(config, out_dir)
        write_json(config, os.path.join(out_dir, "config.json"))
        return 0
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
