"""Command-line driver for end-to-end experiments.

Subcommands: synth (write a synthetic panel), impute (complete a sparse
panel), run (full pipeline through the ensemble and report), ablate (run
plus the prefix-ablation path), eval (recompute statistics from stored
forecast files).  Every command is a pure function of its resolved config
and input files; reruns write byte-identical artifacts.
"""

import argparse
import copy
import inspect
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .copula import CopulaModel, complete
from .dataset import (MISSING_TOKENS, Schema, apply_mask, gen_seasonal_load,
                      load_csv, mask_record_to_file, read_table, save_csv,
                      write_float_csv, write_json)
from .ensemble import ablation, ablation_to_csv, run_ensemble
from .errors import ConfigError, CopulacastError, DataError, EvaluationError
from .evaluation import build_report
from .forecasters import FORECASTERS, ForecastTask


def _keywords(fn):
    """fn's keyword defaults by name, in signature order."""
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


ENSEMBLE = "ensemble"  # run's ensemble column, which eval compares against

# The schema of the config: every key a run accepts, with its default.
# The copula section is complete's keywords and the synthetic source is
# the generator's, less the seed, which the CLI passes itself.
DEFAULT_CONFIG = {
    "seed": 11,
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
    "roster": [{"name": name} for name in FORECASTERS],
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
    (mask.fraction, the task span and features, data.csv, roster) pass
    their own checks.
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
    a boolean), a float default a finite number, a bool default a boolean,
    a str default a string, a tuple of ints (lags) a non-empty list of
    positive integers and a tuple of pairs (layer shapes) a non-empty list
    of [int, int] pairs of positive integers.  A None default is not
    checked.
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
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
        what = "a finite number"
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
    for k, entry in enumerate(roster):
        _require_object(entry, "each roster entry")
        name = entry.get("name")
        if not isinstance(name, str) or name not in FORECASTERS:
            raise ConfigError(f"unknown forecaster {name!r}; known: "
                              f"{sorted(FORECASTERS)}")
        # A model's name labels its forecasts and report columns.
        if any(earlier["name"] == name for earlier in roster[:k]):
            raise ConfigError(f"roster names must be unique; {name!r} "
                              "appears more than once")
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
        try:
            _csv_schema(source)
        except DataError as exc:
            raise ConfigError(f"data.csv: {exc}") from None


def _csv_schema(source):
    return Schema(source["columns"], source.get("ordinal_levels", {}))


def _load_input(config):
    """Materialize the input panel, before any mask."""
    data = config["data"]
    if "csv" in data:
        source = data["csv"]
        return load_csv(source["path"], _csv_schema(source))
    return gen_seasonal_load(seed=config["seed"], **data["synthetic"])


def _mask_stage(config, matrix):
    fraction = config["mask"]["fraction"]
    if fraction <= 0.0:
        return matrix, None
    return apply_mask(matrix, fraction, config["seed"])


def _build_task(config, matrix):
    task_cfg = config["task"]

    def column(key, name):
        try:
            return matrix.column_index(name)
        except DataError as exc:
            raise DataError(f"task.{key}: {exc}") from None

    target = task_cfg["target"]
    target_idx = column("target", target)
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
        feature_idx = tuple(column("features", f) for f in features)
        if target_idx in feature_idx or len(set(feature_idx)) < len(feature_idx):
            raise ConfigError("task.features must name distinct columns other "
                              f"than task.target {target!r}, got "
                              f"{json.dumps(features)}")
    return ForecastTask(target_column=target_idx, horizon=horizon,
                        train_range=(0, train_stop),
                        validation_range=(train_stop, train_stop + n_val),
                        feature_columns=feature_idx)


def _fit_roster(config, task, completed):
    """Fit every roster entry, in roster order.

    Floating-point warnings are off: a diverging fit fails its own
    finiteness checks, which give the one error line.  A fitter's
    CopulacastError or ValueError is raised again as its own kind, its
    message led by "roster.<name>: ".
    """
    models = []
    for entry in config["roster"]:
        fit = FORECASTERS[entry["name"]]
        hyper = {k: v for k, v in entry.items() if k != "name"}
        if "seed" in _keywords(fit):
            hyper.setdefault("seed", config["seed"])
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                models.append(fit(task, completed, **hyper))
        except CopulacastError as exc:
            raise type(exc)(f"roster.{entry['name']}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"roster.{entry['name']}: {exc}") from None
    return models


def _recovery_report(truth_values, masked, completed, record):
    """MAE over the erased cells: copula reconstruction vs column means;
    None when no cell was erased."""
    if record is None or not record.erased_cells:
        return None
    col_means = np.array([_mean(masked.values[masked.mask[:, j], j])
                          for j in range(masked.n_cols)])
    rows, cols = np.array(record.erased_cells).T
    true_values = truth_values[rows, cols]
    return {"cells": len(record.erased_cells),
            "copula_mae": float(_mean(np.abs(completed.values[rows, cols]
                                             - true_values))),
            "mean_imputation_mae": float(_mean(np.abs(col_means[cols]
                                                      - true_values)))}


def _mean(x):
    """x.mean(), or max|x| * mean(x / max|x|) when the plain sum overflows:
    values near the float64 limit then still give a finite mean."""
    with np.errstate(over="ignore"):
        mean = x.mean()
    if np.isfinite(mean):
        return mean
    scale = np.abs(x).max()
    return scale * (x / scale).mean()


def _unscored_note(scored, total):
    """Raise unless at least 2 of the total holdout periods have an actual;
    return the stdout note on the others, empty when there are none."""
    if scored < 2:
        raise EvaluationError(f"{scored} of {total} holdout periods have an "
                              "actual; scoring needs at least 2")
    if scored == total:
        return ""
    return f"; {total - scored} periods without an actual not scored"


def _complete(config, matrix):
    """Mask and complete the loaded panel, writing nothing.

    Returns (masked, record, model, completed): record is None when the
    config masks nothing; when no cell is missing, model is None and the
    masked panel is its own completion.
    """
    masked, record = _mask_stage(config, matrix)
    if masked.mask.all():
        return masked, record, None, masked
    return (masked, record) + complete(masked, **config["copula"])


def _write_panels(config, out_dir, matrix, masked, record, model=None,
                  completed=None):
    """Write synth's files and, given a completion, impute's; a file whose
    object is None (truth of a CSV source, no mask, no fit, no erased cell)
    is not written.  Returns the recovery report, None without one."""
    recovery = (None if completed is None else
                _recovery_report(matrix.values, masked, completed, record))
    truth = matrix if "synthetic" in config["data"] else None
    for name, obj, write in (("truth.csv", truth, save_csv),
                             ("data.csv", masked, save_csv),
                             ("mask.json", record, mask_record_to_file),
                             ("completed.csv", completed, save_csv),
                             ("copula_model.json", model, CopulaModel.save),
                             ("recovery.json", recovery, write_json)):
        if obj is not None:
            write(obj, os.path.join(out_dir, name))
    return recovery


def cmd_synth(config, out_dir):
    """Write the synthetic panel (and its masked variant when configured)."""
    if "synthetic" not in config["data"]:
        raise ConfigError("synth requires a synthetic data source")
    matrix = _load_input(config)
    masked, record = _mask_stage(config, matrix)
    _write_panels(config, out_dir, matrix, masked, record)
    print(f"synth: wrote {masked.n_rows}x{masked.n_cols} panel to {out_dir} "
          f"({int(masked.mask.sum())} observed cells)")


def cmd_impute(config, out_dir):
    """Complete a sparse panel and report recovery quality when truth exists."""
    matrix = _load_input(config)
    recovery = _write_panels(config, out_dir, matrix,
                             *_complete(config, matrix))
    if recovery is not None:
        print(f"impute: copula MAE {recovery['copula_mae']:.6g} vs "
              f"mean-imputation MAE {recovery['mean_imputation_mae']:.6g} "
              f"over {recovery['cells']} erased cells")
    print(f"impute: wrote completed panel to {out_dir}")


def cmd_run(config, out_dir, ablate=False):
    """Full pipeline: load, complete, fit the bank, ensemble, evaluate;
    with ablate, also score every merit-ordered ensemble prefix.

    The holdout actuals are the loaded panel's, never imputed values: NaN
    marks a period whose target is missing in the input, which is not
    scored, and fewer than two scored periods is an EvaluationError.
    Nothing is written until every stage has succeeded; then impute's
    files, run's and (with ablate) ablation.csv are written.
    """
    matrix = _load_input(config)
    # Completion keeps the panel's rows and columns, so the task built from
    # the loaded panel is the completed one's.
    task = _build_task(config, matrix)
    lo = task.validation_stop
    actuals = matrix.values[lo:lo + task.horizon, task.target_column]
    scored = ~np.isnan(actuals)
    note = _unscored_note(int(scored.sum()), task.horizon)
    masked, record, model, completed = _complete(config, matrix)
    models = _fit_roster(config, task, completed)
    forecasts, _, trace = run_ensemble(models, task)
    labels = [completed.time_index[t].isoformat() for t in task.holdout_indices]
    columns = {m.name: m.holdout_forecast[scored] for m in models}
    columns[ENSEMBLE] = forecasts[scored]
    report = build_report(actuals[scored], columns, ensemble_name=ENSEMBLE,
                          period_labels=[l for l, s in zip(labels, scored) if s])
    rows = ablation(models, task, actuals) if ablate else None
    # The write point: every stage has succeeded.
    _write_panels(config, out_dir, matrix, masked, record, model, completed)
    values = np.column_stack([actuals] + [m.holdout_forecast for m in models]
                             + [forecasts])
    write_float_csv(os.path.join(out_dir, "forecasts.csv"),
                    ["time", "actual"] + [m.name for m in models] + [ENSEMBLE],
                    labels, values)
    trace.to_csv(os.path.join(out_dir, "convergence_trace.csv"))
    write_json([m.to_json() for m in models],
               os.path.join(out_dir, "models.json"))
    report.save_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    print(f"run: ensemble Mean-MAPE {report.mean_mape[ENSEMBLE]:.2f}% "
          f"+/-{report.std_mape[ENSEMBLE]:.2f}% over "
          f"{len(report.period_labels)} periods{note}; artifacts in {out_dir}")
    if rows is not None:
        ablation_to_csv(rows, os.path.join(out_dir, "ablation.csv"))
        print(f"ablate: {len(rows)} prefixes; MAPE first {rows[0][2]:.3f}% "
              f"-> last {rows[-1][2]:.3f}%{note}; wrote {out_dir}/ablation.csv")


def cmd_ablate(config, out_dir):
    """run plus the MAPE of every merit-ordered ensemble prefix."""
    if len(config["roster"]) < 2:
        raise ConfigError("ablate needs a roster of at least 2 models")
    cmd_run(config, out_dir, ablate=True)


def cmd_eval(forecasts_path, actuals_path, out_dir):
    """Recompute the statistics table from stored forecast/actual files.

    A period whose actual field is empty or a missing token (NA, NaN, nan),
    as load_csv reads a cell, is not scored.
    """
    f_header, f_body = read_table(forecasts_path)
    a_header, a_body = read_table(actuals_path)
    if len(a_header) < 2:
        raise DataError(f"{actuals_path}: need a time column and a value column")
    if [r[0] for _, r in f_body] != [r[0] for _, r in a_body]:
        raise DataError("forecast and actual files disagree on periods")
    pairs = [(f, a[1]) for (_, f), (_, a) in zip(f_body, a_body)
             if a[1].strip() not in MISSING_TOKENS]
    note = _unscored_note(len(pairs), len(f_body))
    try:
        actuals = np.array([float(a) for _, a in pairs])
    except ValueError:
        raise DataError(f"{actuals_path}: non-numeric value column") from None
    model_cols = [c for c in f_header[1:] if c != "actual"]
    if ENSEMBLE not in model_cols:
        raise DataError(f"forecasts file lacks an {ENSEMBLE!r} column")
    forecasts = {}
    for name in model_cols:
        j = f_header.index(name)
        try:
            forecasts[name] = np.array([float(f[j]) for f, _ in pairs])
        except ValueError:
            raise DataError(f"{forecasts_path}: non-numeric column {name!r}") from None
    report = build_report(actuals, forecasts, ensemble_name=ENSEMBLE,
                          period_labels=[f[0] for f, _ in pairs])
    report.save_json(os.path.join(out_dir, "report.json"))
    report.to_csv(os.path.join(out_dir, "report.csv"))
    print(f"eval: {len(pairs)} periods, {len(model_cols)} columns{note}; "
          f"{ENSEMBLE} Mean-MAPE {report.mean_mape[ENSEMBLE]:.2f}%; "
          f"report in {out_dir}")


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
    p_eval.add_argument("--out", default="out", help="output directory")
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # A warning shown while the command runs is one line, without the
    # source path and line number of Python's own format.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if args.command == "eval":
            os.makedirs(args.out, exist_ok=True)
            cmd_eval(args.forecasts, args.actuals, args.out)
            return 0
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
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
