"""Span tracing and the traced replica of the CLI pipeline.

The replica calls the public functions of each copulacast module in the
order `cli._pipeline` / `cmd_run` and `cmd_impute` call them, with a span
around each layer boundary, and writes the same artifacts.  The benchmark
byte-compares those artifacts with the CLI's own output for the same input,
so the per-layer numbers describe the program the end-to-end numbers time.
Nothing inside the package is instrumented.
"""

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from copulacast.copula import em_fit, fit_marginals, impute, row_constraints
from copulacast.dataset import (Schema, apply_mask, gen_seasonal_load, load_csv,
                                mask_record_to_file, save_csv)
from copulacast.ensemble import run_ensemble
from copulacast.evaluation import build_report
from copulacast.forecasters import FORECASTERS, ForecastTask

ROOT_SPAN = "cli"
CONSTRAINTS_SPAN = "copula.constraints"


@dataclass(frozen=True)
class Span:
    """One closed span; parent is the index of the enclosing span or None."""

    name: str
    start: float
    end: float
    parent: object
    run_id: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans of one replica share a run id."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def to_json(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id} for s in self.spans]


def self_time(spans, index):
    """Duration of spans[index] minus the part its children's spans cover."""
    span = spans[index]
    pieces = sorted((max(c.start, span.start), min(c.end, span.end))
                    for c in spans if c.parent == index)
    covered = 0.0
    lo = hi = None
    for a, b in pieces:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        covered += hi - lo
    return span.duration - covered


def layer_seconds(spans, run_id):
    """Summed span duration per name, plus the root span's self time."""
    out = {}
    for i, s in enumerate(spans):
        if s.run_id != run_id:
            continue
        out[s.name] = out.get(s.name, 0.0) + s.duration
        if s.name == ROOT_SPAN:
            out["cli.self"] = self_time(spans, i)
    return out


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _recovery(truth_values, masked, completed, record):
    """MAE over the erased cells: copula reconstruction vs column means."""
    col_means = np.array([
        masked.values[masked.mask[:, j], j].mean() if masked.mask[:, j].any()
        else np.nan
        for j in range(masked.n_cols)])
    err_copula, err_mean = [], []
    for r, c in record.erased_cells:
        err_copula.append(abs(completed.values[r, c] - truth_values[r, c]))
        err_mean.append(abs(col_means[c] - truth_values[r, c]))
    return {"cells": len(record.erased_cells),
            "copula_mae": float(np.mean(err_copula)),
            "mean_imputation_mae": float(np.mean(err_mean))}


def _task(config, completed):
    task_cfg = config["task"]
    if task_cfg.get("features", "all") != "all":
        raise ValueError("the replica supports task.features == 'all' only")
    target = completed.column_index(task_cfg["target"])
    horizon = int(task_cfg["horizon"])
    n_val = int(task_cfg["validation_periods"])
    stop = completed.n_rows - horizon - n_val
    return ForecastTask(target_column=target, horizon=horizon,
                        train_range=(0, stop),
                        validation_range=(stop, stop + n_val),
                        feature_columns=tuple(j for j in range(completed.n_cols)
                                              if j != target))


def _fit(entry, task, completed, seed):
    hyper = {k: v for k, v in entry.items() if k != "name"}
    if entry["name"] in ("tcn", "trmf") and "seed" not in hyper:
        hyper["seed"] = seed
    hyper = {k: (tuple(v) if isinstance(v, list) else v) for k, v in hyper.items()}
    return FORECASTERS[entry["name"]](task, completed, **hyper)


def _write_forecasts(path, task, completed, actuals, models, ensemble_path):
    labels = [completed.time_index[t].isoformat() for t in task.holdout_indices]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "actual"] + [m.name for m in models] + ["ensemble"])
        for i, label in enumerate(labels):
            row = [label, repr(float(actuals[i]))]
            row.extend(repr(float(m.holdout_forecast[i])) for m in models)
            row.append(repr(float(ensemble_path[i])))
            writer.writerow(row)
    return labels


def replicate(command, config, tracer):
    """Run `command` ("run" or "impute") through public calls, traced.

    `config` is the CLI's resolved config; artifacts go to config["out"].
    Returns the per-run counts the spans cannot carry.
    """
    out = config["out"]
    seed = int(config["seed"])
    fraction = float(config["mask"]["fraction"])
    if fraction <= 0.0 or int(config.get("jobs", 1)) != 1:
        raise ValueError("the replica supports masked, single-job configs only")
    counts = {"dataset.bytes_written": 0}

    def path(name):
        return os.path.join(out, name)

    def save(write, obj, name):
        with tracer.span("dataset.save"):
            write(obj, path(name))
        counts["dataset.bytes_written"] += os.path.getsize(path(name))

    with tracer.span(ROOT_SPAN):
        os.makedirs(out, exist_ok=True)
        with tracer.span("dataset.load"):
            if "csv" in config["data"]:
                source = config["data"]["csv"]
                schema = Schema(columns=dict(source["columns"]),
                                ordinal_levels={k: tuple(v) for k, v in
                                                source.get("ordinal_levels", {}).items()})
                matrix, truth = load_csv(source["path"], schema), None
            else:
                truth = gen_seasonal_load(seed=seed, **config["data"]["synthetic"])
                matrix = truth.copy()
        with tracer.span("dataset.mask"):
            masked, record = apply_mask(matrix, fraction, seed)
        copula_cfg = config["copula"]
        with tracer.span("copula.em_fit"):
            model = em_fit(masked, max_iters=int(copula_cfg.get("max_iters", 100)),
                           tol=float(copula_cfg.get("tol", 1e-4)),
                           ridge=float(copula_cfg.get("ridge", 1e-8)))
        with tracer.span("copula.impute"):
            completed = impute(model, masked)
        counts["copula.em_iters"] = len(model.em_trace)
        save(save_csv, masked, "data.csv")
        if command == "impute":
            save(save_csv, completed, "completed.csv")
            model.save(path("copula_model.json"))
            save(mask_record_to_file, record, "mask.json")
            _write_json(_recovery(matrix.values, masked, completed, record),
                        path("recovery.json"))
        else:
            save(save_csv, truth, "truth.csv")
            save(save_csv, completed, "completed.csv")
            save(mask_record_to_file, record, "mask.json")
            model.save(path("copula_model.json"))
            _write_json(_recovery(matrix.values, masked, completed, record),
                        path("recovery.json"))
            counts.update(_bank_and_report(config, tracer, completed, truth, path))
        _write_json(config, path("config.json"))
    with tracer.span(CONSTRAINTS_SPAN):
        constraints = row_constraints(masked, fit_marginals(masked))
    counts["copula.rows"] = len(constraints)
    counts["copula.interval_rows"] = sum(1 for c in constraints if c.intervals)
    counts["copula.missing_patterns"] = len({c.missing for c in constraints})
    return counts


def _bank_and_report(config, tracer, completed, truth, path):
    """The `cmd_run` tail: fit the roster, ensemble, write and report."""
    task = _task(config, completed)
    models = []
    with tracer.span("forecasters.bank"):
        for entry in config["roster"]:
            with tracer.span(f"forecasters.{entry['name']}.fit"):
                models.append(_fit(entry, task, completed, int(config["seed"])))
    with tracer.span("ensemble.run"):
        forecasts, _, trace = run_ensemble(models, task)
    lo = task.validation_stop
    actuals = truth.values[lo:lo + task.horizon, task.target_column]
    labels = _write_forecasts(path("forecasts.csv"), task, completed, actuals,
                              models, forecasts)
    trace.to_csv(path("convergence_trace.csv"))
    with open(path("models.json"), "w") as fh:
        json.dump([m.to_json() for m in models], fh, indent=2, sort_keys=True)
        fh.write("\n")
    columns = {m.name: m.holdout_forecast for m in models}
    columns["ensemble"] = forecasts
    with tracer.span("evaluation.report"):
        report = build_report(actuals, columns, ensemble_name="ensemble",
                              period_labels=labels)
    report.save_json(path("report.json"))
    report.to_csv(path("report.csv"))
    counts = {}
    for m in models:
        counts[f"forecasters.{m.name}.rounds"] = m.n_rounds
        counts[f"forecasters.{m.name}.best_round"] = int(np.argmin(m.round_errors)) + 1
    return counts
