"""Output checks that decide whether one CLI invocation failed.

An invocation fails on a nonzero exit, an `error[...]` line, a traceback,
or an output that breaks a property every seed must satisfy: observed cells
pass through completed.csv unchanged, forecasts are finite, the copula beats
column-mean imputation, and the ensemble is no worse than the worst single
model.  At the reference seed the quality numbers must also match the
stored reference values; a byte-level change in the artifacts is counted
separately and is not a failure, because a roundoff-level change may be
allowed.
"""

import csv
import hashlib
import json
import math
import os

REFERENCE_REL_TOL = 1e-6
HASHED_ARTIFACTS = ("completed.csv", "forecasts.csv")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def invocation_problems(rc, stderr_text, traceback_text):
    """Problems visible without reading the artifacts."""
    problems = []
    if traceback_text or "Traceback (most recent call last)" in stderr_text:
        problems.append("traceback")
    if rc != 0:
        problems.append(f"exit code {rc}")
    errors = [line for line in stderr_text.splitlines() if line.startswith("error[")]
    if errors:
        problems.append(errors[0])
    return problems


def output_problems(command, out_dir):
    """Check the artifacts of one invocation; returns a list of problems."""
    try:
        return _output_problems(command, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _output_problems(command, out_dir):
    problems = []
    data = _read_csv(os.path.join(out_dir, "data.csv"))
    completed = _read_csv(os.path.join(out_dir, "completed.csv"))
    if len(data) != len(completed) or data[0] != completed[0]:
        problems.append("completed.csv does not match the shape of data.csv")
    else:
        for row_in, row_out in zip(data[1:], completed[1:]):
            if row_in[0] != row_out[0] or len(row_in) != len(row_out):
                problems.append("completed.csv rows do not align with data.csv")
                break
            if any(a and a != b for a, b in zip(row_in[1:], row_out[1:])):
                problems.append("an observed cell changed in completed.csv")
                break
            if not all(row_out[1:]):
                problems.append("completed.csv has an empty cell")
                break
    ratio = quality(command, out_dir)["impute_mae_ratio"]
    if not ratio < 1.0:
        problems.append(f"impute_mae_ratio {ratio!r} is not below 1")
    if command == "run":
        forecasts = _read_csv(os.path.join(out_dir, "forecasts.csv"))
        values = [float(v) for row in forecasts[1:] for v in row[1:]]
        if not values or not all(math.isfinite(v) for v in values):
            problems.append("forecasts.csv holds a non-finite or no value")
        mean_mape = _load_json(os.path.join(out_dir, "report.json"))["mean_mape"]
        worst = max(v for k, v in mean_mape.items() if k != "ensemble")
        if not mean_mape["ensemble"] <= worst:
            problems.append(f"ensemble MAPE {mean_mape['ensemble']!r} exceeds the "
                            f"worst single model's {worst!r}")
    return problems


def quality(command, out_dir):
    """Deterministic quality numbers of one invocation."""
    recovery = _load_json(os.path.join(out_dir, "recovery.json"))
    out = {"impute_mae_ratio": recovery["copula_mae"] / recovery["mean_imputation_mae"],
           "copula_mae": recovery["copula_mae"],
           "mean_imputation_mae": recovery["mean_imputation_mae"]}
    if command == "run":
        mean_mape = _load_json(os.path.join(out_dir, "report.json"))["mean_mape"]
        out["ensemble_mape_pct"] = mean_mape["ensemble"]
        out.update({f"mape_pct.{k}": v for k, v in mean_mape.items()
                    if k != "ensemble"})
    return out


def artifact_hashes(out_dir):
    hashes = {}
    for name in HASHED_ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def reference_entry(command, out_dir):
    """What the reference file stores for one workload at the reference seed."""
    return {"quality": quality(command, out_dir), "sha256": artifact_hashes(out_dir)}


def compare_reference(command, out_dir, reference):
    """Returns (problems, number of artifacts whose bytes changed)."""
    problems = []
    got = reference_entry(command, out_dir)
    for key, want in reference["quality"].items():
        have = got["quality"].get(key)
        if have is None or not math.isclose(have, want, rel_tol=REFERENCE_REL_TOL):
            problems.append(f"reference mismatch: {key} {have!r} vs {want!r} "
                            f"(rel tol {REFERENCE_REL_TOL})")
    changed = sum(1 for name, digest in reference["sha256"].items()
                  if got["sha256"].get(name) != digest)
    return problems, changed


def artifact_mismatches(dir_a, dir_b):
    """Names of files that differ in bytes, or exist in only one directory."""
    names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
    out = sorted(names_a ^ names_b)
    for name in sorted(names_a & names_b):
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                out.append(name)
    return out
