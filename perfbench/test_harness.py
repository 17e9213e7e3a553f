"""Tests of the benchmark harness itself (not of copulacast).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from copulacast.cli import main as cli_main, resolve_config  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """One real `copulacast run` at the reference seed."""
    base = tmp_path_factory.mktemp("bench")
    out = str(base / "out")
    argv = prepare(WORKLOADS["run_default"], 11, str(base / "input"), out)
    inv = run.invoke(cli_main, argv)
    assert checks.invocation_problems(inv.rc, inv.stderr, inv.traceback) == []
    return out


@pytest.fixture
def output_copy(run_output, tmp_path):
    dst = str(tmp_path / "out")
    shutil.copytree(run_output, dst)
    return dst


def test_clean_output_passes(output_copy):
    assert checks.output_problems("run", output_copy) == []


def test_perturbed_forecast_counts_as_failed(output_copy):
    path = os.path.join(output_copy, "forecasts.csv")
    lines = _read(path).splitlines()
    fields = lines[1].split(",")
    fields[3] = "nan"
    lines[1] = ",".join(fields)
    _write(path, "\n".join(lines) + "\n")
    assert any("non-finite" in p for p in checks.output_problems("run", output_copy))


def test_changed_observed_cell_counts_as_failed(output_copy):
    data = _read(os.path.join(output_copy, "data.csv")).splitlines()
    row = data[1].split(",")
    col = next(j for j in range(1, len(row)) if row[j])
    path = os.path.join(output_copy, "completed.csv")
    lines = _read(path).splitlines()
    fields = lines[1].split(",")
    fields[col] = repr(float(fields[col]) + 1.0)
    lines[1] = ",".join(fields)
    _write(path, "\n".join(lines) + "\n")
    assert any("observed cell" in p for p in checks.output_problems("run", output_copy))


def test_ensemble_worse_than_every_model_counts_as_failed(output_copy):
    path = os.path.join(output_copy, "report.json")
    report = json.loads(_read(path))
    report["mean_mape"]["ensemble"] = 1e9
    _write(path, json.dumps(report))
    assert any("ensemble MAPE" in p for p in checks.output_problems("run", output_copy))


def test_missing_artifact_counts_as_failed(output_copy):
    os.remove(os.path.join(output_copy, "recovery.json"))
    assert checks.output_problems("run", output_copy)


@pytest.mark.parametrize("rc, stderr, tb", [
    (1, "", ""),
    (0, "error[data]: bad panel\n", ""),
    (None, "", "Traceback (most recent call last):\n  ...\nValueError\n"),
])
def test_exit_error_line_and_traceback_count_as_failed(output_copy, rc, stderr, tb):
    tally = run.Tally()
    inv = run.Invocation(rc=rc, seconds=1.0, stderr=stderr, traceback=tb, warnings=[])
    assert not run._check(tally, WORKLOADS["run_default"], 1011, inv, output_copy)
    assert (tally.attempted, len(tally.failures)) == (1, 1)


def test_expected_warning_is_not_a_failure(output_copy):
    tally = run.Tally()
    inv = run.Invocation(rc=0, seconds=1.0, stderr="", traceback="",
                         warnings=["UserWarning"])
    assert run._check(tally, WORKLOADS["run_default"], 1011, inv, output_copy)
    assert tally.failures == [] and tally.warnings == {"UserWarning": 1}


def test_byte_change_is_counted_not_failed(output_copy):
    reference = checks.reference_entry("run", output_copy)
    path = os.path.join(output_copy, "forecasts.csv")
    lines = _read(path).splitlines()
    fields = lines[1].split(",")
    fields[2] = fields[2] + "0" if "e" not in fields[2] else fields[2]
    lines[1] = ",".join(fields)
    _write(path, "\n".join(lines) + "\n")
    problems, changed = checks.compare_reference("run", output_copy, reference)
    assert problems == [] and changed == 1


def test_quality_drift_from_reference_fails(output_copy):
    reference = checks.reference_entry("run", output_copy)
    reference["quality"]["ensemble_mape_pct"] *= 1.001
    problems, _ = checks.compare_reference("run", output_copy, reference)
    assert problems


def test_replica_reproduces_cli_artifacts(run_output, tmp_path):
    out = str(tmp_path / "out")
    config = resolve_config(None, seed=11, out=out)
    shutil.copytree(run_output, str(tmp_path / "cli"))
    # config.json records the output directory, so compare with the CLI's
    # config rewritten for this one
    _write(os.path.join(str(tmp_path / "cli"), "config.json"),
           json.dumps(config, indent=2, sort_keys=True) + "\n")
    tracer = tracing.Tracer()
    counts = tracing.replicate("run", config, tracer)
    assert checks.artifact_mismatches(str(tmp_path / "cli"), out) == []
    assert counts["copula.rows"] == 108 and counts["copula.interval_rows"] == 0
    names = {s.name for s in tracer.spans}
    assert {"cli", "copula.em_fit", "forecasters.gbt.fit", "evaluation.report",
            "copula.constraints"} <= names


def _span(name, start, end, parent=None, run_id=0):
    return tracing.Span(name, start, end, parent, run_id)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),       # overlaps a
        _span("c", 8.0, 12.0, parent=0),      # clipped to the parent's end
        _span("d", 1.5, 2.5, parent=1),       # grandchild: not the root's child
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracing.self_time(spans, 1) == pytest.approx(1.0)
    assert tracing.self_time(spans, 4) == pytest.approx(1.0)


def test_layer_seconds_sums_names_within_one_run():
    spans = [
        _span("cli", 0.0, 10.0, run_id=1),
        _span("dataset.save", 1.0, 2.0, parent=0, run_id=1),
        _span("dataset.save", 3.0, 3.5, parent=0, run_id=1),
        _span("cli", 20.0, 21.0, run_id=2),
    ]
    layers = tracing.layer_seconds(spans, 1)
    assert layers["dataset.save"] == pytest.approx(1.5)
    assert layers["cli"] == pytest.approx(10.0)
    assert layers["cli.self"] == pytest.approx(8.5)


def test_tracer_records_parents_and_run_id():
    tracer = tracing.Tracer()
    tracer.run_id = 7
    with tracer.span("cli"):
        with tracer.span("copula.em_fit"):
            pass
    with tracer.span("copula.constraints"):
        pass
    assert [(s.name, s.parent, s.run_id) for s in tracer.spans] == [
        ("cli", None, 7), ("copula.em_fit", 0, 7), ("copula.constraints", None, 7)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_per_layer_metrics_cover_every_name():
    pair = {"cli": 2.0, "cli.wall": 1.5, "cli.self": 0.1, "copula.em_fit": 1.0,
            "copula.em_iters": 4}
    metrics = run.per_layer_metrics([pair], {"copula.em_iters": 4})
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["copula.em_iter_s"] == pytest.approx(0.25)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["forecasters.gbt.fit_s"] == 0.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_layer_map_names_known_metrics_and_workloads():
    with open(os.path.join(HERE, "baseline.json")) as fh:
        doc = json.load(fh)
    end_to_end = set(run.END_TO_END) | set(run.SUMMARY_ONLY)
    for entry in doc["layer_map"]:
        assert set(entry["metrics"]) <= set(run.PER_LAYER), entry
        assert set(entry["moves"]) <= end_to_end, entry
        assert set(entry["workloads"]) <= set(WORKLOADS), entry
    mapped = {m for entry in doc["layer_map"] for m in entry["metrics"]}
    assert mapped == set(run.PER_LAYER)
    for workload, metrics in doc["baseline"]["workloads"].items():
        assert workload in WORKLOADS
        assert set(metrics) == set(run.END_TO_END)
