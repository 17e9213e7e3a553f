"""copulacast benchmark: times the real CLI and checks its outputs.

    python3 perfbench/run.py --workload run_default --seed 11 --seconds 20 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  With --trace 0 the CLI is invoked in-process, once to warm up and
then repeatedly for --seconds, and the end-to-end metrics are printed.  With
--trace 1 each timed CLI invocation is followed by a traced replica of the
same pipeline on the same input (see tracing.py), the two runs' artifacts are
byte-compared, and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Working files go to .perfbench_work/ at the repository root.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH_DIR = os.path.join(REPO, "perfbench")
WORK_ROOT = os.path.join(REPO, ".perfbench_work")

SETUP_PROBES = 3
MIN_TRACE_PAIRS = 2
SUBPROCESS_TIMEOUT_S = 120
SETUP_PROBE = ("import time; t = time.perf_counter(); import copulacast.cli; "
               "print(repr(time.perf_counter() - t))")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "impute_mae_ratio": "ratio",
}
# printed in the summary, not in the result line: impute_ordinal has no
# ensemble, and failed_share reads 0 when nothing fails
SUMMARY_ONLY = {"ensemble_mape_pct": "%", "failed_share": "share"}
MODELS = ("naive_seasonal", "ridge_ar", "trmf", "gbt", "tcn")
ROUND_MODELS = ("trmf", "gbt", "tcn")
PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.mask_s": "s",
    "dataset.save_s": "s",
    "dataset.bytes_written": "bytes",
    "copula.constraints_s": "s",
    "copula.em_fit_s": "s",
    "copula.em_iters": "count",
    "copula.em_iter_s": "s",
    "copula.impute_s": "s",
    "copula.rows": "count",
    "copula.interval_rows": "count",
    "copula.missing_patterns": "count",
    **{f"forecasters.{m}.fit_s": "s" for m in MODELS},
    "forecasters.bank_s": "s",
    **{f"forecasters.{m}.{k}": "count" for m in ROUND_MODELS
       for k in ("rounds", "best_round")},
    "ensemble.run_s": "s",
    "evaluation.report_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# per-layer seconds metric -> span name summed per traced run
SPAN_OF = {name: name[:-2] for name, unit in PER_LAYER.items()
           if unit == "s" and name not in ("copula.em_iter_s", "trace.overhead_s")}


@dataclass
class Tally:
    """Attempted and failed operations of one benchmark run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    byte_changes: int = 0
    warnings: dict = field(default_factory=dict)

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"invocation": label, "problems": problems})
        return not problems


@dataclass
class Invocation:
    rc: object
    seconds: float
    stderr: str
    traceback: str
    warnings: list


def invoke(main, argv):
    """One in-process CLI invocation; only the main() call is timed."""
    out, err = io.StringIO(), io.StringIO()
    tb = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a counted failure, not a harness abort
            rc = None
            tb = traceback.format_exc()
        seconds = time.perf_counter() - start
    return Invocation(rc, seconds, err.getvalue(), tb,
                      [type(w.message).__name__ for w in caught])


def _setup_seconds(tally):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    values = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=REPO, env=env,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        problems = [] if proc.returncode == 0 else [
            f"import probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        if tally.record(f"setup probe {k}", problems):
            values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def _check(tally, workload, seed, inv, out_dir):
    import checks
    from workloads import REFERENCE_SEED

    for name in inv.warnings:
        tally.warnings[name] = tally.warnings.get(name, 0) + 1
    problems = checks.invocation_problems(inv.rc, inv.stderr, inv.traceback)
    if not problems:
        problems = checks.output_problems(workload.command, out_dir)
    if not problems and seed == REFERENCE_SEED:
        with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
            reference = json.load(fh)[workload.name]
        ref_problems, changed = checks.compare_reference(workload.command, out_dir,
                                                         reference)
        problems.extend(ref_problems)
        tally.byte_changes += changed
    return tally.record(f"seed {seed}", problems)


def _invoke_checked(main, workload, seed, work, tally):
    """Write the inputs for CLI seed `seed`, invoke the CLI, check its output."""
    from workloads import prepare

    out_dir = os.path.join(work, "out")
    argv = prepare(workload, seed, os.path.join(work, "input"), out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    inv = invoke(main, argv)
    return argv, inv, _check(tally, workload, seed, inv, out_dir)


def timed_run(workload, seed, seconds, work, tally):
    import checks
    from workloads import invocation_seed

    setup = _setup_seconds(tally)
    from copulacast.cli import main

    samples, qualities, rss_mb, start = [], [], None, None
    i = 0
    while True:
        _, inv, ok = _invoke_checked(main, workload, invocation_seed(seed, i), work,
                                     tally)
        if ok and i < workload.min_reps:
            qualities.append(checks.quality(workload.command,
                                            os.path.join(work, "out")))
        if i == 0:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            start = time.perf_counter()
        elif ok:
            samples.append(inv.seconds)
        i += 1
        if (time.perf_counter() - start >= seconds
                and (len(samples) >= workload.min_reps or tally.failures)):
            break
    metrics = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": statistics.median(samples) if samples else None,
        "peak_rss_mb": rss_mb,
        "impute_mae_ratio": (statistics.fmean(q["impute_mae_ratio"] for q in qualities)
                             if qualities else None),
    }
    detail = {"setup_s": setup, "wall_s": samples, "quality": qualities}
    if workload.command == "run" and qualities:
        detail["ensemble_mape_pct"] = statistics.fmean(
            q["ensemble_mape_pct"] for q in qualities)
    return metrics, detail


def traced_run(workload, seed, seconds, work, tally):
    import checks
    import tracing
    from copulacast.cli import build_parser, main, resolve_config
    from workloads import invocation_seed

    out_dir = os.path.join(work, "out")
    cli_dir = os.path.join(work, "out_cli")
    tracer = tracing.Tracer()
    pairs, counts = [], None
    i = 0
    while True:
        s = invocation_seed(seed, i)
        argv, inv, ok = _invoke_checked(main, workload, s, work, tally)
        if i == 0:
            start = time.perf_counter()
        elif ok:
            shutil.rmtree(cli_dir, ignore_errors=True)
            os.rename(out_dir, cli_dir)
            args = build_parser().parse_args(argv)
            config = resolve_config(args.config, seed=args.seed, out=args.out)
            tracer.run_id = s
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                try:
                    run_counts = tracing.replicate(workload.command, config, tracer)
                    problems = [f"replica artifact differs: {name}" for name in
                                checks.artifact_mismatches(cli_dir, out_dir)]
                except Exception:  # a crash is a counted failure
                    problems = ["replica traceback: " + traceback.format_exc()]
            if tally.record(f"replica seed {s}", problems):
                layers = tracing.layer_seconds(tracer.spans, s)
                layers["cli.wall"] = inv.seconds
                layers["copula.em_iters"] = run_counts["copula.em_iters"]
                pairs.append(layers)
                counts = counts or run_counts
        i += 1
        if (time.perf_counter() - start >= seconds
                and (len(pairs) >= MIN_TRACE_PAIRS or tally.failures)):
            break
    with open(os.path.join(work, "spans.json"), "w") as fh:
        json.dump(tracer.to_json(), fh)
    return per_layer_metrics(pairs, counts or {}), {"pairs": pairs, "counts": counts}


def per_layer_metrics(pairs, counts):
    """Medians over traced pairs for times; counts from the first pair."""
    def median_of(fn):
        return statistics.median(fn(p) for p in pairs) if pairs else None

    metrics = dict.fromkeys(PER_LAYER)
    for name, unit in PER_LAYER.items():
        if name in SPAN_OF:
            metrics[name] = median_of(lambda p: p.get(SPAN_OF[name], 0.0))
        elif unit != "s":
            metrics[name] = counts.get(name, 0)
    metrics["copula.em_iter_s"] = median_of(
        lambda p: p["copula.em_fit"] / p["copula.em_iters"])
    metrics["trace.overhead_s"] = median_of(lambda p: p["cli"] - p["cli.wall"])
    return metrics


def _openblas():
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    import numpy

    info = {"version": None, "threads": {}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"][os.path.basename(path)] = fn()
                break
    return info


def _git(*args):
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def _src_digest():
    import hashlib

    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(args):
    import numpy
    import scipy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": _openblas(),
        "git_commit": commit.strip() if commit else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "src_sha256": _src_digest(),
    }


def _summary(args, workload, metrics, detail, tally):
    units = PER_LAYER if args.trace else END_TO_END
    lines = [f"perfbench {workload.name} seed {args.seed} "
             f"({'traced' if args.trace else 'timed'}, {args.seconds:g} s)"]
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:34s} {shown:>12s} {units[name]}")
    if not args.trace:
        lines.append(f"  wall_s is the median of {len(detail['wall_s'])} timed "
                     f"invocations after 1 warm-up; setup_s the median of "
                     f"{len(detail['setup_s'])} fresh-interpreter imports")
        if "ensemble_mape_pct" in detail:
            lines.append(f"  {'ensemble_mape_pct':34s} "
                         f"{detail['ensemble_mape_pct']:12.6g} "
                         f"{SUMMARY_ONLY['ensemble_mape_pct']} "
                         f"(mean of the first {workload.min_reps} invocations)")
    else:
        lines.append(f"  per-layer seconds are medians over {len(detail['pairs'])} "
                     f"traced replicas; counts come from the first")
    failed = len(tally.failures)
    lines.append(f"  {'failed_share':34s} {failed / max(tally.attempted, 1):12.6g} "
                 f"{SUMMARY_ONLY['failed_share']} "
                 f"({failed} of {tally.attempted} operations)")
    lines.append(f"  {'reference_byte_changes':34s} {tally.byte_changes:12d} count")
    if tally.warnings:
        lines.append(f"  warnings raised: {tally.warnings}")
    for failure in tally.failures:
        lines.append(f"  FAILED {failure['invocation']}: {failure['problems']}")
    return "\n".join(lines)


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work = os.path.join(WORK_ROOT, f"{workload.name}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics, detail = run(workload, args.seed, args.seconds, work, tally)
    info = provenance(args)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not tally.failures and all(v is not None for v in metrics.values()),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"provenance": info, "result": result, "detail": detail,
                   "failures": tally.failures, "warnings": tally.warnings,
                   "reference_byte_changes": tally.byte_changes}, fh, indent=2)
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(_summary(args, workload, metrics, detail, tally))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "copulacast", "cli.py")):
        print(f"perfbench: no copulacast sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
