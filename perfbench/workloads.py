"""The benchmark's workloads: each turns a seed into one CLI invocation.

Invocation i of a run with workload seed S passes the CLI the seed
S + 1000*i, so every invocation in a run sees a fresh panel and the inputs
depend on S alone.  With S = 11 (the CLI's own default seed) invocation 0
is the one the stored reference values describe.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from copulacast.dataset import MarginalSpec, gen_copula_sample, save_csv
from copulacast.rng import rng_for

SEED_STRIDE = 1000
REFERENCE_SEED = 11

ORDINAL_ROWS = 150
ORDINAL_CONTINUOUS = 12
ORDINAL_COLUMNS = 4
ORDINAL_LEVELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Workload:
    """One CLI command and config; min_reps is the timed-sample floor.

    The first min_reps invocations (the warm-up included) also define the
    quality metrics, so those stay a function of the seed alone.
    """

    name: str
    command: str
    config: dict = field(default_factory=dict)
    min_reps: int = 3
    ordinal_input: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("run_default", "run", min_reps=10),
        Workload("impute_ordinal", "impute",
                 {"mask": {"fraction": 0.2}, "copula": {"max_iters": 3}},
                 min_reps=8, ordinal_input=True),
    )
}


def invocation_seed(seed, i):
    return seed + SEED_STRIDE * i


def random_correlation(rng, q):
    """Random correlation matrix, built as the acceptance tests build it."""
    a = rng.normal(size=(q, q))
    sigma = a @ a.T + 0.5 * np.eye(q)
    d = np.sqrt(np.diag(sigma))
    return sigma / np.outer(d, d)


def ordinal_panel(seed):
    """150x16 copula sample: 12 lognormal(0, 0.5) columns, 4 ordinal columns."""
    q = ORDINAL_CONTINUOUS + ORDINAL_COLUMNS
    sigma = random_correlation(rng_for(seed, "perfbench.correlation"), q)
    probs = (1.0 / len(ORDINAL_LEVELS),) * len(ORDINAL_LEVELS)
    specs = ([MarginalSpec("lognormal", (0.0, 0.5))] * ORDINAL_CONTINUOUS
             + [MarginalSpec("ordinal", levels=ORDINAL_LEVELS, probs=probs)]
             * ORDINAL_COLUMNS)
    return gen_copula_sample(sigma, specs, ORDINAL_ROWS, seed)


def prepare(workload, seed, work_dir, out_dir):
    """Write the invocation's input files under work_dir; return CLI argv."""
    os.makedirs(work_dir, exist_ok=True)
    config = json.loads(json.dumps(workload.config))
    if workload.ordinal_input:
        panel = ordinal_panel(seed)
        csv_path = os.path.join(work_dir, "input.csv")
        save_csv(panel, csv_path)
        config["data"] = {"csv": {
            "path": csv_path,
            "columns": dict(zip(panel.column_names, panel.column_kinds)),
            "ordinal_levels": {panel.column_names[j]: list(levels)
                               for j, levels in panel.ordinal_levels.items()}}}
    argv = [workload.command, "--seed", str(seed), "--out", out_dir]
    if config:
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        argv[1:1] = ["--config", config_path]
    return argv
