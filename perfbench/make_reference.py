"""Regenerate reference.json: invocation 0 of every workload at seed 11.

    python3 perfbench/make_reference.py

Run only when a change is meant to alter the reference outputs, and say
so in the change's notes; run.py fails an invocation at seed 11 whose
quality numbers drift from these beyond checks.REFERENCE_REL_TOL.
"""

import json
import os
import shutil
import sys

from run import BENCH_DIR, SRC, WORK_ROOT, invoke

sys.path.insert(0, SRC)

import checks  # noqa: E402
from copulacast.cli import main as cli_main  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, prepare  # noqa: E402


def main():
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        work = os.path.join(WORK_ROOT, f"reference-{name}")
        shutil.rmtree(work, ignore_errors=True)
        out_dir = os.path.join(work, "out")
        inv = invoke(cli_main, prepare(workload, REFERENCE_SEED,
                                       os.path.join(work, "input"), out_dir))
        problems = (checks.invocation_problems(inv.rc, inv.stderr, inv.traceback)
                    or checks.output_problems(workload.command, out_dir))
        if problems:
            sys.exit(f"{name}: {problems}")
        reference[name] = checks.reference_entry(workload.command, out_dir)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
