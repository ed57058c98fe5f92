#!/usr/bin/env python3
"""Regenerate the reference tables under ``perfbench/reference/``.

    python3 perfbench/make_reference.py [NAME ...]

Writes, from the code under ``src/``:

- ``sim-large-m.csv`` and ``sim-transition.csv``: each workload's grid at
  ``REF_TRIALS`` trials per point with seed ``REF_SEED``.  The bound
  columns are exact references; the tallies are the reference side of the
  two-proportion test in checks.py.
- ``bound-sweep.csv``: both bounds at every m the bound sweep can reach
  (every seed offset), so any ``--seed`` is covered.

Takes about six minutes on two cores; give names to regenerate only
some tables.  Only rerun it when the bounds
are meant to change; the tally reference must come from a trusted
sampler.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run
from workloads import BOUND_HI, BOUND_K, BOUND_LO, BOUND_PHI, WORKLOADS

REF_TRIALS = 1000
REF_SEED = 7919
TIMEOUT_S = 1800.0


def produce(name: str, argv: list, artifact: str) -> None:
    out_dir = run.fresh_dir(f"reference-{name}")
    code, wall, _ = run.launch(
        [sys.executable, "-c", run.CLI_CODE, *argv], out_dir, run.program_env(), TIMEOUT_S
    )
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}; see {out_dir / 'program.log'}")
    shutil.copyfile(out_dir / artifact, checks.REFERENCE_DIR / f"{name}.csv")
    print(f"{name}: {wall:.1f} s")


def main(names: list) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    names = names or list(WORKLOADS)
    for name in ("sim-large-m", "sim-transition"):
        if name not in names:
            continue
        argv = WORKLOADS[name].argv(REF_SEED, run.thread_count())
        argv[argv.index("--trials") + 1] = str(REF_TRIALS)
        argv[argv.index("--formats") + 1] = "csv"
        produce(name, argv, "results.csv")
    if "bound-sweep" in names:
        produce(
            "bound-sweep",
            ["bound", "--m-sweep", f"{BOUND_LO}:1:{BOUND_HI}", "--K", str(BOUND_K),
             "--phi", BOUND_PHI, "--formats", "csv"],
            "bounds.csv",
        )
    shutil.rmtree(run.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
