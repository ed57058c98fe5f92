"""The benchmark's workloads: CLI argument lists, grids and sizes.

Each workload is one ``omp_lab.cli.main`` invocation.  The grids are
fixed; only ``--seed`` (simulations) or the sweep offset (bound sweep)
comes from the benchmark seed, so the reference tables under
``reference/`` cover every input a seed can produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

N = 1024
CASE_LABELS = {"flat": "flat", "decay11": "decay1.1", "decay12": "decay1.2", "gauss": "gauss1"}
ALL_CASES = tuple(CASE_LABELS)
FORMATS = "csv,json,svg"

# Bound-sweep grid: m = 100+offset, 100+offset+step, ... up to 1000, where
# the offset is the seed modulo the step.
BOUND_LO, BOUND_HI, BOUND_STEP, BOUND_K, BOUND_PHI = 100, 1000, 16, 30, "gauss"

# Smoke mode (self-test): every workload at tiny size.
SMOKE_TRIALS, SMOKE_BOUND_STEP = 4, 150


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str  # "simulate" or "bound"
    m_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    cases: Tuple[str, ...]
    trials: int  # per grid point and repetition; 0 for the bound sweep

    def argv(self, seed: int, threads: int, smoke: bool = False) -> List[str]:
        """CLI arguments for one repetition (``--out-dir`` excluded)."""
        if self.subcommand == "bound":
            step = SMOKE_BOUND_STEP if smoke else BOUND_STEP
            return [
                "bound", "--m-sweep", f"{BOUND_LO + seed % step}:{step}:{BOUND_HI}", "--K", str(BOUND_K),
                "--phi", BOUND_PHI, "--formats", FORMATS,
            ]
        lo, hi = self.m_values[0], self.m_values[-1]
        step = self.m_values[1] - lo
        argv = ["simulate", "--m-sweep", f"{lo}:{step}:{hi}"]
        for K in self.k_values:
            argv += ["--K", str(K)]
        for case in self.cases:
            argv += ["--case", case]
        argv += ["--trials", str(self.point_trials(smoke)), "--seed", str(seed), "--threads", str(threads),
                 "--formats", FORMATS]
        return argv

    def bound_m_values(self, seed: int, smoke: bool = False) -> List[int]:
        step = SMOKE_BOUND_STEP if smoke else BOUND_STEP
        return list(range(BOUND_LO + seed % step, BOUND_HI + 1, step))

    def point_trials(self, smoke: bool = False) -> int:
        return SMOKE_TRIALS if smoke else self.trials

    def units_of_work(self, seed: int, smoke: bool = False) -> int:
        """Trials (simulations) or grid points (bound sweep) per repetition."""
        if self.subcommand == "bound":
            return len(self.bound_m_values(seed, smoke))
        return len(self.m_values) * len(self.k_values) * len(self.cases) * self.point_trials(smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-large-m",
            why="few large-m points where matrix draw and OMP dominate; where an m-independent sampler shows",
            subcommand="simulate",
            m_values=(700, 800, 900, 1000),
            k_values=(30,),
            cases=("flat", "gauss"),
            trials=16,
        ),
        Workload(
            name="sim-transition",
            why="72 cheap points across the phase transition; pool barrier, serial bounds and failed-trial waste show",
            subcommand="simulate",
            m_values=tuple(range(100, 301, 25)),
            k_values=(15, 30),
            cases=ALL_CASES,
            trials=8,
        ),
        Workload(
            name="bound-sweep",
            why="dense m-sweep of both bounds with no Monte Carlo; bounds and phi do nearly all the work",
            subcommand="bound",
            m_values=(),
            k_values=(BOUND_K,),
            cases=(),
            trials=0,
        ),
    )
}
