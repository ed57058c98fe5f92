#!/usr/bin/env python3
"""omp-lab benchmark: the real CLI on three workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sim-large-m --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --smoke

Every repetition is a fresh ``python3`` process running
``omp_lab.cli.main`` from ``src/`` with the BLAS thread variables set to
1 and ``--threads`` at most 2 and at most the core count, so a run never
asks for more threads than there are cores.  ``--trace 0`` repeats the
workload for ``--seconds`` and reports median wall time, throughput,
interpreter set-up time and peak resident memory.  ``--trace 1`` reports
per-layer metrics from traced ``--threads 1`` runs (see spans.py), plus
tracing overhead, scaling efficiency and an ungated probe with BLAS
threads left at their default.  Every repetition's artifacts are checked
(checks.py); the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_SCRIPT = Path(spans.__file__).resolve()
CLI_CODE = "import sys; from omp_lab.cli import main; sys.exit(main(sys.argv[1:]))"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REP_TIMEOUT_S = 150.0
MAX_THREADS = 2

FACTS_CODE = """
import ctypes, json, os, platform, numpy, scipy
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
threads = None
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        try:
            fn = getattr(ctypes.CDLL(lib), sym)
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
        break
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "nproc": os.cpu_count(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_libraries": [os.path.basename(lib) for lib in libs],
    "blas_default_threads": threads,
}))
"""


@dataclass
class Rep:
    """One program run: exit code, wall time, peak RSS of its process tree."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    out_dir: Path
    problems: List[str]

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def program_env(pin_blas: bool = True) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        if pin_blas:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def thread_count() -> int:
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def launch(
    args: Sequence[str], cwd: Path, env: Dict[str, str], timeout_s: float = REP_TIMEOUT_S
) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, peak RSS MB).

    ``os.wait4`` gives the resource usage of the child, whose peak RSS
    already covers the pool workers it reaped.  The child leads its own
    process group so a timeout can stop its workers too.
    """
    with open(cwd / "program.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(args), cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_rep(
    workload: Workload, seed: int, label: str, threads: int, smoke: bool,
    pin_blas: bool = True, spans_out: Optional[Path] = None,
) -> Rep:
    out_dir = fresh_dir(label)
    argv = workload.argv(seed, threads, smoke)
    if spans_out is None:
        args = [sys.executable, "-c", CLI_CODE, *argv]
    else:
        args = [sys.executable, str(SPANS_SCRIPT), str(spans_out), *argv]
    code, wall, rss = launch(args, out_dir, program_env(pin_blas))
    if code != 0:
        problems = [f"exit code {code}; see {out_dir / 'program.log'}"]
    else:
        problems = checks.check(out_dir, workload, seed, smoke)
    return Rep(code, wall, rss, out_dir, problems)


def check_identical(reps: Sequence[Rep], workload: Workload) -> None:
    """Record a problem on every repetition whose primary artifact differs
    from the first successful one: repeats of one seed must match bytes."""
    name = checks.primary_artifact(workload)
    good = [r for r in reps if r.returncode == 0 and (r.out_dir / name).is_file()]
    if not good:
        return
    first = (good[0].out_dir / name).read_bytes()
    for rep in good[1:]:
        if (rep.out_dir / name).read_bytes() != first:
            rep.problems.append(f"{name} differs from {good[0].out_dir.name}/{name}")


def import_time(out_dir: Path) -> float:
    """Wall time of a fresh interpreter importing ``omp_lab.cli``."""
    code, wall, _ = launch([sys.executable, "-c", "import omp_lab.cli"], out_dir, program_env())
    if code != 0:
        raise RuntimeError(f"importing omp_lab.cli failed; see {out_dir / 'program.log'}")
    return wall


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report_problems(reps: Sequence[Rep]) -> None:
    for rep in reps:
        for problem in rep.problems[:10]:
            print(f"  FAILED {rep.out_dir.name}: {problem}")


def end_to_end(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    threads = thread_count()
    setup_dir = fresh_dir("setup")
    # Untimed: writes the byte-compiled caches, as any user's first run does.
    import_time(setup_dir)
    # One set-up sample before each repeat, so both see the same machine
    # states over the run.
    setup: List[float] = []
    reps: List[Rep] = []
    start = time.perf_counter()
    while not reps or (not smoke and time.perf_counter() - start < seconds):
        setup.append(import_time(setup_dir))
        reps.append(run_rep(workload, seed, f"{workload.name}-{len(reps)}", threads, smoke))
    check_identical(reps, workload)

    walls = [r.wall_s for r in reps]
    wall = statistics.median(walls)
    units = workload.units_of_work(seed, smoke)
    failed = sum(r.failed for r in reps)
    q1, q3 = quartiles(walls)
    unit_name = "grid points" if workload.subcommand == "bound" else "trials"
    print(f"{workload.name} seed={seed} threads={threads}: {len(reps)} runs, {failed} failed")
    print(f"  wall_s       {wall:.4f} s     median of {len(reps)} (q1 {q1:.4f}, q3 {q3:.4f}, max {max(walls):.4f})")
    print(f"  throughput   {units / wall:.3f} 1/s   {units} {unit_name} per run")
    print(f"  setup_s      {statistics.median(setup):.4f} s     median of {len(setup)} imports of omp_lab.cli, one before each run")
    print(f"  peak_rss_mb  {max(r.peak_rss_mb for r in reps):.1f} MB    largest process of any run")
    print(f"  error_rate   {failed / len(reps):.3f}         {failed} of {len(reps)} runs failed")
    report_problems(reps)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            "wall_s": metric(wall, "s"),
            "throughput": metric(units / wall, "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(max(r.peak_rss_mb for r in reps), "MB"),
        },
    }


def machine_facts() -> dict:
    out_dir = fresh_dir("facts")
    proc = subprocess.run(
        [sys.executable, "-c", FACTS_CODE], cwd=out_dir, env=program_env(pin_blas=False),
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout)


def traced(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Per-layer metrics from traced ``--threads 1`` runs.

    Within ``seconds`` it repeats rounds of three runs: pinned at the
    end-to-end thread count, untraced ``--threads 1`` and traced
    ``--threads 1``.  Their medians give scaling efficiency and tracing
    overhead; the layer metrics come from the traced run with the median
    wall time.  One more run with BLAS threads at their default is the
    ungated oversubscription probe.
    """
    threads = thread_count()
    name = workload.name
    facts = machine_facts()
    probe = run_rep(workload, seed, f"{name}-blas-default", threads, smoke, pin_blas=False)
    pinned: List[Rep] = []
    single: List[Rep] = []
    traced_reps: List[Tuple[Rep, Path]] = []
    round_s = 0.0
    start = time.perf_counter()
    # A round is long, so none starts that would end past ``seconds``.
    while not traced_reps or (not smoke and time.perf_counter() - start + round_s < seconds):
        round_start = time.perf_counter()
        i = len(traced_reps)
        pinned.append(run_rep(workload, seed, f"{name}-pinned-{i}", threads, smoke))
        single.append(run_rep(workload, seed, f"{name}-threads1-{i}", 1, smoke))
        spans_out = WORK / f"{name}-spans-{i}.json"
        rep = run_rep(workload, seed, f"{name}-traced-{i}", 1, smoke, spans_out=spans_out)
        traced_reps.append((rep, spans_out))
        round_s = time.perf_counter() - round_start
    reps = [probe, *pinned, *single, *(r for r, _ in traced_reps)]
    check_identical(reps, workload)
    failed = sum(r.failed for r in reps)

    ok = sorted((r.wall_s, path) for r, path in traced_reps if r.returncode == 0)
    layer = spans.layer_metrics(json.loads(ok[(len(ok) - 1) // 2][1].read_text())) if ok else {}
    t_pinned = statistics.median(r.wall_s for r in pinned)
    t_single = statistics.median(r.wall_s for r in single)
    t_traced = statistics.median(r.wall_s for r, _ in traced_reps)
    # The bound sweep has no --threads, so it has no scaling efficiency.
    simulate = workload.subcommand == "simulate"
    layer.update({
        "montecarlo.scaling_efficiency": (t_single / (threads * t_pinned) if simulate else 0.0, "ratio"),
        "trace.untraced_wall_s": (t_single, "s"),
        "trace.traced_wall_s": (t_traced, "s"),
        "trace.overhead": (t_traced / t_single - 1.0, "ratio"),
        "probe.blas_pinned_wall_s": (t_pinned, "s"),
        "probe.blas_default_wall_s": (probe.wall_s, "s"),
    })
    print(f"{name} seed={seed}: {len(traced_reps)} rounds of pinned, --threads 1 and traced "
          f"--threads 1 runs, and one probe; {len(reps)} runs, {failed} failed")
    for key in sorted(facts):
        print(f"  machine.{key:<28} {facts[key]}")
    for key, (value, unit) in layer.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    print(f"  probe (not gated): {probe.wall_s:.3f} s with BLAS threads at their default, "
          f"against a median {t_pinned:.3f} s pinned to 1")
    report_problems(reps)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {key: metric(v, unit) for key, (v, unit) in layer.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny run per workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "omp_lab" / "cli.py").is_file():
        print(f"error: no omp_lab sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = traced(WORKLOADS[name], args.seed, args.seconds, args.smoke)
            else:
                results[name] = end_to_end(WORKLOADS[name], args.seed, args.seconds, args.smoke)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
