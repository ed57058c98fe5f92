#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and report spreads.

    python3 perfbench/steady.py --runs 10 --record perfbench/steadiness.json
    python3 perfbench/steady.py --workloads sim-transition --runs 5

For every end-to-end metric, the spread is the distance between the
first and third quartile of its per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A
workload is steady when every spread except that of ``setup_s`` stays
below a third of the metric's bound in ``BENCHMARK.json``.  With
``--record``, the per-run numbers, seeds, spreads and machine facts are
appended as one set to that JSON file; from the second set on, each
metric's median is compared with the previous set's, as a regression
check would: the newer median may not be worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

FIRST_SEED = 101


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    gated = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=gated, choices=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", type=Path, help="write per-run numbers and spreads here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "machine": run.machine_facts(),
        "run_seconds": args.seconds,
        "runs": [],
        "spread": {},
    }
    steady = True
    for name in args.workloads:
        values = {metric: [] for metric in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=900,
            )
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            row = {metric: result["metrics"][metric]["value"] for metric in bounds}
            record["runs"].append({
                "workload": name, "seed": seed, "elapsed_s": round(elapsed, 2),
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], **row,
            })
            for metric, value in row.items():
                values[metric].append(value)
            print(f"{name} seed={seed} {elapsed:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
            steady &= result["correct"]

        record["spread"][name] = {}
        for metric, vals in values.items():
            s = spread(vals)
            ok = metric == "setup_s" or s < bounds[metric] / 3
            steady &= ok
            record["spread"][name][metric] = {
                "median": statistics.median(vals), "spread": s, "bound": bounds[metric],
            }
            print(f"  {name} {metric}: median {statistics.median(vals):.5g}, "
                  f"spread {s:.4f} (bound {bounds[metric]}){'' if ok else '  NOT STEADY'}")

    if args.record:
        sets = json.loads(args.record.read_text())["sets"] if args.record.exists() else []
        if sets:
            steady &= compare(sets[-1], record, spec)
        sets.append(record)
        args.record.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    return 0 if steady else 1


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Is every median of ``second`` within its bound of ``first``?"""
    ok = True
    for m in spec["end_to_end"]:
        for name in sorted(second["spread"].keys() & first["spread"].keys()):
            a = first["spread"][name][m["name"]]["median"]
            b = second["spread"][name][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok &= worse <= m["bound"]
            print(f"  {name} {m['name']}: median {a:.5g} then {b:.5g}, worse by {worse:+.4f} "
                  f"(bound {m['bound']}){'' if worse <= m['bound'] else '  REGRESSED'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
