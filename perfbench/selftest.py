#!/usr/bin/env python3
"""Benchmark self-test: smoke runs, corrupted artifacts, missing sources.

    python3 perfbench/selftest.py

1. Runs every workload once at smoke size and requires its checks to pass.
2. Copies the good artifacts, corrupts one thing in each copy, and
   requires the checks to name the defect.  Every corruption keeps CSV
   and JSON consistent with each other, so only the check under test can
   catch it: a flipped tally (statistical test), a perturbed bound or a
   flipped ``feasible`` flag (reference table), a missing SVG, and
   changed bytes between repeats of one seed.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and requires a nonzero exit without a result line.

Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

import checks
import run
from workloads import WORKLOADS

_failures: List[str] = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        _failures.append(label)


def edit_csv(path: Path, edit: Callable[[List[List[str]]], None]) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    edit(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def edit_json(path: Path, edit: Callable[[dict], None]) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def flip_tally(out: Path) -> None:
    """Flip the tally at the point whose reference rate is most extreme."""
    reference = checks.load_sim_reference("sim-large-m")
    rows = list(csv.reader(io.StringIO((out / "results.csv").read_text())))[1:]

    def ref_rate(row):
        ref_trials, ref_successes, _, _ = reference[(int(row[0]), int(row[2]), row[3])]
        return ref_successes / ref_trials

    i = max(range(len(rows)), key=lambda k: abs(ref_rate(rows[k]) - 0.5))
    trials = int(rows[i][4])
    flipped = trials - int(rows[i][5])

    def csv_edit(r):
        r[i + 1][5], r[i + 1][6] = str(flipped), "%.17g" % (flipped / trials)

    def json_edit(doc):
        doc["points"][i].update(successes=flipped, empirical_prob=flipped / trials)

    edit_csv(out / "results.csv", csv_edit)
    edit_json(out / "results.json", json_edit)


def perturb_new_bound(out: Path) -> None:
    rows = list(csv.reader(io.StringIO((out / "results.csv").read_text())))[1:]
    i = max(range(len(rows)), key=lambda k: float(rows[k][9]))
    value = float(rows[i][9]) * (1.0 + 1e-6)

    def csv_edit(r):
        r[i + 1][9] = "%.17g" % value

    def json_edit(doc):
        doc["points"][i]["new_bound"] = float("%.17g" % value)

    edit_csv(out / "results.csv", csv_edit)
    edit_json(out / "results.json", json_edit)


def perturb_bound_value(out: Path) -> None:
    rows = list(csv.reader(io.StringIO((out / "bounds.csv").read_text())))[1:]
    i = max(range(len(rows)), key=lambda k: float(rows[k][6]))
    value = float(rows[i][6]) * (1.0 + 1e-6)

    def csv_edit(r):
        r[i + 1][6] = "%.17g" % value

    def json_edit(doc):
        doc["rows"][i]["value"] = float("%.17g" % value)

    edit_csv(out / "bounds.csv", csv_edit)
    edit_json(out / "bounds.json", json_edit)


def flip_feasible(out: Path) -> None:
    def csv_edit(r):
        r[1][9] = "false" if r[1][9] == "true" else "true"

    def json_edit(doc):
        doc["rows"][0]["feasible"] = not doc["rows"][0]["feasible"]

    edit_csv(out / "bounds.csv", csv_edit)
    edit_json(out / "bounds.json", json_edit)


def drop_first_svg(out: Path) -> None:
    sorted(out.glob("*.svg"))[0].unlink()


def change_ci_bytes(out: Path) -> None:
    """A byte change that no per-run check looks at: the CI column."""
    def csv_edit(r):
        r[1][7] = "%.17g" % (float(r[1][7]) / 2.0)

    edit_csv(out / "results.csv", csv_edit)


CORRUPTIONS = {
    "sim-large-m": [
        ("flipped tally", flip_tally, "tally m="),
        ("perturbed new_bound", perturb_new_bound, "new_bound"),
        ("missing SVG", drop_first_svg, "missing curves_"),
    ],
    "bound-sweep": [
        ("perturbed bound value", perturb_bound_value, "value"),
        ("flipped feasible flag", flip_feasible, "feasible="),
        ("missing SVG", drop_first_svg, "missing bounds.svg"),
    ],
}


def corrupted_copy(rep: run.Rep, label: str, mutate: Callable[[Path], None]) -> Path:
    out = run.WORK / label
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(rep.out_dir, out)
    mutate(out)
    return out


def bare_checkout_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect("no sources: nonzero exit and no result line",
           proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"exit {proc.returncode}")


def main() -> int:
    try:
        seed = 3
        good = {}
        for name, workload in WORKLOADS.items():
            rep = run.run_rep(workload, seed, f"smoke-{name}", run.thread_count(), smoke=True)
            good[name] = rep
            expect(f"{name}: smoke run passes its checks", not rep.failed, "; ".join(rep.problems))

        for name, cases in CORRUPTIONS.items():
            workload = WORKLOADS[name]
            for label, mutate, needle in cases:
                out = corrupted_copy(good[name], f"corrupt-{name}-{label.replace(' ', '-')}", mutate)
                problems = checks.check(out, workload, seed, smoke=True)
                expect(f"{name}: {label} is caught", any(needle in p for p in problems),
                       "; ".join(problems[:2]) or "no problem reported")

        workload = WORKLOADS["sim-large-m"]
        copy = corrupted_copy(good["sim-large-m"], "corrupt-repeat", change_ci_bytes)
        reps = [good["sim-large-m"], run.Rep(0, 0.0, 0.0, copy, [])]
        expect("sim-large-m: changed CI bytes pass the per-run checks",
               not checks.check(copy, workload, seed, smoke=True))
        run.check_identical(reps, workload)
        expect("sim-large-m: bytes differing between repeats are caught",
               any("differs from" in p for p in reps[1].problems))

        bare_checkout_fails()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{len(_failures)} self-test failures")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
