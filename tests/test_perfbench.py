"""The benchmark tooling runs on the current code: traced and self-tested.

``perfbench/spans.py`` patches names in ``omp_lab.montecarlo`` by
``getattr``, so a renamed or deleted name only shows when a traced run
starts; these tests start one.  The scripts work in
``<checkout>/.perfbench_work`` and delete it when they finish, so each
test runs them in a copy of the checkout under its own temporary
directory, apart from any benchmark running in this one.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(checkout, *args):
    for name in ("src", "perfbench"):
        shutil.copytree(
            ROOT / name, checkout / name,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    shutil.copyfile(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    return subprocess.run(
        [sys.executable, *args], cwd=checkout, capture_output=True, text=True,
        timeout=600,
    )


@pytest.mark.slow
def test_traced_smoke_run_is_correct(tmp_path):
    proc = _run(
        tmp_path, "perfbench/run.py", "--workload", "all", "--seed", "1", "--smoke",
        "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.slow
def test_selftest_passes(tmp_path):
    proc = _run(tmp_path, "perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 self-test failures"
