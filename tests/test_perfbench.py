"""The benchmark tooling runs on the current code: traced and self-tested.

``perfbench/spans.py`` patches names in the omp_lab modules by
``getattr``, so a renamed or deleted name only shows when a traced run
starts.  A fast test reads its patch targets from the source; the slow
tests start a traced run.  The scripts work in
``<checkout>/.perfbench_work`` and delete it when they finish, so each
test runs them in a copy of the checkout under its own temporary
directory, apart from any benchmark running in this one.
"""

import ast
import importlib
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


def _span_targets():
    """(module, attribute path) of every name ``perfbench/spans.py``
    wraps: each ``patch(<module>, "<name>", ...)`` call, with a loop
    variable expanded over its tuple, and each ``<module>.<class>.<name>
    = ...`` assignment to an omp_lab module it imports."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    modules = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "omp_lab"
        for alias in node.names
    }
    loops = {
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    }
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
            owner, attr = node.args[:2]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            targets += [(owner.id, (name,)) for name in names]
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Attribute):
            path = ast.unparse(node.targets[0]).split(".")
            if path[0] in modules:
                targets.append((path[0], tuple(path[1:])))
    return targets


def test_span_targets_exist():
    targets = _span_targets()
    assert len(targets) >= 17
    for module, path in targets:
        owner = importlib.import_module(f"omp_lab.{module}")
        for name in path:
            assert hasattr(owner, name), (module, path)
            owner = getattr(owner, name)


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
