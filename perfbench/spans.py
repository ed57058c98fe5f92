"""Span recorder for the traced benchmark run, and its per-layer summary.

Run as ``python3 perfbench/spans.py SPANS_JSON CLI_ARG...`` with ``src``
on ``PYTHONPATH``.  It wraps the public functions of each omp_lab module
(``signals``, ``phi``, ``omp``, ``bounds``, ``montecarlo``, ``output``,
``svgplot``, ``cli``) where callers look them up, runs
``omp_lab.cli.main`` once, keeps every span (name, start, end, parent)
in memory and writes them out at exit.  Run it with ``--threads 1`` so
that every trial runs in this process.

Two hot leaf calls, ``PhiFunction.__call__`` and ``StreamKey.generator``,
are counted and timed in aggregate instead of one span per call; they
have no children, so their self time is their total time.

``layer_metrics`` is imported by run.py and needs no omp_lab import.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("signals", "phi", "omp", "bounds", "montecarlo", "output", "svgplot", "cli")


class Recorder:
    """Spans as ``[name, start, end, parent index, child seconds, extra]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.open: List[int] = []
        self.leaves: Dict[str, List[float]] = {}
        self.support: frozenset = frozenset()

    def span(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        spans, open_ = self.spans, self.open

        def wrapped(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            record = [name, 0.0, 0.0, parent, 0.0, None]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
                if parent >= 0:
                    spans[parent][4] += record[2] - record[1]
            if extra is not None:
                record[5] = extra(args, result)
            return result

        return wrapped

    def leaf(self, name: str, fn: Callable) -> Callable:
        stats = self.leaves.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self.open

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed
                if open_:
                    spans[open_[-1]][4] += elapsed

        return wrapped

    def remember_support(self, args, support) -> None:
        self.support = frozenset(support.tolist())

    def pursuit_counts(self, args, result) -> Tuple[int, int]:
        """(iterations, iterations up to the first off-support pick)."""
        useful = 0
        for j in result.selected.tolist():
            if j not in self.support:
                break
            useful += 1
        return int(result.iterations), useful


def install(rec: Recorder) -> Callable:
    """Wrap every traced function; return the wrapped ``cli.main``.

    ``montecarlo`` and ``cli`` bind their imports by name, so those names
    are replaced in the importing module; the rest are looked up through
    their module or class at call time.
    """
    from omp_lab import bounds, cli, montecarlo, output, phi, signals, svgplot

    def patch(owner, attr: str, name: str, extra: Optional[Callable] = None) -> None:
        setattr(owner, attr, rec.span(name, getattr(owner, attr), extra))

    patch(cli, "run_experiment", "montecarlo.experiment")
    patch(montecarlo, "run_trial", "montecarlo.trial")
    patch(montecarlo, "sample_sensing_matrix", "signals.matrix", lambda a, r: r.entries.nbytes)
    patch(montecarlo, "sample_support", "signals.support", rec.remember_support)
    patch(montecarlo, "generate_signal", "signals.signal")
    patch(montecarlo, "run_omp", "omp.run", rec.pursuit_counts)
    patch(montecarlo, "check_exact_recovery", "omp.check", lambda a, r: int(bool(r)))
    patch(bounds, "disparity_bound", "bounds.disparity")
    patch(bounds, "baseline_bound", "bounds.baseline")
    patch(bounds, "log_disparity_bound_at", "bounds.objective")
    patch(bounds, "log_baseline_bound_at", "bounds.objective")
    patch(output, "atomic_write_text", "output.write", lambda a, r: len(a[1].encode("utf-8")))
    for formatter in ("experiment_csv", "experiment_json", "bound_rows_csv"):
        patch(output, formatter, "output.format")
    patch(svgplot, "line_plot", "svgplot.plot")
    phi.PhiFunction.__call__ = rec.leaf("phi.call", phi.PhiFunction.__call__)
    signals.StreamKey.generator = rec.leaf("signals.streams", signals.StreamKey.generator)
    return rec.span("cli.main", cli.main)


def _percentile_ms(sorted_s: List[float], q: float) -> float:
    """Nearest-rank percentile of seconds, in milliseconds; 0 when empty."""
    if not sorted_s:
        return 0.0
    return 1e3 * sorted_s[max(0, math.ceil(q * len(sorted_s)) - 1)]


def layer_metrics(doc: dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts, busy times and self times from a spans file."""
    durations: Dict[str, List[float]] = defaultdict(list)
    self_by_name: Dict[str, float] = defaultdict(float)
    self_by_layer: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    extras: Dict[str, list] = defaultdict(list)
    for name, start, end, _parent, child_s, extra in doc["spans"]:
        durations[name].append(end - start)
        self_by_name[name] += end - start - child_s
        self_by_layer[name.split(".")[0]] += end - start - child_s
        if extra is not None:
            extras[name].append(extra)
    for name, (_calls, total) in doc["leaves"].items():
        self_by_layer[name.split(".")[0]] += total

    out: Dict[str, Tuple[float, str]] = {}

    def timing(name: str, fields: Tuple[str, ...]) -> None:
        d = sorted(durations.get(name, []))
        values = {
            "calls": (len(d), "count"),
            "total_s": (sum(d), "s"),
            "p50_ms": (1e3 * statistics.median(d) if d else 0.0, "ms"),
            "p99_ms": (_percentile_ms(d, 0.99), "ms"),
        }
        for field in fields:
            out[f"{name}.{field}"] = values[field]

    timing("signals.matrix", ("calls", "total_s", "p50_ms", "p99_ms"))
    out["signals.matrix.bytes_computed"] = (sum(extras["signals.matrix"]), "bytes")
    timing("signals.support", ("total_s",))
    timing("signals.signal", ("total_s",))
    out["signals.streams"] = (doc["leaves"].get("signals.streams", [0, 0.0])[0], "count")

    timing("omp.run", ("calls", "total_s", "p50_ms", "p99_ms"))
    timing("omp.check", ("total_s",))
    iterations = sum(e[0] for e in extras["omp.run"])
    useful = sum(e[1] for e in extras["omp.run"])
    out["omp.iterations"] = (iterations, "count")
    out["omp.useful_iteration_ratio"] = (useful / iterations if iterations else 0.0, "ratio")

    timing("montecarlo.trial", ("calls", "p50_ms", "p99_ms"))
    out["montecarlo.trial.self_s"] = (self_by_name["montecarlo.trial"], "s")
    outcomes = extras["omp.check"]
    out["montecarlo.success_ratio"] = (sum(outcomes) / len(outcomes) if outcomes else 0.0, "ratio")

    timing("bounds.disparity", ("calls", "total_s", "p50_ms"))
    timing("bounds.baseline", ("calls", "total_s", "p50_ms"))
    out["bounds.objective_evals"] = (len(durations.get("bounds.objective", [])), "count")
    phi_calls, phi_total = doc["leaves"].get("phi.call", [0, 0.0])
    out["phi.calls"] = (phi_calls, "count")
    out["phi.total_s"] = (phi_total, "s")

    timing("output.write", ("calls", "total_s"))
    out["output.write.bytes"] = (sum(extras["output.write"]), "bytes")
    timing("output.format", ("total_s",))
    timing("svgplot.plot", ("calls", "total_s"))
    out["cli.self_s"] = (self_by_name["cli.main"], "s")
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    return out


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli_main = install(rec)
    code = cli_main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": rec.spans, "leaves": rec.leaves}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
