"""Every artifact format: CSV and JSON tables, and atomic file writing.

Each tabular artifact is one :class:`Table`, a list of column names plus
typed row tuples, rendered to both CSV and JSON so the two always agree.
A CSV cell renders ``None`` as empty, ``bool`` as ``true``/``false`` and
floats as ``%.17g``: enough digits to round-trip any double, and a fixed
format so identical results give byte-identical files on every platform.
A JSON row holds the same keys in the same order.  Rows follow the
deterministic grid order of their producers.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ._version import __version__
from .bounds import BoundResult
from .montecarlo import SAMPLER, ExperimentResult
from .omp import RECOVERY_TOL
from .phi import PhiFunction, PhiValidationReport

__all__ = [
    "format_float",
    "atomic_write_text",
    "experiment_csv",
    "experiment_json",
    "bound_rows_csv",
    "bound_rows_json",
    "phi_validation_csv",
    "phi_validation_json",
    "phi_curves_csv",
    "phi_curves_json",
]

_FLOAT_FMT = "%.17g"


def format_float(value: float) -> str:
    """Round-trip decimal formatting used in every CSV float cell."""
    return _FLOAT_FMT % value


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


class Table(NamedTuple):
    """One artifact: column names plus one typed tuple per row."""

    columns: Tuple[str, ...]
    rows: List[tuple]

    def csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(_cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def records(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via a temp sibling + rename, so readers never see a
    partial file and a crash cannot corrupt an existing one."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _experiment_table(result: ExperimentResult) -> Table:
    """One row per grid point, in sweep order."""
    columns = (
        "m", "n", "K", "case", "trials", "successes", "empirical_prob",
        "ci_low", "ci_high", "new_bound", "existing_bound",
    )
    rows = []
    for p in result.points:
        lo, hi = p.confidence_interval()
        rows.append(
            (p.m, p.n, p.K, p.case.label(), p.trials, p.successes, p.probability,
             lo, hi, p.disparity_bound_value, p.baseline_bound_value)
        )
    return Table(columns, rows)


def experiment_csv(result: ExperimentResult) -> str:
    return _experiment_table(result).csv()


def _case_dict(case) -> dict:
    out = {"kind": case.kind}
    if case.alpha is not None:
        out["alpha"] = case.alpha
    if case.sigma is not None:
        out["sigma"] = case.sigma
    return out


def experiment_json(result: ExperimentResult) -> str:
    """Full provenance document: config echo with the sampler, version, all points."""
    config = result.config
    return _json_text(
        {
            "version": __version__,
            "config": {
                "n": config.n,
                "m_values": list(config.m_values),
                "k_values": list(config.k_values),
                "cases": [_case_dict(c) for c in config.cases],
                "trials": config.trials,
                "master_seed": config.master_seed,
                "recovery_tolerance": RECOVERY_TOL,
                "sampler": SAMPLER,
            },
            "points": _experiment_table(result).records(),
        }
    )


BoundRow = Tuple[int, int, int, Optional[PhiFunction], str, BoundResult]


def _bound_table(rows: Sequence[BoundRow]) -> Table:
    """(m, n, K, phi, bound_name, result) tuples, one row each.

    ``phi`` is None for the baseline bound, which does not use one; its
    variant/param cells stay empty.  ``epsilon_star`` is empty when the
    feasible interval is.
    """
    columns = (
        "m", "n", "K", "phi_variant", "phi_param", "bound_name", "value",
        "epsilon_star", "interval_upper", "feasible",
    )
    return Table(
        columns,
        [
            (m, n, K, None if phi is None else phi.variant,
             None if phi is None else phi.alpha, bound_name, res.value,
             res.epsilon_star, res.interval_upper, res.feasible)
            for m, n, K, phi, bound_name, res in rows
        ],
    )


def bound_rows_csv(rows: Sequence[BoundRow]) -> str:
    return _bound_table(rows).csv()


def bound_rows_json(rows: Sequence[BoundRow]) -> str:
    return _json_text({"version": __version__, "rows": _bound_table(rows).records()})


def _phi_validation_table(report: PhiValidationReport) -> Table:
    """Per-size empirical disparity-condition pass rates."""
    return Table(
        ("t", "trials", "successes", "empirical_probability"),
        [
            (int(t), report.trials, int(s), s / report.trials)
            for t, s in zip(report.sizes, report.successes)
        ],
    )


def phi_validation_csv(report: PhiValidationReport) -> str:
    return _phi_validation_table(report).csv()


def phi_validation_json(
    report: PhiValidationReport, t_max: int, seed: int, threshold: float
) -> str:
    return _json_text(
        {
            "version": __version__,
            "phi": report.phi.label(),
            "t_max": t_max,
            "trials": report.trials,
            "seed": seed,
            "threshold": threshold,
            "min_probability": report.min_probability,
            "rows": _phi_validation_table(report).records(),
        }
    )


Curve = Tuple[str, Sequence[int], Sequence[float]]


def phi_curves_csv(curves: Sequence[Curve]) -> str:
    """Budget curves as (label, t values, phi values) triples."""
    rows = []
    for label, ts, values in curves:
        if len(ts) != len(values):
            raise ValueError(f"curve {label!r} has mismatched lengths")
        rows.extend((label, int(t), v) for t, v in zip(ts, values))
    return Table(("curve", "t", "phi"), rows).csv()


def phi_curves_json(curves: Sequence[Curve]) -> str:
    """One object per curve, keeping the t and phi arrays whole."""
    return _json_text(
        {
            "version": __version__,
            "curves": [
                {"label": label, "t": list(ts), "phi": list(vals)}
                for label, ts, vals in curves
            ],
        }
    )
