"""Output checks for one benchmark repetition.

Each check returns a list of problems; an empty list means the
repetition's artifacts are correct.  What is checked:

- every expected artifact exists, CSV headers are exact and row counts
  and row keys follow the grid; JSON agrees with the CSV; SVGs parse;
- bound values (and, for the bound sweep, ``feasible`` flags and the
  interval endpoint) match the reference table under ``reference/``
  to ``|a - b| <= 1e-8 * max(1, |b|)``: relative 1e-8 above 1 and the
  absolute 1e-8 of acceptance criterion 9 for probabilities;
- Monte Carlo tallies agree with the reference tallies under a two-sided
  Fisher exact test per grid point, Bonferroni-corrected to a
  family-wise false-alarm rate of ``TALLY_ALPHA`` per repetition.  The
  test is statistical, so a sampler that changes output bytes but not
  the success law still passes.

Byte identity of repeated runs of one seed is checked by the caller,
which holds the bytes of every repetition.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from workloads import BOUND_K, BOUND_PHI, CASE_LABELS, N, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BOUND_TOL = 1e-8
TALLY_ALPHA = 1e-6

SIM_HEADER = [
    "m", "n", "K", "case", "trials", "successes", "empirical_prob",
    "ci_low", "ci_high", "new_bound", "existing_bound",
]
BOUND_HEADER = [
    "m", "n", "K", "phi_variant", "phi_param", "bound_name", "value",
    "epsilon_star", "interval_upper", "feasible",
]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= BOUND_TOL * max(1.0, abs(b))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-sided Fisher exact p-value for x1/n1 against x2/n2.

    Sums the hypergeometric probabilities of every table with the same
    margins that is no more likely than the observed one.
    """
    total = x1 + x2
    base = _log_comb(n1 + n2, total)

    def log_p(x: int) -> float:
        return _log_comb(n1, x) + _log_comb(n2, total - x) - base

    observed = log_p(x1)
    lo, hi = max(0, total - n2), min(total, n1)
    p = sum(math.exp(lp) for lp in map(log_p, range(lo, hi + 1)) if lp <= observed + 1e-7)
    return min(1.0, p)


def _read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    return (rows[0], rows[1:]) if rows else ([], [])


def load_sim_reference(name: str) -> Dict[Tuple[int, int, str], Tuple[int, int, float, float]]:
    """(m, K, case label) -> (trials, successes, new_bound, existing_bound)."""
    _, rows = _read_csv(REFERENCE_DIR / f"{name}.csv")
    return {
        (int(r[0]), int(r[2]), r[3]): (int(r[4]), int(r[5]), float(r[9]), float(r[10]))
        for r in rows
    }


def load_bound_reference() -> Dict[Tuple[int, str], Tuple[float, float, str]]:
    """(m, bound name) -> (value, interval_upper, feasible)."""
    _, rows = _read_csv(REFERENCE_DIR / "bound-sweep.csv")
    return {(int(r[0]), r[5]): (float(r[6]), float(r[8]), r[9]) for r in rows}


def _check_svg(path: Path) -> List[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as err:
        return [f"{path.name} is not well-formed XML: {err}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name} root element is {root.tag!r}, not svg"]
    return []


def _load_json(path: Path) -> Tuple[object, List[str]]:
    if not path.is_file():
        return None, [f"missing {path.name}"]
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except ValueError as err:
        return None, [f"{path.name} is not valid JSON: {err}"]


def check_simulate(out_dir: Path, workload: Workload, seed: int, trials: int) -> List[str]:
    reference = load_sim_reference(workload.name)
    grid = [
        (m, K, CASE_LABELS[case])
        for case in workload.cases
        for K in workload.k_values
        for m in workload.m_values
    ]
    problems: List[str] = []
    for K in workload.k_values:
        for case in workload.cases:
            problems += _check_svg(out_dir / f"curves_K{K}_{CASE_LABELS[case]}.svg")

    csv_path = out_dir / "results.csv"
    if not csv_path.is_file():
        return problems + ["missing results.csv"]
    header, rows = _read_csv(csv_path)
    if header != SIM_HEADER:
        return problems + [f"results.csv header is {header}"]
    if len(rows) != len(grid):
        return problems + [f"results.csv has {len(rows)} rows, expected {len(grid)}"]

    tallies = []
    for row, (m, K, label) in zip(rows, grid):
        where = f"results.csv m={m} K={K} case={label}"
        if len(row) != len(SIM_HEADER) or row[:5] != [str(m), str(N), str(K), label, str(trials)]:
            problems.append(f"{where}: unexpected row keys {row[:5]}")
            continue
        successes = int(row[5])
        if not 0 <= successes <= trials or float(row[6]) != successes / trials:
            problems.append(f"{where}: inconsistent tally {row[5]} / {row[6]}")
            continue
        _, _, new_ref, base_ref = reference[(m, K, label)]
        if not close(float(row[9]), new_ref):
            problems.append(f"{where}: new_bound {row[9]} differs from reference {new_ref!r}")
        if not close(float(row[10]), base_ref):
            problems.append(f"{where}: existing_bound {row[10]} differs from reference {base_ref!r}")
        tallies.append(((m, K, label), successes))

    doc, errs = _load_json(out_dir / "results.json")
    problems += errs
    if doc is not None:
        points = doc.get("points", [])
        config = doc.get("config", {})
        if config.get("master_seed") != seed or config.get("trials") != trials:
            problems.append("results.json config does not echo the seed and trial count")
        if len(points) != len(rows):
            problems.append(f"results.json has {len(points)} points, expected {len(rows)}")
        else:
            for p, row in zip(points, rows):
                if [str(p.get(k)) for k in ("m", "K", "case", "successes")] != [
                    row[0], row[2], row[3], row[5]
                ] or p.get("new_bound") != float(row[9]) or p.get("existing_bound") != float(row[10]):
                    problems.append(f"results.json point m={row[0]} K={row[2]} case={row[3]} disagrees with results.csv")

    threshold = TALLY_ALPHA / len(grid)
    for key, successes in tallies:
        ref_trials, ref_successes, _, _ = reference[key]
        p = fisher_exact_p(successes, trials, ref_successes, ref_trials)
        if p < threshold:
            problems.append(
                f"tally m={key[0]} K={key[1]} case={key[2]}: {successes}/{trials} against "
                f"reference {ref_successes}/{ref_trials}, Fisher p={p:.3g} < {threshold:.3g}"
            )
    return problems


def check_bound(out_dir: Path, m_values: Sequence[int]) -> List[str]:
    reference = load_bound_reference()
    problems = _check_svg(out_dir / "bounds.svg")
    csv_path = out_dir / "bounds.csv"
    if not csv_path.is_file():
        return problems + ["missing bounds.csv"]
    header, rows = _read_csv(csv_path)
    if header != BOUND_HEADER:
        return problems + [f"bounds.csv header is {header}"]
    expected = [(m, name) for m in m_values for name in ("new", "existing")]
    if len(rows) != len(expected):
        return problems + [f"bounds.csv has {len(rows)} rows, expected {len(expected)}"]
    for row, (m, name) in zip(rows, expected):
        where = f"bounds.csv m={m} {name}"
        phi = BOUND_PHI if name == "new" else ""
        if len(row) != len(BOUND_HEADER) or row[:6] != [str(m), str(N), str(BOUND_K), phi, "", name]:
            problems.append(f"{where}: unexpected row keys {row[:6]}")
            continue
        value, upper, feasible = reference[(m, name)]
        if row[9] != feasible:
            problems.append(f"{where}: feasible={row[9]}, reference {feasible}")
        if not close(float(row[6]), value):
            problems.append(f"{where}: value {row[6]} differs from reference {value!r}")
        if not close(float(row[8]), upper):
            problems.append(f"{where}: interval_upper {row[8]} differs from reference {upper!r}")

    doc, errs = _load_json(out_dir / "bounds.json")
    problems += errs
    if doc is not None:
        json_rows = doc.get("rows", [])
        if len(json_rows) != len(rows):
            problems.append(f"bounds.json has {len(json_rows)} rows, expected {len(rows)}")
        else:
            for j, row in zip(json_rows, rows):
                if (
                    str(j.get("m")) != row[0]
                    or j.get("bound_name") != row[5]
                    or j.get("value") != float(row[6])
                    or ("true" if j.get("feasible") else "false") != row[9]
                ):
                    problems.append(f"bounds.json row m={row[0]} {row[5]} disagrees with bounds.csv")
    return problems


def primary_artifact(workload: Workload) -> str:
    """The file whose bytes must repeat exactly across runs of one seed."""
    return "bounds.csv" if workload.subcommand == "bound" else "results.csv"


def check(out_dir: Path, workload: Workload, seed: int, smoke: bool) -> List[str]:
    """All problems with one repetition's artifacts; a malformed cell or
    an m outside the reference tables is a problem, not a crash."""
    try:
        if workload.subcommand == "bound":
            return check_bound(out_dir, workload.bound_m_values(seed, smoke))
        return check_simulate(out_dir, workload, seed, workload.point_trials(smoke))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
        return [f"malformed artifact: {type(err).__name__}: {err}"]
