"""Command-line front end.

Subcommands:

- ``bound``: evaluate both recovery-probability bounds for one (n, K)
  and one m or an m-sweep.
- ``simulate``: run the Monte Carlo experiment grid and write CSV/JSON
  (optionally SVG curve figures).
- ``validate-phi``: empirical check of the disparity condition for
  Gaussian vectors; exit 3 if the worst per-size probability falls
  below the threshold.
- ``plot-phi``: tabulate/plot the decaying-signal budget curves for
  several decay ratios.
- ``report``: merge previously written experiment CSVs into combined
  SVG figures.

Every long flag can also come from an INI config file: one section per
subcommand, keys spelled like the flag with ``-`` or ``_`` in any case,
repeatable flags as comma lists, and each value checked like the flag's;
explicit flags win.
The master seed falls back to the ``OMP_LAB_SEED`` environment variable,
then to 0.  Exit codes: 0 success, 1 runtime failure, 2 usage error,
3 threshold not met.
"""

from __future__ import annotations

import argparse
import atexit
import configparser
import csv
import gc
import math
import os
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from . import output, svgplot
from ._version import __version__
from .montecarlo import (
    ExperimentConfig,
    TrialError,
    run_experiment,
)
from .phi import PhiFunction, validate_phi_empirical
from .signals import SignalCase, StreamKey

__all__ = ["main", "run"]

# At exit the interpreter runs full collections over a heap it is about
# to drop.  Freezing it first moves every object alive then into the
# permanent generation, which those collections skip.  Handlers run in
# reverse order of registration, so any registered after this import
# (a process pool's among them) run before the freeze; nothing changes
# before exit.
atexit.register(gc.freeze)

SEED_ENV_VAR = "OMP_LAB_SEED"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_THRESHOLD = 3

_CASE_TOKENS: Dict[str, SignalCase] = {
    "flat": SignalCase.flat(),
    "decay11": SignalCase.decaying(1.1),
    "decay12": SignalCase.decaying(1.2),
    "gauss": SignalCase.gaussian(1.0),
}

_ALL_FORMATS = ("csv", "json", "svg")


class UsageError(Exception):
    """Bad flags/config; reported on stderr with exit code 2."""


def _parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _parse_sweep(text: str) -> List[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"sweep must look like lo:step:hi, got {text!r}"
        )
    try:
        lo, step, hi = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sweep needs integer parts, got {text!r}")
    if lo < 1 or step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad sweep range {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_formats(text: str) -> Tuple[str, ...]:
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    if not tokens:
        raise argparse.ArgumentTypeError("need at least one output format")
    for t in tokens:
        if t not in _ALL_FORMATS:
            raise argparse.ArgumentTypeError(
                f"unknown format {t!r}; choose from {', '.join(_ALL_FORMATS)}"
            )
    return tokens


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_probability(text: str) -> float:
    value = _parse_float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {text!r}")
    return value


def _parse_case(text: str) -> SignalCase:
    token = text.strip()
    if token not in _CASE_TOKENS:
        raise argparse.ArgumentTypeError(
            f"unknown case {token!r}; choose from {', '.join(sorted(_CASE_TOKENS))}"
        )
    return _CASE_TOKENS[token]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omp-lab",
        description="Sparse-recovery experiments: pursuit solver, "
        "probability bounds, Monte Carlo sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"omp-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--out-dir", help="output directory (default: .)")

    p_bound = sub.add_parser("bound", help="evaluate the probability bounds")
    common(p_bound)
    p_bound.add_argument("--m", action="append", type=_parse_positive_int)
    p_bound.add_argument("--m-sweep", metavar="LO:STEP:HI")
    p_bound.add_argument("--n", type=_parse_positive_int)
    p_bound.add_argument("--K", type=_parse_positive_int)
    p_bound.add_argument("--phi", choices=("cs", "decay", "gauss"))
    p_bound.add_argument("--alpha", type=_parse_float)
    p_bound.add_argument("--formats", type=_parse_formats)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    common(p_sim)
    p_sim.add_argument("--m", action="append", type=_parse_positive_int)
    p_sim.add_argument("--m-sweep", metavar="LO:STEP:HI")
    p_sim.add_argument("--n", type=_parse_positive_int)
    p_sim.add_argument("--K", action="append", type=_parse_positive_int)
    p_sim.add_argument(
        "--case",
        action="append",
        type=_parse_case,
        dest="cases",
        metavar="{" + "|".join(sorted(_CASE_TOKENS)) + "}",
    )
    p_sim.add_argument("--trials", type=_parse_positive_int)
    p_sim.add_argument("--seed", type=_parse_seed)
    p_sim.add_argument("--threads", type=_parse_positive_int)
    p_sim.add_argument("--formats", type=_parse_formats)

    p_phi = sub.add_parser("validate-phi", help="empirical disparity check")
    common(p_phi)
    p_phi.add_argument("--t-max", type=_parse_positive_int)
    p_phi.add_argument("--trials", type=_parse_positive_int)
    p_phi.add_argument("--seed", type=_parse_seed)
    p_phi.add_argument("--phi", choices=("cs", "decay", "gauss"))
    p_phi.add_argument("--alpha", type=_parse_float)
    p_phi.add_argument("--threshold", type=_parse_probability)
    p_phi.add_argument("--threads", type=_parse_positive_int)
    p_phi.add_argument("--formats", type=_parse_formats)

    p_plot = sub.add_parser("plot-phi", help="tabulate/plot budget curves")
    common(p_plot)
    p_plot.add_argument("--alpha", action="append", type=_parse_float, dest="alphas")
    p_plot.add_argument("--t-max", type=_parse_positive_int)
    p_plot.add_argument("--formats", type=_parse_formats)

    p_rep = sub.add_parser("report", help="merge experiment CSVs into SVGs")
    common(p_rep)
    p_rep.add_argument("inputs", nargs="*", metavar="CSV")

    return parser


def _config_actions(
    parser: argparse.ArgumentParser, subcommand: str
) -> Dict[str, argparse.Action]:
    """The subcommand's options that a config file may set, keyed by the
    normalized long flag: all of them but ``--config`` and ``--help``."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        _config_key(opt[2:]): action
        for action in sub.choices[subcommand]._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt not in ("--config", "--help")
    }


def _config_key(name: str) -> str:
    return name.replace("_", "-").lower()


def _config_value(action: argparse.Action, key: str, text: str) -> object:
    """Convert and check a config value as the flag would; a repeatable
    flag takes a comma list."""
    repeatable = isinstance(action, argparse._AppendAction)
    tokens = [t.strip() for t in text.split(",") if t.strip()] if repeatable else [text]
    values = []
    for token in tokens:
        try:
            value = action.type(token) if action.type else token
        except (argparse.ArgumentTypeError, TypeError, ValueError) as err:
            raise UsageError(f"bad config value for {key!r}: {err}")
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"bad config value for {key!r}: invalid choice {value!r} "
                f"(choose from {', '.join(map(str, action.choices))})"
            )
        values.append(value)
    return values if repeatable else values[0]


def _apply_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if ns.config is None:
        return
    if not os.path.isfile(ns.config):
        raise UsageError(f"config file not found: {ns.config}")
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case for error messages
    try:
        ini.read(ns.config)
    except configparser.Error as err:
        raise UsageError(f"cannot parse config file: {err}")
    if ns.subcommand not in ini:
        return
    actions = _config_actions(parser, ns.subcommand)
    for key, text in ini[ns.subcommand].items():
        action = actions.get(_config_key(key))
        if action is None:
            raise UsageError(f"unknown config key {key!r} in section [{ns.subcommand}]")
        if getattr(ns, action.dest) is None:
            setattr(ns, action.dest, _config_value(action, key, text))


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return _parse_seed(raw)
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"bad {SEED_ENV_VAR}: {err}")


def _resolve_m_values(ns: argparse.Namespace) -> List[int]:
    if ns.m is not None and ns.m_sweep is not None:
        raise UsageError("give either --m or --m-sweep, not both")
    if ns.m_sweep is not None:
        try:
            return _parse_sweep(ns.m_sweep)
        except argparse.ArgumentTypeError as err:
            raise UsageError(str(err))
    if ns.m is not None:
        return list(ns.m)
    raise UsageError("no m values given (use --m or --m-sweep)")


def _resolve_phi(variant: Optional[str], alpha: Optional[float]) -> PhiFunction:
    variant = variant or "cs"
    if variant == "decay":
        if alpha is None:
            raise UsageError("--phi decay requires --alpha")
        if not alpha > 1.0:
            raise UsageError(f"--alpha must exceed 1, got {alpha:g}")
        return PhiFunction.strongly_decaying(alpha)
    if alpha is not None:
        raise UsageError(f"--alpha only applies to --phi decay, not {variant!r}")
    if variant == "cs":
        return PhiFunction.cauchy_schwarz()
    return PhiFunction.gaussian_empirical()


def _out_path(ns: argparse.Namespace, name: str) -> str:
    out_dir = ns.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_artifacts(
    ns: argparse.Namespace, default: Tuple[str, ...], artifacts: Iterable[tuple]
) -> None:
    """Write each ``(format, file name, render, *args)`` artifact whose
    format ``--formats`` asks for (else ``default``); the text is
    ``render(*args)``, so formats not asked for are never rendered."""
    formats = ns.formats if ns.formats is not None else default
    for fmt, name, render, *args in artifacts:
        if fmt in formats:
            output.atomic_write_text(_out_path(ns, name), render(*args))


def _recovery_svg(title: str, rows: Sequence[Tuple[int, float, float, float]]) -> str:
    """Empirical recovery rate against both bounds, from ``(m, empirical,
    new bound, existing bound)`` rows in m order."""
    ms = [r[0] for r in rows]
    return svgplot.line_plot(
        [
            svgplot.Series(label, ms, [r[i] for r in rows])
            for i, label in enumerate(("empirical", "new bound", "existing bound"), 1)
        ],
        title=title,
        x_label="m",
        y_label="probability",
        y_range=(0.0, 1.05),
    )


def _cmd_bound(ns: argparse.Namespace) -> int:
    m_values = _resolve_m_values(ns)
    n = ns.n if ns.n is not None else 1024
    if ns.K is None:
        raise UsageError("--K is required")
    K = ns.K
    if not K < n:
        raise UsageError(f"need K < n, got K={K}, n={n}")
    phi = _resolve_phi(ns.phi, ns.alpha)

    rows = []
    for m in m_values:
        new = bounds_mod.disparity_bound(m, n, K, phi)
        base = bounds_mod.baseline_bound(m, n, K)
        rows.append((m, n, K, phi, "new", new))
        rows.append((m, n, K, None, "existing", base))
        eps = "-" if new.epsilon_star is None else f"{new.epsilon_star:.6f}"
        print(
            f"m={m} n={n} K={K} phi={phi.label()}  "
            f"new={new.value:.6g} (eps*={eps}, feasible={new.feasible})  "
            f"existing={base.value:.6g} (feasible={base.feasible})"
        )

    def figure() -> str:
        return svgplot.line_plot(
            [
                svgplot.Series(
                    f"{name} bound", m_values, [r[5].value for r in rows if r[4] == name]
                )
                for name in ("new", "existing")
            ],
            title=f"Recovery bounds, K={K}, n={n}, phi={phi.label()}",
            x_label="m",
            y_label="probability lower bound",
            y_range=(0.0, 1.05),
        )

    _write_artifacts(
        ns,
        ("csv",),
        [
            ("csv", "bounds.csv", output.bound_rows_csv, rows),
            ("json", "bounds.json", output.bound_rows_json, rows),
            ("svg", "bounds.svg", figure),
        ],
    )
    return EXIT_OK


def _cmd_simulate(ns: argparse.Namespace) -> int:
    m_values = sorted(set(_resolve_m_values(ns)))
    n = ns.n if ns.n is not None else 1024
    k_values = ns.K if ns.K is not None else [15, 30]
    cases = ns.cases if ns.cases is not None else list(_CASE_TOKENS.values())
    trials = ns.trials if ns.trials is not None else 1000
    seed = ns.seed if ns.seed is not None else _default_seed()
    if ns.threads is not None:
        threads = ns.threads
    elif hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, not all of the host's
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count() or 1

    try:
        config = ExperimentConfig(
            n=n,
            m_values=tuple(m_values),
            k_values=tuple(sorted(set(k_values))),
            cases=tuple(dict.fromkeys(cases)),
            trials=trials,
            master_seed=seed,
        )
    except ValueError as err:
        raise UsageError(str(err))

    def progress(done: int, total: int, point) -> None:
        print(
            f"[{done}/{total}] m={point.m} K={point.K} case={point.case.label()} "
            f"p={point.probability:.3f}",
            file=sys.stderr,
            flush=True,
        )

    result = run_experiment(config, workers=threads, progress=progress)

    figures = [
        (
            "svg",
            f"curves_K{K}_{case.label()}.svg",
            _recovery_svg,
            f"Exact recovery, K={K}, case={case.label()}, n={n}",
            [
                (p.m, p.probability, p.disparity_bound_value, p.baseline_bound_value)
                for p in result.points
                if p.K == K and p.case == case
            ],
        )
        for K in config.k_values
        for case in config.cases
    ]
    _write_artifacts(
        ns,
        ("csv", "json"),
        [
            ("csv", "results.csv", output.experiment_csv, result),
            ("json", "results.json", output.experiment_json, result),
            *figures,
        ],
    )
    return EXIT_OK


def _cmd_validate_phi(ns: argparse.Namespace) -> int:
    t_max = ns.t_max if ns.t_max is not None else 50
    trials = ns.trials if ns.trials is not None else 50000
    seed = ns.seed if ns.seed is not None else _default_seed()
    threshold = ns.threshold if ns.threshold is not None else 0.995
    phi = _resolve_phi(ns.phi if ns.phi is not None else "gauss", ns.alpha)
    # --threads is accepted for interface uniformity; the per-size loops
    # are vectorized and finish in seconds, so no pool is spun up, and
    # per-size substreams make the counts worker-independent anyway.

    report = validate_phi_empirical(phi, t_max, trials, StreamKey(seed))

    def figure() -> str:
        return svgplot.line_plot(
            [
                svgplot.Series(
                    f"phi={phi.label()}", report.sizes.tolist(),
                    report.probabilities.tolist(),
                )
            ],
            title=f"Disparity condition pass rate ({trials} draws per size)",
            x_label="subset size t",
            y_label="empirical probability",
            y_range=(0.9, 1.005),
        )

    _write_artifacts(
        ns,
        ("csv",),
        [
            ("csv", "phi_validation.csv", output.phi_validation_csv, report),
            ("json", "phi_validation.json", output.phi_validation_json,
             report, t_max, seed, threshold),
            ("svg", "phi_validation.svg", figure),
        ],
    )

    print(
        f"min probability {report.min_probability:.6f} at t={report.worst_size()} "
        f"(threshold {threshold:g})"
    )
    if report.min_probability < threshold:
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_plot_phi(ns: argparse.Namespace) -> int:
    alphas = ns.alphas if ns.alphas is not None else [1.0, 1.5, 2.0, 2.5]
    t_max = ns.t_max if ns.t_max is not None else 50

    t_values = list(range(1, t_max + 1))
    curves = []
    for a in alphas:
        if a == 1.0:
            # Limit of the geometric budget as the decay ratio tends to
            # 1; coincides with the Cauchy-Schwarz line t.
            values = [float(t) for t in t_values]
        elif a > 1.0:
            phi = PhiFunction.strongly_decaying(a)
            values = [phi(t) for t in t_values]
        else:
            raise UsageError(f"decay ratio must be 1 or greater than 1, got {a:g}")
        curves.append((f"alpha={a:g}", t_values, values))

    def figure() -> str:
        return svgplot.line_plot(
            [svgplot.Series(label, ts, vals) for label, ts, vals in curves],
            title="Disparity budget versus subset size",
            x_label="t",
            y_label="phi(t)",
        )

    _write_artifacts(
        ns,
        ("csv", "svg"),
        [
            ("csv", "phi_curves.csv", output.phi_curves_csv, curves),
            ("json", "phi_curves.json", output.phi_curves_json, curves),
            ("svg", "phi_curves.svg", figure),
        ],
    )
    return EXIT_OK


def _cmd_report(ns: argparse.Namespace) -> int:
    if not ns.inputs:
        raise UsageError("report needs at least one experiment CSV")
    needed = {"m", "K", "case", "empirical_prob", "new_bound", "existing_bound"}
    groups: Dict[Tuple[int, str], List[Tuple[int, float, float, float]]] = {}
    for path in ns.inputs:
        if not os.path.isfile(path):
            raise UsageError(f"input not found: {path}")
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
                raise UsageError(
                    f"{path} is not an experiment CSV (missing "
                    f"{sorted(needed.difference(reader.fieldnames or []))})"
                )
            for row in reader:
                try:
                    key = (int(row["K"]), row["case"])
                    groups.setdefault(key, []).append(
                        (
                            int(row["m"]),
                            float(row["empirical_prob"]),
                            float(row["new_bound"]),
                            float(row["existing_bound"]),
                        )
                    )
                except (KeyError, ValueError) as err:
                    raise UsageError(f"bad row in {path}: {err}")

    for (K, case_label), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        name = f"combined_K{K}_{case_label}.svg"
        svg = _recovery_svg(f"Exact recovery, K={K}, case={case_label}", rows)
        output.atomic_write_text(_out_path(ns, name), svg)
        print(f"wrote {name} ({len(rows)} points)")
    return EXIT_OK


_DISPATCH = {
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "validate-phi": _cmd_validate_phi,
    "plot-phi": _cmd_plot_phi,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version;
        # surface either as a return value so callers can test us.
        return int(exc.code or 0)
    try:
        _apply_config(ns, parser)
        return _DISPATCH[ns.subcommand](ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except TrialError as err:
        print(f"trial failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    sys.exit(main())
