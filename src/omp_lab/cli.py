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

``_COMMANDS`` declares each subcommand once: its help line, its handler
and every option, with the option's flag, which is also its config key,
its type function, its default and its help line.  The parser and its
``--help``, the dispatch, the INI config file (one section per
subcommand, keys spelled like the flag with ``-`` or ``_`` in any case,
repeatable flags as comma lists) and the defaults all come from it.
Flags win over the file, the file over the default; the master seed's
default is the ``OMP_LAB_SEED`` environment variable, else 0.  Exit
codes: 0 success, 1 runtime failure, 2 usage error, 3 threshold not met.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__, output, svgplot
from . import bounds as bounds_mod
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
# run before the freeze; nothing changes before exit.  Forked workers
# leave through os._exit and run no exit handler.
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


def _parse_choice(what: str, tokens: Dict[str, Any]) -> Callable[[str], Any]:
    """A type function that maps each of ``tokens`` to its value."""

    def parse(text: str) -> Any:
        token = text.strip()
        if token not in tokens:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {token!r}; choose from {', '.join(sorted(tokens))}"
            )
        return tokens[token]

    return parse


def _default_seed() -> int:
    try:
        return _parse_seed(os.environ.get(SEED_ENV_VAR, "0"))
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"bad {SEED_ENV_VAR}: {err}")


def _usable_cpus() -> int:
    """The CPUs this process may run on, not all of the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Option(NamedTuple):
    """One long flag of a subcommand; ``flag`` is also its config key.

    A callable ``default`` is called when the default is used; ``help``
    then names it in words, while any other default is appended to the
    help by :func:`build_parser`.  A repeatable option collects a list,
    from repeated flags or from one comma list in a config file.
    """

    flag: str
    type: Callable[[str], Any]
    default: Any = None
    repeat: bool = False
    dest: Optional[str] = None
    metavar: Optional[str] = None
    help: str = ""

    @property
    def attr(self) -> str:
        """The option's namespace attribute."""
        return self.dest or self.flag.replace("-", "_")


_OUT_DIR = Option("out-dir", str, ".", help="directory the artifacts are written to")
_M = Option("m", _parse_positive_int, repeat=True,
            help="number of measurements; repeat for more values")
_M_SWEEP = Option("m-sweep", _parse_sweep, metavar="LO:STEP:HI",
                  help="m from LO to HI in steps of STEP, instead of --m")
_N = Option("n", _parse_positive_int, 1024, help="signal length")
_SEED = Option("seed", _parse_seed, _default_seed,
               help=f"master seed of every random draw (default: ${SEED_ENV_VAR}, else 0)")
_PHI = Option("phi", _parse_choice("phi", {v: v for v in ("cs", "decay", "gauss")}),
              metavar="{cs,decay,gauss}",
              help="disparity budget: Cauchy-Schwarz, geometric decay "
              "(needs --alpha) or Gaussian empirical")
_ALPHA = Option("alpha", _parse_float, help="decay ratio of --phi decay, above 1")
_T_MAX = Option("t-max", _parse_positive_int, 50, help="largest subset size t")
_FORMATS = Option("formats", _parse_formats,
                  help="comma list of artifact formats, from " + ", ".join(_ALL_FORMATS))

def _shown(value: Any) -> str:
    """A default as a config file would spell it."""
    if isinstance(value, tuple):
        return ",".join(_shown(v) for v in value)
    if isinstance(value, SignalCase):
        return next(token for token, case in _CASE_TOKENS.items() if case == value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omp-lab",
        description="Sparse-recovery experiments: pursuit solver, "
        "probability bounds, Monte Carlo sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"omp-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file; flags override it")
        for opt in options:
            shown = opt.default is not None and not callable(opt.default)
            p.add_argument(
                f"--{opt.flag}",
                action="append" if opt.repeat else "store",
                type=opt.type,
                dest=opt.attr,
                metavar=opt.metavar,
                help=f"{opt.help} (default: {_shown(opt.default)})" if shown else opt.help,
            )
        if name == "report":
            p.add_argument("inputs", nargs="*", metavar="CSV")
    return parser


def _resolve_options(ns: argparse.Namespace) -> None:
    """Set every option the flags left unset: from the subcommand's
    section of the ``--config`` file, converted and checked by the
    option's type (a repeatable option's value is a comma list), else
    from the option's default."""
    options = {opt.flag.lower(): opt for opt in _COMMANDS[ns.subcommand][1]}
    if ns.config is not None:
        if not os.path.isfile(ns.config):
            raise UsageError(f"config file not found: {ns.config}")
        import configparser  # only a --config run needs it

        ini = configparser.ConfigParser()
        ini.optionxform = str  # keep key case for error messages
        try:
            ini.read(ns.config)
        except configparser.Error as err:
            raise UsageError(f"cannot parse config file: {err}")
        for key, text in ini[ns.subcommand].items() if ns.subcommand in ini else ():
            opt = options.get(key.replace("_", "-").lower())
            if opt is None:
                raise UsageError(f"unknown config key {key!r} in section [{ns.subcommand}]")
            if getattr(ns, opt.attr) is not None:
                continue
            tokens = [t.strip() for t in text.split(",") if t.strip()] if opt.repeat else [text]
            if not tokens:
                raise UsageError(f"config key {key!r} needs at least one value")
            try:
                values = [opt.type(token) for token in tokens]
            except (argparse.ArgumentTypeError, TypeError, ValueError) as err:
                raise UsageError(f"bad config value for {key!r}: {err}")
            setattr(ns, opt.attr, values if opt.repeat else values[0])
    for opt in options.values():
        if getattr(ns, opt.attr) is None:
            setattr(ns, opt.attr, opt.default() if callable(opt.default) else opt.default)


def _resolve_m_values(ns: argparse.Namespace) -> List[int]:
    if ns.m is not None and ns.m_sweep is not None:
        raise UsageError("give either --m or --m-sweep, not both")
    m_values = ns.m if ns.m_sweep is None else ns.m_sweep
    if m_values is None:
        raise UsageError("no m values given (use --m or --m-sweep)")
    return m_values


def _resolve_phi(variant: str, alpha: Optional[float]) -> PhiFunction:
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
    if ns.out_dir:  # "" names the current directory
        os.makedirs(ns.out_dir, exist_ok=True)
    return os.path.join(ns.out_dir, name)


def _write_artifacts(ns: argparse.Namespace, *artifacts: tuple) -> None:
    """Write each ``(format, file name, render, *args)`` artifact whose
    format ``--formats`` asks for; the text is ``render(*args)``, so
    formats not asked for are never rendered."""
    for fmt, name, render, *args in artifacts:
        if fmt in ns.formats:
            output.atomic_write_text(_out_path(ns, name), render(*args))


def _recovery_svg(title: str, rows: Sequence[Tuple[int, float, float, float]]) -> str:
    """Empirical recovery rate against both bounds, from ``(m, empirical,
    new bound, existing bound)`` rows in m order."""
    ms = [r[0] for r in rows]
    return svgplot.line_plot(
        [
            (label, ms, [r[i] for r in rows])
            for i, label in enumerate(("empirical", "new bound", "existing bound"), 1)
        ],
        title=title,
        x_label="m",
        y_label="probability",
        y_range=(0.0, 1.05),
    )


def _cmd_bound(ns: argparse.Namespace) -> int:
    m_values = _resolve_m_values(ns)
    n, K = ns.n, ns.K
    if K is None:
        raise UsageError("--K is required")
    if not K < n:
        raise UsageError(f"need K < n, got K={K}, n={n}")
    phi = _resolve_phi(ns.phi, ns.alpha)

    rows = []
    news, bases = bounds_mod.maximize_bounds(
        [(m, n, K, phi) for m in m_values], [(m, n, K) for m in m_values]
    )
    for m, new, base in zip(m_values, news, bases):
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
                (f"{name} bound", m_values, [r[5].value for r in rows if r[4] == name])
                for name in ("new", "existing")
            ],
            title=f"Recovery bounds, K={K}, n={n}, phi={phi.label()}",
            x_label="m",
            y_label="probability lower bound",
            y_range=(0.0, 1.05),
        )

    _write_artifacts(
        ns,
        ("csv", "bounds.csv", output.bound_rows_csv, rows),
        ("json", "bounds.json", output.bound_rows_json, rows),
        ("svg", "bounds.svg", figure),
    )
    return EXIT_OK


def _cmd_simulate(ns: argparse.Namespace) -> int:
    m_values = sorted(set(_resolve_m_values(ns)))
    try:
        config = ExperimentConfig(
            n=ns.n,
            m_values=tuple(m_values),
            k_values=tuple(sorted(set(ns.K))),
            cases=tuple(dict.fromkeys(ns.cases)),
            trials=ns.trials,
            master_seed=ns.seed,
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

    result = run_experiment(config, workers=ns.threads, progress=progress)

    figures = [
        (
            "svg",
            f"curves_K{K}_{case.label()}.svg",
            _recovery_svg,
            f"Exact recovery, K={K}, case={case.label()}, n={ns.n}",
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
        ("csv", "results.csv", output.experiment_csv, result),
        ("json", "results.json", output.experiment_json, result),
        *figures,
    )
    return EXIT_OK


def _cmd_validate_phi(ns: argparse.Namespace) -> int:
    t_max, trials, seed, threshold = ns.t_max, ns.trials, ns.seed, ns.threshold
    phi = _resolve_phi(ns.phi, ns.alpha)
    report = validate_phi_empirical(phi, t_max, trials, StreamKey(seed))

    def figure() -> str:
        return svgplot.line_plot(
            [
                (
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
        ("csv", "phi_validation.csv", output.phi_validation_csv, report),
        ("json", "phi_validation.json", output.phi_validation_json,
         report, t_max, seed, threshold),
        ("svg", "phi_validation.svg", figure),
    )

    print(
        f"min probability {report.min_probability:.6f} at t={report.worst_size()} "
        f"(threshold {threshold:g})"
    )
    if report.min_probability < threshold:
        return EXIT_THRESHOLD
    return EXIT_OK


def _cmd_plot_phi(ns: argparse.Namespace) -> int:
    t_values = list(range(1, ns.t_max + 1))
    curves = []
    for a in ns.alphas:
        if a < 1.0:
            raise UsageError(f"decay ratio must be 1 or greater than 1, got {a:g}")
        # The geometric budget tends to the Cauchy-Schwarz line t as the
        # decay ratio tends to 1.
        if a == 1.0:
            phi = PhiFunction.cauchy_schwarz()
        else:
            phi = PhiFunction.strongly_decaying(a)
        curves.append((f"alpha={a:g}", t_values, [phi(t) for t in t_values]))

    def figure() -> str:
        return svgplot.line_plot(
            curves,
            title="Disparity budget versus subset size",
            x_label="t",
            y_label="phi(t)",
        )

    _write_artifacts(
        ns,
        ("csv", "phi_curves.csv", output.phi_curves_csv, curves),
        ("json", "phi_curves.json", output.phi_curves_json, curves),
        ("svg", "phi_curves.svg", figure),
    )
    return EXIT_OK


def _cmd_report(ns: argparse.Namespace) -> int:
    import csv  # only report reads CSV

    if not ns.inputs:
        raise UsageError("report needs at least one experiment CSV")
    needed = {"m", "K", "case", "empirical_prob", "new_bound", "existing_bound"}
    # One curve per (K, case): its points by m, and the n of its rows
    # where the CSV has that column.
    groups: Dict[Tuple[int, str], Dict[int, Tuple[int, float, float, float]]] = {}
    n_of: Dict[Tuple[int, str], int] = {}
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
                    if None in row.values():
                        raise ValueError("too few cells")
                    case = row["case"]
                    if case in (".", "..") or any(c in case for c in ("/", os.sep, "\0")):
                        raise ValueError(f"case {case!r} is not a bare file-name label")
                    K, m = int(row["K"]), int(row["m"])
                    n = int(row["n"]) if "n" in row else None
                    point = (m, float(row["empirical_prob"]),
                             float(row["new_bound"]), float(row["existing_bound"]))
                except (KeyError, ValueError) as err:
                    raise UsageError(f"bad row in {path}: {err}")
                points = groups.setdefault((K, case), {})
                if n is not None and n_of.setdefault((K, case), n) != n:
                    raise UsageError(
                        f"{path}: K={K}, case={case} mixes n={n_of[K, case]} and n={n}; "
                        "merge one n per curve"
                    )
                if m in points:
                    raise UsageError(f"{path}: K={K}, case={case} has m={m} twice")
                points[m] = point

    for (K, case_label), points in sorted(groups.items()):
        rows = [points[m] for m in sorted(points)]
        name = f"combined_K{K}_{case_label}.svg"
        svg = _recovery_svg(f"Exact recovery, K={K}, case={case_label}", rows)
        output.atomic_write_text(_out_path(ns, name), svg)
        print(f"wrote {name} ({len(rows)} points)")
    return EXIT_OK


# (help, options, handler) of each subcommand; the options are all but
# --config, which names the file.
_COMMANDS: Dict[str, Tuple[str, Tuple[Option, ...], Callable[[argparse.Namespace], int]]] = {
    "bound": ("evaluate the probability bounds", (
        _OUT_DIR, _M, _M_SWEEP, _N,
        Option("K", _parse_positive_int, help="sparsity level"),
        _PHI._replace(default="cs"),
        _ALPHA,
        _FORMATS._replace(default=("csv",)),
    ), _cmd_bound),
    "simulate": ("run the Monte Carlo experiment", (
        _OUT_DIR, _M, _M_SWEEP, _N,
        Option("K", _parse_positive_int, (15, 30), repeat=True,
               help="sparsity level; repeat for more values"),
        Option("case", _parse_choice("case", _CASE_TOKENS), tuple(_CASE_TOKENS.values()),
               repeat=True, dest="cases", metavar="{" + "|".join(sorted(_CASE_TOKENS)) + "}",
               help="signal magnitudes; repeat for more cases"),
        Option("trials", _parse_positive_int, 1000, help="trials per grid point"),
        _SEED,
        Option("threads", _parse_positive_int, _usable_cpus,
               help="worker processes, each placed on its own CPU (default: the "
               "number of CPUs in this process's affinity mask)"),
        _FORMATS._replace(default=("csv", "json")),
    ), _cmd_simulate),
    "validate-phi": ("empirical disparity check", (
        _OUT_DIR, _T_MAX,
        Option("trials", _parse_positive_int, 50000, help="Gaussian draws per size t"),
        _SEED,
        _PHI._replace(default="gauss"),
        _ALPHA,
        Option("threshold", _parse_probability, 0.995,
               help="least pass rate at every size t; below it, exit 3"),
        _FORMATS._replace(default=("csv",)),
    ), _cmd_validate_phi),
    "plot-phi": ("tabulate/plot budget curves", (
        _OUT_DIR,
        Option("alpha", _parse_float, (1.0, 1.5, 2.0, 2.5), repeat=True, dest="alphas",
               help="decay ratio of a curve, 1 or above; repeat for more curves"),
        _T_MAX._replace(help="largest t of the curves"),
        _FORMATS._replace(default=("csv", "svg")),
    ), _cmd_plot_phi),
    "report": ("merge experiment CSVs into SVGs", (_OUT_DIR,), _cmd_report),
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
        _resolve_options(ns)
        return _COMMANDS[ns.subcommand][2](ns)
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


if __name__ == "__main__":
    run()
