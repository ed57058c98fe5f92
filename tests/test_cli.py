"""CLI behavior: flags, config files, exit codes, artifacts."""

import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from omp_lab import __version__, cli, montecarlo
from omp_lab.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_THRESHOLD,
    EXIT_USAGE,
    main,
)
from omp_lab.omp import DegenerateColumnError
from omp_lab.signals import SignalCase

_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

_SVG_NS = "{http://www.w3.org/2000/svg}"


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _polyline_count(path):
    return len(ET.fromstring(_read(path)).findall(f".//{_SVG_NS}polyline"))


def _run_python(code):
    """Stdout of a fresh interpreter that runs ``code`` with this
    package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def _sim_args(out_dir, *extra):
    return [
        "simulate",
        "--m", "24", "--m", "40",
        "--n", "64",
        "--K", "3",
        "--case", "flat",
        "--trials", "8",
        "--seed", "11",
        "--threads", "1",
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestBoundCommand:
    def test_single_point_two_rows(self, tmp_path, capsys):
        code = main(
            ["bound", "--m", "500", "--n", "1024", "--K", "15", "--phi", "cs",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "new=" in out and "existing=" in out
        lines = _read(tmp_path / "bounds.csv").strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "new"
        assert lines[2].split(",")[5] == "existing"

    def test_sweep_row_count(self, tmp_path):
        code = main(
            ["bound", "--m-sweep", "100:50:1000", "--n", "1024", "--K", "15",
             "--phi", "decay", "--alpha", "1.2", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = _read(tmp_path / "bounds.csv").strip().split("\n")
        assert len(lines) == 1 + 19 * 2

    def test_json_and_svg_formats(self, tmp_path):
        code = main(
            ["bound", "--m", "300", "--K", "15", "--formats", "csv,json,svg",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        doc = json.loads(_read(tmp_path / "bounds.json"))
        assert len(doc["rows"]) == 2
        assert _polyline_count(tmp_path / "bounds.svg") == 2

    def test_decay_requires_alpha(self, tmp_path, capsys):
        code = main(["bound", "--m", "500", "--K", "15", "--phi", "decay"])
        assert code == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err

    def test_m_and_sweep_conflict(self):
        assert (
            main(["bound", "--m", "100", "--m-sweep", "100:50:200", "--K", "15"])
            == EXIT_USAGE
        )

    def test_missing_m(self):
        assert main(["bound", "--K", "15"]) == EXIT_USAGE

    def test_infeasible_reported_not_error(self, tmp_path):
        code = main(
            ["bound", "--m", "16", "--n", "64", "--K", "15",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = _read(tmp_path / "bounds.csv").strip().split("\n")
        assert lines[1].split(",")[9] == "false"


class TestSimulateCommand:
    def test_writes_csv_and_json(self, tmp_path):
        assert main(_sim_args(tmp_path)) == EXIT_OK
        lines = _read(tmp_path / "results.csv").strip().split("\n")
        assert len(lines) == 3  # header + two m values
        doc = json.loads(_read(tmp_path / "results.json"))
        assert doc["config"]["trials"] == 8

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_sim_args(a)) == EXIT_OK
        assert main(_sim_args(b)) == EXIT_OK
        assert _read(a / "results.csv") == _read(b / "results.csv")
        assert _read(a / "results.json") == _read(b / "results.json")

    def test_thread_count_does_not_change_output(self, tmp_path, forks):
        # two (case, K) rows make two tasks, so --threads 3 forks two
        # worker processes
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_sim_args(a, "--case", "gauss")) == EXIT_OK
        args = _sim_args(b, "--case", "gauss")
        args[args.index("--threads") + 1] = "3"
        assert main(args) == EXIT_OK
        assert forks == [2]
        assert _read(a / "results.csv") == _read(b / "results.csv")

    def test_svg_per_k_case(self, tmp_path):
        assert (
            main(_sim_args(tmp_path, "--formats", "csv,svg", "--case", "gauss"))
            == EXIT_OK
        )
        for name in ("curves_K3_flat.svg", "curves_K3_gauss1.svg"):
            assert _polyline_count(tmp_path / name) == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trial_failure_exits_1(self, tmp_path, monkeypatch, capsys, forks, threads):
        # a pursuit that hits a dependent column is a failed trial
        def degenerate(*args):
            raise DegenerateColumnError(1, 0)

        monkeypatch.setattr(montecarlo, "recovers_stack", degenerate)
        # two (case, K) rows make two tasks, so --threads 2 forks two
        # workers, and the error crosses a pipe
        args = _sim_args(tmp_path, "--case", "gauss")
        args[args.index("--threads") + 1] = threads
        assert main(args) == EXIT_RUNTIME
        assert forks == ([] if threads == "1" else [2])
        assert "trial failure: trial 0 failed at m=24, K=3" in capsys.readouterr().err

    def test_threads_default_to_usable_cpus(self, tmp_path, monkeypatch, forks):
        # a process pinned to one CPU of a many-core host forks no worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = _sim_args(tmp_path, "--case", "gauss")
        at = args.index("--threads")
        del args[at:at + 2]
        assert main(args) == EXIT_OK
        assert forks == []

    def test_needs_m(self):
        assert main(["simulate", "--K", "3", "--trials", "2"]) == EXIT_USAGE

    def test_k_must_fit(self, capsys):
        assert (
            main(["simulate", "--m", "10", "--n", "64", "--K", "10",
                  "--trials", "2"])
            == EXIT_USAGE
        )

    def test_env_seed_used_as_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        args_no_seed = [
            "simulate", "--m", "24", "--n", "64", "--K", "3", "--case", "flat",
            "--trials", "6", "--threads", "1",
        ]
        monkeypatch.setenv("OMP_LAB_SEED", "11")
        assert main(args_no_seed + ["--out-dir", str(a)]) == EXIT_OK
        monkeypatch.delenv("OMP_LAB_SEED")
        assert (
            main(args_no_seed + ["--seed", "11", "--out-dir", str(b)]) == EXIT_OK
        )
        assert _read(a / "results.csv") == _read(b / "results.csv")

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[simulate]\n"
            "m = 24, 40\n"
            "n = 64\n"
            "K = 3\n"
            "case = flat\n"
            "trials = 8\n"
            "seed = 11\n"
            "threads = 1\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert (
            main(["simulate", "--config", str(ini), "--out-dir", str(a)])
            == EXIT_OK
        )
        assert main(_sim_args(b)) == EXIT_OK
        assert _read(a / "results.csv") == _read(b / "results.csv")
        # flags beat the file: different seed changes the counts file
        c = tmp_path / "c"
        assert (
            main(["simulate", "--config", str(ini), "--seed", "12",
                  "--out-dir", str(c)])
            == EXIT_OK
        )
        doc = json.loads(_read(c / "results.json"))
        assert doc["config"]["master_seed"] == 12

    def test_missing_config_file(self):
        assert main(["simulate", "--config", "/nonexistent.ini"]) == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[simulate]\nwarp = 9\n")
        assert main(["simulate", "--config", str(ini)]) == EXIT_USAGE


class TestValidatePhiCommand:
    def test_small_sizes_all_pass(self, tmp_path, capsys):
        code = main(
            ["validate-phi", "--t-max", "10", "--trials", "300", "--seed", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert "min probability 1.000000" in capsys.readouterr().out
        lines = _read(tmp_path / "phi_validation.csv").strip().split("\n")
        assert lines[0] == "t,trials,successes,empirical_probability"
        assert len(lines) == 11

    def test_single_size_probability_one(self, tmp_path):
        code = main(
            ["validate-phi", "--t-max", "1", "--trials", "100", "--seed", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = _read(tmp_path / "phi_validation.csv").strip().split("\n")
        assert lines[1] == "1,100,100,1"

    def test_threshold_one_fails(self, tmp_path):
        code = main(
            ["validate-phi", "--t-max", "32", "--trials", "800", "--seed", "1",
             "--threshold", "1.0", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_THRESHOLD

    def test_byte_identical_and_threads_independent(self, tmp_path):
        # the per-size loops are vectorized and run in process, so
        # validate-phi takes no --threads
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["validate-phi", "--t-max", "8", "--trials", "200", "--seed", "3"]
        assert main(base + ["--out-dir", str(a)]) == EXIT_OK
        assert main(base + ["--out-dir", str(b)]) == EXIT_OK
        assert _read(a / "phi_validation.csv") == _read(b / "phi_validation.csv")
        assert main(base + ["--threads", "2", "--out-dir", str(b)]) == EXIT_USAGE

    def test_svg_output(self, tmp_path):
        code = main(
            ["validate-phi", "--t-max", "6", "--trials", "100", "--seed", "1",
             "--formats", "csv,svg", "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert _polyline_count(tmp_path / "phi_validation.svg") == 1


class TestPlotPhiCommand:
    def test_default_curves(self, tmp_path):
        code = main(["plot-phi", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = _read(tmp_path / "phi_curves.csv").strip().split("\n")
        assert len(lines) == 1 + 4 * 50
        assert _polyline_count(tmp_path / "phi_curves.svg") == 4
        # the sentinel ratio renders the identity line
        assert "alpha=1,50,50" in lines

    def test_identity_line_dominates(self, tmp_path):
        assert main(["plot-phi", "--out-dir", str(tmp_path)]) == EXIT_OK
        rows = [
            line.split(",")
            for line in _read(tmp_path / "phi_curves.csv").strip().split("\n")[1:]
        ]
        by_curve = {}
        for label, t, value in rows:
            by_curve.setdefault(label, {})[int(t)] = float(value)
        for label, values in by_curve.items():
            if label == "alpha=1":
                continue
            for t in range(2, 51):
                assert values[t] < by_curve["alpha=1"][t]

    def test_degenerate_range(self, tmp_path):
        code = main(["plot-phi", "--t-max", "1", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        lines = _read(tmp_path / "phi_curves.csv").strip().split("\n")
        assert len(lines) == 5

    def test_large_t_flattens_below_limit(self, tmp_path):
        assert (
            main(["plot-phi", "--alpha", "2", "--t-max", "60",
                  "--out-dir", str(tmp_path)])
            == EXIT_OK
        )
        rows = _read(tmp_path / "phi_curves.csv").strip().split("\n")[1:]
        values = {int(r.split(",")[1]): float(r.split(",")[2]) for r in rows}
        assert 2.99 < values[20] < 3.0
        assert values[20] < values[60] <= 3.0

    def test_alpha_below_one_rejected(self, capsys):
        assert main(["plot-phi", "--alpha", "0.5"]) == EXIT_USAGE


class TestReportCommand:
    def test_merges_two_csvs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_sim_args(a)) == EXIT_OK
        args = [
            "simulate", "--m", "56", "--n", "64", "--K", "3", "--case", "flat",
            "--trials", "8", "--seed", "11", "--threads", "1",
            "--out-dir", str(b),
        ]
        assert main(args) == EXIT_OK
        out = tmp_path / "merged"
        code = main(
            ["report", str(a / "results.csv"), str(b / "results.csv"),
             "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        assert _polyline_count(out / "combined_K3_flat.svg") == 3

    def test_requires_inputs(self):
        assert main(["report"]) == EXIT_USAGE

    def test_missing_input(self):
        assert main(["report", "/nonexistent.csv"]) == EXIT_USAGE

    def test_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["report", str(bad)]) == EXIT_USAGE

    def test_rejects_short_row(self, tmp_path, capsys):
        bad = tmp_path / "results.csv"
        bad.write_text("m,K,case,empirical_prob,new_bound,existing_bound\n24,3\n")
        assert main(["report", str(bad), "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert f"bad row in {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["../../escaped", "a/b", ".", ".."])
    def test_rejects_case_that_is_not_a_file_name(self, tmp_path, capsys, case):
        # the case cell becomes part of an output file name
        bad = tmp_path / "results.csv"
        bad.write_text(
            "m,K,case,empirical_prob,new_bound,existing_bound\n"
            f"24,3,{case},0.5,0.25,0.125\n"
        )
        out = tmp_path / "out" / "deeper"
        before = sorted(tmp_path.rglob("*"))
        assert main(["report", str(bad), "--out-dir", str(out)]) == EXIT_USAGE
        assert f"bad row in {bad}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def _results_csv(self, out_dir, n):
        args = [
            "simulate", "--m", "40", "--m", "60", "--n", str(n), "--K", "5",
            "--case", "flat", "--trials", "20", "--threads", "1", "--formats", "csv",
            "--out-dir", str(out_dir),
        ]
        assert main(args) == EXIT_OK
        return str(out_dir / "results.csv")

    def test_rejects_curves_of_two_n(self, tmp_path, capsys):
        inputs = [self._results_csv(tmp_path / "a", 128), self._results_csv(tmp_path / "b", 256)]
        capsys.readouterr()
        out = tmp_path / "merged"
        assert main(["report", *inputs, "--out-dir", str(out)]) == EXIT_USAGE
        assert "K=5, case=flat mixes n=128 and n=256" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_a_file_given_twice(self, tmp_path, capsys):
        results = self._results_csv(tmp_path / "a", 128)
        capsys.readouterr()
        out = tmp_path / "merged"
        assert main(["report", results, results, "--out-dir", str(out)]) == EXIT_USAGE
        assert "K=5, case=flat has m=40 twice" in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "omp-lab" in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(path, "rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == __version__

    def test_runs_as_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "omp_lab.cli", "--version"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == f"omp-lab {__version__}\n"

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_flag_value(self):
        assert main(["bound", "--m", "zero", "--K", "3"]) == EXIT_USAGE

    def test_import_loads_no_scipy_or_unused_stdlib(self):
        # numpy is the only runtime dependency; scipy is a test extra.  Nor
        # does the CLI pull in the stdlib's XML, network or statistics
        # stacks, or the process-pool stack: workers are plain forks.  The
        # config parser and the CSV reader load only where --config or
        # report needs them, nothing hashes, and the plotter escapes
        # without html's entity table.
        forbidden = (
            "scipy", "xml.sax", "urllib.request", "http", "ssl", "email",
            "statistics", "concurrent", "logging", "multiprocessing",
            "configparser", "csv", "hashlib", "html",
        )
        code = (
            "import json, sys, omp_lab.cli; print(json.dumps(sorted("
            "m for m in sys.modules if any(m == p or m.startswith(p + '.') "
            f"for p in {forbidden!r}))))"
        )
        assert json.loads(_run_python(code)) == []

    def test_import_leaves_numpy_random_unloaded(self):
        # loading it costs a forked worker about 20 ms and 4.5 MB of RSS,
        # and in a process that loads OpenSSL's hashes with it (a
        # one-process run) about 4 ms and 3.4 MB more; only the process
        # that draws trials should pay
        code = "import sys, omp_lab.cli; print('numpy.random' in sys.modules)"
        assert _run_python(code) == "False\n"

    @pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
    def test_help_explains_every_option(self, subcommand, capsys):
        assert main([subcommand, "--help"]) == EXIT_OK
        # argparse wraps lines, so compare with whitespace removed
        text = "".join(capsys.readouterr().out.split())
        for opt in cli._COMMANDS[subcommand][1]:
            assert opt.help
            line = f"--{opt.flag} {opt.metavar or opt.attr.upper()} {opt.help}"
            if opt.default is not None and not callable(opt.default):
                line += f" (default: {cli._shown(opt.default)})"
            assert "".join(line.split()) in text

    def test_heap_frozen_at_exit(self):
        # atexit handlers run last-registered first, so a probe registered
        # before the import runs after the CLI's handler
        code = (
            "import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            "import omp_lab.cli\n"
            "assert gc.get_freeze_count() == 0\n"
        )
        assert int(_run_python(code)) > 0


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_alpha_flag(self, value):
        args = ["bound", "--m", "500", "--K", "15", "--phi", "decay", "--alpha", value]
        assert main(args) == EXIT_USAGE

    # a threshold is a probability: finite values outside [0, 1] are
    # usage errors too
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "-0.001", "1.001", "1.5"])
    def test_threshold_flag(self, value):
        args = ["validate-phi", "--t-max", "2", "--trials", "10", "--threshold", value]
        assert main(args) == EXIT_USAGE

    @pytest.mark.parametrize(
        "section, line, args",
        [
            ("bound", "alpha = inf", ["--m", "500", "--K", "15", "--phi", "decay"]),
            ("validate-phi", "threshold = nan", ["--t-max", "2", "--trials", "10"]),
            ("plot-phi", "alpha = 2, inf", []),
            ("validate-phi", "threshold = -1", ["--t-max", "2", "--trials", "10"]),
            ("validate-phi", "threshold = 1.5", ["--t-max", "2", "--trials", "10"]),
        ],
    )
    def test_config_value(self, tmp_path, section, line, args):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{line}\n")
        code = main([section, "--config", str(ini), "--out-dir", str(tmp_path), *args])
        assert code == EXIT_USAGE


class TestConfigKeysFromFlags:
    def _run(self, tmp_path, subcommand, text, *args):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        return main(
            [subcommand, "--config", str(ini), "--out-dir", str(tmp_path / "out"), *args]
        )

    def _namespace(self, monkeypatch, argv):
        seen = []
        help_text, options, _ = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(
            cli._COMMANDS, argv[0],
            (help_text, options, lambda ns: seen.append(ns) or EXIT_OK),
        )
        assert main(argv) == EXIT_OK
        return {k: v for k, v in vars(seen[0]).items() if k != "config"}

    def test_choices_checked(self, tmp_path, capsys):
        code = self._run(tmp_path, "bound", "[bound]\nm = 500\nK = 15\nphi = gaus\n")
        assert code == EXIT_USAGE
        assert "phi" in capsys.readouterr().err

    def test_lower_case_k_with_sweep(self, tmp_path):
        text = (
            "[simulate]\nm_sweep = 24:16:40\nn = 64\nk = 3\ncase = flat\n"
            "trials = 4\nthreads = 1\n"
        )
        assert self._run(tmp_path, "simulate", text) == EXIT_OK
        lines = _read(tmp_path / "out" / "results.csv").strip().split("\n")
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["24", "64", "3"], ["40", "64", "3"]
        ]

    def test_repeatable_flag_takes_comma_list(self, tmp_path):
        text = "[plot-phi]\nalpha = 1.5, 2\nt-max = 3\n"
        assert self._run(tmp_path, "plot-phi", text) == EXIT_OK
        rows = _read(tmp_path / "out" / "phi_curves.csv").strip().split("\n")[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["alpha=1.5", "alpha=2"]

    @pytest.mark.parametrize(
        "subcommand, key, text",
        [
            ("bound", "m", "[bound]\nm =\nK = 15\n"),
            ("plot-phi", "alpha", "[plot-phi]\nalpha = ,\n"),
            ("simulate", "K", "[simulate]\nm = 24\nn = 64\nK =\ntrials = 4\nthreads = 1\n"),
        ],
        ids=["bound", "plot-phi", "simulate"],
    )
    def test_empty_comma_list(self, tmp_path, capsys, subcommand, key, text):
        # an empty list would otherwise give header-only artifacts, a
        # traceback or a late error
        assert self._run(tmp_path, subcommand, text) == EXIT_USAGE
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")

    def test_config_key_itself_unknown(self, tmp_path, capsys):
        assert self._run(tmp_path, "simulate", "[simulate]\nconfig = x\n") == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_shipped_configs(self, monkeypatch):
        # the namespace holds every option resolved: flag, else file, else
        # the table's default
        monkeypatch.delenv("OMP_LAB_SEED", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        quick = os.path.join(_CONFIGS, "quick.ini")
        reference = os.path.join(_CONFIGS, "reference.ini")
        unset = dict(out_dir=".", m=None, threads=3)
        assert self._namespace(monkeypatch, ["simulate", "--config", quick]) == dict(
            unset, subcommand="simulate", m_sweep=[40, 60, 80, 100, 120], n=256, K=[5],
            cases=[SignalCase.flat(), SignalCase.decaying(1.2)], trials=50, seed=0,
            formats=("csv", "svg"),
        )
        assert self._namespace(monkeypatch, ["validate-phi", "--config", quick]) == dict(
            subcommand="validate-phi", out_dir=".", t_max=32, trials=5000, seed=0,
            phi="gauss", alpha=None, threshold=0.995, formats=("csv",),
        )
        assert self._namespace(monkeypatch, ["simulate", "--config", reference]) == dict(
            unset, subcommand="simulate", m_sweep=list(range(100, 1001, 50)), n=1024,
            K=[15, 30],
            cases=[SignalCase.flat(), SignalCase.decaying(1.1),
                   SignalCase.decaying(1.2), SignalCase.gaussian(1.0)],
            trials=1000, seed=0, formats=("csv", "json", "svg"),
        )
        assert self._namespace(monkeypatch, ["bound", "--config", reference]) == dict(
            subcommand="bound", out_dir=".", m=None, m_sweep=list(range(100, 1001, 50)),
            n=1024, K=15, phi="cs", alpha=None, formats=("csv", "svg"),
        )

    @pytest.mark.parametrize(
        "subcommand, option",
        [(name, opt) for name, (_, options, _) in cli._COMMANDS.items() for opt in options],
        ids=lambda v: v if isinstance(v, str) else v.flag,
    )
    def test_flag_and_config_key_agree(self, tmp_path, monkeypatch, subcommand, option):
        monkeypatch.delenv("OMP_LAB_SEED", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        text = _OPTION_SAMPLES[option.flag]
        by_flag = self._namespace(monkeypatch, [subcommand, f"--{option.flag}", text])
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{subcommand}]\n{option.flag} = {text}\n")
        by_config = self._namespace(monkeypatch, [subcommand, "--config", str(ini)])
        value = option.type(text)
        assert by_flag[option.attr] == ([value] if option.repeat else value)
        assert by_flag[option.attr] != self._namespace(monkeypatch, [subcommand])[option.attr]
        assert by_config == by_flag


# A value for each option of the table, other than its default.
_OPTION_SAMPLES = {
    "out-dir": "elsewhere", "m": "24", "m-sweep": "24:16:56", "n": "64", "K": "3",
    "case": "decay11", "trials": "7", "seed": "5", "threads": "9", "formats": "json,svg",
    "t-max": "9", "phi": "decay", "alpha": "1.5", "threshold": "0.5",
}


def _csv_cell(value):
    """How a JSON row value is written in the matching CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


class TestCsvJsonAgreement:
    @pytest.mark.parametrize(
        "stem, rows_key, args",
        [
            ("bounds", "rows",
             ["bound", "--m", "16", "--m", "300", "--n", "64", "--K", "15",
              "--phi", "decay", "--alpha", "1.2"]),
            ("results", "points",
             ["simulate", "--m", "24", "--m", "40", "--n", "64", "--K", "3",
              "--case", "flat", "--case", "gauss", "--trials", "4", "--threads", "1"]),
            ("phi_validation", "rows",
             ["validate-phi", "--t-max", "4", "--trials", "50"]),
        ],
    )
    def test_same_table(self, tmp_path, stem, rows_key, args):
        code = main(args + ["--formats", "csv,json", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / f"{stem}.csv", newline="", encoding="utf-8") as handle:
            header, *cells = list(csv.reader(handle))
        records = json.loads(_read(tmp_path / f"{stem}.json"))[rows_key]
        assert len(records) == len(cells) > 0
        for record, row in zip(records, cells):
            assert list(record) == header
            assert [_csv_cell(v) for v in record.values()] == row
