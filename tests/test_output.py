"""Serialization and the internal SVG plotter."""

import html
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from omp_lab import __version__, output, svgplot
from omp_lab.bounds import baseline_bound, disparity_bound
from omp_lab.montecarlo import ExperimentConfig, run_experiment
from omp_lab.phi import PhiFunction, validate_phi_empirical
from omp_lab.signals import SignalCase, StreamKey


def _result():
    config = ExperimentConfig(
        n=64,
        m_values=(24, 40),
        k_values=(3,),
        cases=(SignalCase.flat(),),
        trials=6,
        master_seed=5,
    )
    return run_experiment(config)


class TestFormatFloat:
    def test_round_trips_doubles(self):
        for value in (0.1, 1.0 / 3.0, 1e-300, 123456.789, 5.0):
            assert float(output.format_float(value)) == value

    def test_plain_integers_stay_short(self):
        assert output.format_float(1.0) == "1"
        assert output.format_float(0.5) == "0.5"


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        output.atomic_write_text(str(target), "first\n")
        output.atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"
        # no stray temp files
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_mode_follows_umask(self, tmp_path):
        # the same mode as a file made by open(path, "w"), not mkstemp's 0600
        target = tmp_path / "out.txt"
        old = os.umask(0o022)
        try:
            output.atomic_write_text(str(target), "text\n")
        finally:
            os.umask(old)
        assert target.stat().st_mode & 0o777 == 0o644

    def test_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # reading the umask means setting it, which races with any thread
        # that creates a file meanwhile; the kernel applies it instead
        def umask(mask):
            raise AssertionError("atomic_write_text changed the umask")

        monkeypatch.setattr(os, "umask", umask)
        output.atomic_write_text(str(tmp_path / "out.txt"), "text\n")
        assert os.listdir(tmp_path) == ["out.txt"]


class TestExperimentSerialization:
    def test_csv_schema_and_values(self):
        result = _result()
        text = output.experiment_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "m,n,K,case,trials,successes,empirical_prob,ci_low,ci_high,"
            "new_bound,existing_bound"
        )
        assert len(lines) == 1 + len(result.points)
        first = lines[1].split(",")
        p = result.points[0]
        assert first[:6] == ["24", "64", "3", "flat", "6", str(p.successes)]
        assert float(first[6]) == p.probability
        assert float(first[9]) == p.disparity_bound_value
        assert float(first[10]) == p.baseline_bound_value

    def test_csv_deterministic(self):
        assert output.experiment_csv(_result()) == output.experiment_csv(_result())

    def test_json_provenance(self):
        result = _result()
        doc = json.loads(output.experiment_json(result))
        assert doc["version"] == __version__
        assert doc["config"]["master_seed"] == 5
        assert doc["config"]["cases"] == [{"kind": "flat"}]
        assert doc["config"]["m_values"] == [24, 40]
        assert doc["config"]["sampler"] == "reduced-bartlett"
        assert len(doc["points"]) == 2
        point = doc["points"][0]
        assert point["case"] == "flat"
        assert 0.0 <= point["ci_low"] <= point["empirical_prob"] <= point["ci_high"]


class TestBoundRowsCsv:
    def test_schema_and_phi_cells(self):
        phi = PhiFunction.strongly_decaying(1.2)
        new = disparity_bound(500, 1024, 15, phi)
        base = baseline_bound(500, 1024, 15)
        infeasible = baseline_bound(10, 1024, 15)
        text = output.bound_rows_csv(
            [
                (500, 1024, 15, phi, "new", new),
                (500, 1024, 15, None, "existing", base),
                (10, 1024, 15, None, "existing", infeasible),
            ]
        )
        lines = text.strip().split("\n")
        assert lines[0] == (
            "m,n,K,phi_variant,phi_param,bound_name,value,epsilon_star,"
            "interval_upper,feasible"
        )
        new_row = lines[1].split(",")
        assert new_row[3] == "decay"
        assert float(new_row[4]) == 1.2
        assert new_row[5] == "new"
        assert new_row[9] == "true"
        base_row = lines[2].split(",")
        assert base_row[3] == "" and base_row[4] == ""
        bad_row = lines[3].split(",")
        assert bad_row[6] == "0" and bad_row[7] == "" and bad_row[9] == "false"


class TestPhiCsv:
    def test_validation_report(self):
        report = validate_phi_empirical(
            PhiFunction.gaussian_empirical(), 4, 50, StreamKey(2)
        )
        lines = output.phi_validation_csv(report).strip().split("\n")
        assert lines[0] == "t,trials,successes,empirical_probability"
        assert len(lines) == 5
        t, trials, successes, prob = lines[1].split(",")
        assert (t, trials) == ("1", "50")
        assert float(prob) == int(successes) / 50

    def test_curves(self):
        text = output.phi_curves_csv(
            [("alpha=2", [1, 2], [1.0, 5.0 / 3.0])]
        )
        lines = text.strip().split("\n")
        assert lines[0] == "curve,t,phi"
        assert lines[1] == "alpha=2,1,1"
        assert lines[2].startswith("alpha=2,2,1.666666666666666")

    def test_curves_length_mismatch(self):
        with pytest.raises(ValueError):
            output.phi_curves_csv([("x", [1, 2], [1.0])])


class TestSvgPlot:
    def _series(self):
        return [
            ("one", [1.0, 2.0, 3.0], [0.1, 0.5, 0.9]),
            ("two", [1.0, 2.0, 3.0], [0.2, 0.3, 0.4]),
        ]

    def test_well_formed_with_one_polyline_per_series(self):
        text = svgplot.line_plot(self._series(), "title", "x", "y")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        # legend and labels present as text elements
        texts = [t.text for t in root.findall(f".//{ns}text")]
        assert "one" in texts and "two" in texts and "title" in texts

    def test_nonfinite_points_dropped(self):
        series = [("s", [1.0, 2.0, 3.0], [0.5, np.nan, 0.7])]
        text = svgplot.line_plot(series, "t", "x", "y")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        pts = root.findall(f".//{ns}polyline")[0].attrib["points"]
        assert len(pts.split()) == 2

    def test_all_nan_series_keeps_empty_polyline(self):
        series = [
            ("good", [1.0, 2.0], [0.1, 0.2]),
            ("empty", [1.0, 2.0], [np.nan, np.nan]),
        ]
        text = svgplot.line_plot(series, "t", "x", "y")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        assert polylines[1].attrib["points"] == ""

    def test_deterministic_output(self):
        a = svgplot.line_plot(self._series(), "t", "x", "y")
        b = svgplot.line_plot(self._series(), "t", "x", "y")
        assert a == b

    def test_y_range_pins_axis(self):
        text = svgplot.line_plot(
            self._series(), "t", "x", "y", y_range=(0.0, 1.05)
        )
        ET.fromstring(text)  # still well formed

    def test_escapes_markup_in_labels(self):
        series = [("a<b&c", [1.0], [1.0]), ("&<>\"'", [1.0], [2.0])]
        text = svgplot.line_plot(series, "x<y", "x", "y")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        texts = [t.text for t in root.findall(f".//{ns}text")]
        assert "a<b&c" in texts
        assert f">{html.escape(series[1][0], quote=False)}</text>" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            svgplot.line_plot([], "t", "x", "y")
        with pytest.raises(ValueError):
            svgplot.line_plot([("s", [1.0, 2.0], [1.0])], "t", "x", "y")
        with pytest.raises(ValueError):
            svgplot.line_plot(
                [("s", [1.0], [1.0])], "t", "x", "y", y_range=(1.0, 1.0)
            )
